"""Embedding-space keyword search: sliding-window segmentation, cosine
costs, moving-average smoothing, mean template fusion, and ranked
retrieval with the span of each best match."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .features import FeatureSequence, pad_or_clip
from .model import embed_sequences

# Cost assigned when cosine similarity is undefined (zero-norm vector).
ZERO_NORM_COST = 1.0


@dataclass(frozen=True)
class WindowConfig:
    """0.4 s windows: about one word long (the corpus's words are 24-40
    frames), so a window's embedding holds little context."""

    window_seconds: float = 0.4
    stride_frames: int = 5
    sma_len: int = 5

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValidationError(f"window_seconds must be > 0, got {self.window_seconds}")
        if self.stride_frames < 1 or self.sma_len < 1:
            raise ValidationError("stride_frames and sma_len must be >= 1")

    def window_frames(self, frame_shift: float) -> int:
        w = int(round(self.window_seconds / frame_shift))
        if w < 1:
            raise ValidationError(
                f"window of {self.window_seconds}s spans no frames at shift {frame_shift}s"
            )
        return w


@dataclass(frozen=True)
class KeywordQuery:
    keyword_id: int
    fused: np.ndarray  # [d]


@dataclass(frozen=True)
class RankedList:
    keyword_id: int
    # (utterance_id, score, start_frame, end_frame), ascending cost; the
    # best match lies in frames [start_frame, end_frame) of the utterance
    entries: tuple[tuple[int, float, int, int], ...]


def window_segments(seq: FeatureSequence, cfg: WindowConfig):
    """Fixed-size windows at regular stride; trailing partials zero-padded.

    Returns a list of (start_frame, FeatureSequence of exactly W frames).
    """
    t = seq.num_frames
    if t < 1:
        raise ValidationError("cannot window an empty sequence")
    w = cfg.window_frames(seq.frame_shift)
    out = []
    for start in range(0, t, cfg.stride_frames):
        window = FeatureSequence(frames=seq.frames[start : start + w], frame_shift=seq.frame_shift)
        out.append((start, pad_or_clip(window, w)))
    return out


def cosine_cost(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cosine distance of each query x ([d] or [K, d]) against each row of
    ys ([N, d]), shaped [N] or [K, N]; a pair with a zero-norm vector
    costs ZERO_NORM_COST instead of NaN."""
    x = np.asarray(x, dtype=np.float64)
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if ys.shape[0] == 0:
        raise ValidationError("cosine_cost needs at least one candidate")
    if ys.shape[1] != x.shape[-1]:
        raise ShapeError(f"dim mismatch: x has {x.shape[-1]}, candidates have {ys.shape[1]}")
    xn = np.linalg.norm(x, axis=-1)[..., None]
    yn = np.linalg.norm(ys, axis=1)
    degenerate = (xn == 0.0) | (yn == 0.0)
    denom = np.where(degenerate, 1.0, xn * yn)
    costs = 1.0 - (x @ ys.T) / denom
    costs[degenerate] = ZERO_NORM_COST
    return costs


def sma(trace, k: int) -> np.ndarray:
    """Trailing simple moving average along the last axis; windows at the
    head shrink to the number of available points."""
    if k < 1:
        raise ValidationError(f"sma window must be >= 1, got {k}")
    trace = np.asarray(trace, dtype=np.float64)
    csum = np.cumsum(np.concatenate([np.zeros_like(trace[..., :1]), trace], axis=-1), axis=-1)
    idx = np.arange(trace.shape[-1])
    lo = np.maximum(0, idx - k + 1)
    return (csum[..., idx + 1] - csum[..., lo]) / (idx + 1 - lo)


def fuse_templates_mean(embeddings: np.ndarray) -> np.ndarray:
    """Coordinate-wise mean of template embeddings."""
    embs = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if embs.shape[0] < 1:
        raise ValidationError("need at least one template embedding")
    return embs.mean(axis=0)


def make_query(params, cfg, window_cfg: WindowConfig, templates) -> list[KeywordQuery]:
    """One query per keyword of `templates` ({keyword_id: [FeatureSequence]}),
    in keyword order: every template is padded or clipped to the window
    size, all are embedded in one call, and each keyword's embeddings are
    fused by their mean."""
    keywords = sorted(templates)
    flat = [t for k in keywords for t in templates[k]]
    if not flat:
        raise ValidationError("no templates to embed")
    w = window_cfg.window_frames(flat[0].frame_shift)
    embs = embed_sequences(params, cfg, [pad_or_clip(t, w) for t in flat])
    parts = np.split(embs, np.cumsum([len(templates[k]) for k in keywords])[:-1])
    return [
        KeywordQuery(keyword_id=k, fused=fuse_templates_mean(part))
        for k, part in zip(keywords, parts)
    ]


def embed_windows(params, cfg, seqs, window_cfg: WindowConfig):
    """[(start frames [N], embeddings [N, d])] of each sequence's windows;
    the windows of all sequences are embedded in one call."""
    segs = [window_segments(seq, window_cfg) for seq in seqs]
    embs = embed_sequences(params, cfg, [w for windows in segs for _, w in windows])
    parts = np.split(embs, np.cumsum([len(windows) for windows in segs])[:-1])
    return [
        (np.array([start for start, _ in windows]), np.asarray(part, dtype=np.float64))
        for windows, part in zip(segs, parts)
    ]


def search(queries, utterances, params, cfg, window_cfg: WindowConfig):
    """Rank utterances per keyword by minimum smoothed cosine cost; the
    span of an entry is the window at that minimum, clipped to the
    utterance. Returns {keyword_id: RankedList}."""
    if not queries:
        return {}
    # window embeddings are query-independent: compute them once
    windows = embed_windows(params, cfg, [seq for _, seq in utterances], window_cfg)
    utt_windows = {
        utt_id: (seq.num_frames, window_cfg.window_frames(seq.frame_shift), *w)
        for (utt_id, seq), w in zip(utterances, windows)
    }

    fused = np.stack([q.fused for q in queries])  # [K, d]
    scored = [[] for _ in queries]
    for utt_id in sorted(utt_windows):
        num_frames, width, starts, embs = utt_windows[utt_id]
        # every keyword's cost trace over this utterance's windows at once
        smoothed = sma(cosine_cost(fused, embs), window_cfg.sma_len)  # [K, N]
        for entries, row, best in zip(scored, smoothed, np.argmin(smoothed, axis=1)):
            start = int(starts[best])
            entries.append((utt_id, float(row[best]), start, min(start + width, num_frames)))
    rankings = {}
    for q, entries in zip(queries, scored):
        entries.sort(key=lambda e: (e[1], e[0]))
        rankings[q.keyword_id] = RankedList(keyword_id=q.keyword_id, entries=tuple(entries))
    return rankings
