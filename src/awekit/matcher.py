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

    @classmethod
    def ranked(cls, keyword_id: int, entries) -> "RankedList":
        """The entries in ascending score, ties broken by utterance id."""
        return cls(keyword_id, tuple(sorted(entries, key=lambda e: (e[1], e[0]))))


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


def unit_rows(m) -> tuple[np.ndarray, np.ndarray]:
    """The rows of m ([N, d]) as float64 rows of unit norm, and the mask of
    the rows of zero norm (left as zero rows)."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    zero = norms == 0.0
    return m / np.where(zero, 1.0, norms)[:, None], zero


def unit_costs(a, b) -> np.ndarray:
    """Cosine distances [len(a), len(b)] between the rows of two `unit_rows`
    results; a zero-norm row costs ZERO_NORM_COST against every row."""
    (ua, za), (ub, zb) = a, b
    if ua.shape[1] != ub.shape[1]:
        raise ShapeError(f"dim mismatch: {ua.shape[1]} vs {ub.shape[1]}")
    c = 1.0 - ua @ ub.T
    c[za, :] = ZERO_NORM_COST
    c[:, zb] = ZERO_NORM_COST
    return c


def cosine_cost(xs, ys) -> np.ndarray:
    """Cosine distance [K, N] of each query xs ([K, d]) against each row of
    ys ([N, d])."""
    return unit_costs(unit_rows(xs), unit_rows(ys))


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
    """(embeddings [N, d], start frames [N], bounds [U+1]) of the windows of
    all U sequences, embedded in one call; the windows of sequence i are
    rows bounds[i]:bounds[i+1]."""
    segs = [window_segments(seq, window_cfg) for seq in seqs]
    flat = [w for windows in segs for w in windows]
    embs = embed_sequences(params, cfg, [w for _, w in flat])
    bounds = np.cumsum([0] + [len(windows) for windows in segs])
    return np.asarray(embs, dtype=np.float64), np.array([start for start, _ in flat]), bounds


def search(queries, utterances, params, cfg, window_cfg: WindowConfig):
    """Rank utterances per keyword by minimum smoothed cosine cost; the
    span of an entry is the window at that minimum, clipped to the
    utterance. Returns {keyword_id: RankedList}."""
    if not queries:
        return {}
    embs, starts, bounds = embed_windows(params, cfg, [seq for _, seq in utterances], window_cfg)
    costs = cosine_cost(np.stack([q.fused for q in queries]), embs)  # [K, N]
    scored = [[] for _ in queries]
    for (utt_id, seq), lo, hi in zip(utterances, bounds[:-1], bounds[1:]):
        width = window_cfg.window_frames(seq.frame_shift)
        smoothed = sma(costs[:, lo:hi], window_cfg.sma_len)
        for entries, row, best in zip(scored, smoothed, np.argmin(smoothed, axis=1)):
            start = int(starts[lo + best])
            entries.append((utt_id, float(row[best]), start, min(start + width, seq.num_frames)))
    return {q.keyword_id: RankedList.ranked(q.keyword_id, e) for q, e in zip(queries, scored)}
