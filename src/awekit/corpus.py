"""Synthetic two-language code-switching corpus generation and manifest I/O.

Each word gets a prototype trajectory (smoothed Gaussian random walk); each
speaker applies a per-dimension affine transform plus a global linear time
warp. Search utterances concatenate silence and word blocks with exact
ground-truth occurrence records.

A saved corpus is a JSON manifest plus one AWEF blob per matrix.
`load_manifest` checks every record of the manifest, and reads no blob: a
blob is read and checked (CRC32, header, shape, finite frames) when a stage
first uses that sequence's frames, then kept.
"""

import functools
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import codec
from .blobio import read_record, write_record
from .errors import FormatError, IntegrityError, ValidationError
from .features import FeatureSequence

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

# Scale of the per-frame Gaussian steps building each word prototype.
PROTO_STEP_STD = 0.2
# Fraction of speakers held out for templates and search utterances.
HELD_OUT_FRACTION = 0.25


@dataclass(frozen=True)
class CorpusSpec:
    num_words_lang_a: int = 10
    num_words_lang_b: int = 10
    num_speakers: int = 8
    instances_per_word_per_speaker: int = 5
    feature_dim: int = 64
    word_len_frames: tuple[int, int] = (24, 40)
    speaker_gain_spread: float = 0.15
    speaker_bias_spread: float = 0.10
    noise_sigma: float = 0.05
    time_warp_spread: float = 0.10
    num_search_utterances: int = 30
    words_per_utterance: tuple[int, int] = (3, 5)
    silence_len_frames: tuple[int, int] = (10, 20)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "num_words_lang_a",
            "num_words_lang_b",
            "num_speakers",
            "instances_per_word_per_speaker",
            "feature_dim",
            "num_search_utterances",
        ):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("word_len_frames", "words_per_utterance", "silence_len_frames"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValidationError(f"{name} must satisfy 1 <= min <= max, got ({lo}, {hi})")
        for name in ("speaker_gain_spread", "speaker_bias_spread", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.time_warp_spread < 0.5:
            raise ValidationError(
                f"time_warp_spread must be in [0, 0.5), got {self.time_warp_spread}"
            )

    @property
    def num_words(self) -> int:
        return self.num_words_lang_a + self.num_words_lang_b

    def word_language(self, word_id: int) -> int:
        """Word ids number the language-0 words first."""
        return 0 if word_id < self.num_words_lang_a else 1

    @property
    def num_held_out_speakers(self) -> int:
        return math.ceil(self.num_speakers * HELD_OUT_FRACTION)

    @property
    def held_out_speakers(self) -> tuple[int, ...]:
        first = self.num_speakers - self.num_held_out_speakers
        return tuple(range(first, self.num_speakers))


@dataclass(frozen=True)
class WordInstance:
    word_id: int
    speaker_id: int
    features: FeatureSequence


@dataclass(frozen=True)
class Occurrence:
    utterance_id: int
    word_id: int
    start_frame: int
    end_frame: int  # exclusive

    def __post_init__(self):
        if not 0 <= self.start_frame < self.end_frame:
            raise ValidationError(
                f"occurrence frames invalid: [{self.start_frame}, {self.end_frame})"
            )


@dataclass(frozen=True)
class CorpusBundle:
    spec: CorpusSpec
    train_instances: tuple[WordInstance, ...]
    template_instances: tuple[WordInstance, ...]
    utterances: tuple[tuple[int, FeatureSequence], ...]
    ground_truth: tuple[Occurrence, ...]


def _smooth3(x: np.ndarray) -> np.ndarray:
    """3-frame moving average, edges averaged over available neighbors."""
    t = x.shape[0]
    out = x.copy()
    if t >= 2:
        out[1:-1] = (x[:-2] + x[1:-1] + x[2:]) / 3.0
        out[0] = (x[0] + x[1]) / 2.0
        out[-1] = (x[-2] + x[-1]) / 2.0
    return out


def _linear_time_warp(proto: np.ndarray, factor: float) -> np.ndarray:
    t = proto.shape[0]
    target = max(1, int(round(t * factor)))
    if target == t:
        return proto.copy()
    src = np.linspace(0.0, t - 1.0, target)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    frac = (src - lo)[:, None]
    return proto[lo] * (1.0 - frac) + proto[hi] * frac


def synth_corpus(spec: CorpusSpec) -> CorpusBundle:
    """Generate a deterministic synthetic corpus from a spec and its seed."""
    rng = np.random.default_rng(spec.seed)
    d = spec.feature_dim
    lo, hi = spec.word_len_frames

    protos = []
    for _ in range(spec.num_words):
        length = int(rng.integers(lo, hi + 1))
        steps = rng.normal(0.0, PROTO_STEP_STD, size=(length, d))
        protos.append(_smooth3(np.cumsum(steps, axis=0)))

    gains = np.empty((spec.num_speakers, d))
    biases = np.empty((spec.num_speakers, d))
    warps = np.empty(spec.num_speakers)
    for s in range(spec.num_speakers):
        gains[s] = 1.0 + rng.normal(0.0, spec.speaker_gain_spread, size=d)
        biases[s] = rng.normal(0.0, spec.speaker_bias_spread, size=d)
        warps[s] = 1.0 + rng.uniform(-spec.time_warp_spread, spec.time_warp_spread)

    def render_instance(word_id: int, speaker_id: int) -> WordInstance:
        feat = _linear_time_warp(protos[word_id], warps[speaker_id])
        feat = feat * gains[speaker_id] + biases[speaker_id]
        feat = feat + rng.normal(0.0, spec.noise_sigma, size=feat.shape)
        return WordInstance(
            word_id=word_id,
            speaker_id=speaker_id,
            features=FeatureSequence(frames=feat.astype(np.float32)),
        )

    held = set(spec.held_out_speakers)
    train, templates = [], []
    for word_id in range(spec.num_words):
        for speaker_id in range(spec.num_speakers):
            for _ in range(spec.instances_per_word_per_speaker):
                inst = render_instance(word_id, speaker_id)
                (templates if speaker_id in held else train).append(inst)

    held_list = sorted(held)
    sil_lo, sil_hi = spec.silence_len_frames
    wpu_lo, wpu_hi = spec.words_per_utterance

    def silence_block() -> np.ndarray:
        length = int(rng.integers(sil_lo, sil_hi + 1))
        return rng.normal(0.0, spec.noise_sigma, size=(length, d))

    utterances = []
    ground_truth = []
    for utt_id in range(spec.num_search_utterances):
        k = int(rng.integers(wpu_lo, wpu_hi + 1))
        words = list(rng.integers(0, spec.num_words, size=k))
        langs = {spec.word_language(int(w)) for w in words}
        if k >= 2 and len(langs) == 1:
            # force code-switching: swap the last word into the missing language
            other = 1 - langs.pop()
            base = 0 if other == 0 else spec.num_words_lang_a
            count = spec.num_words_lang_a if other == 0 else spec.num_words_lang_b
            words[-1] = base + int(rng.integers(0, count))
        blocks = [silence_block()]
        cursor = blocks[0].shape[0]
        for w in words:
            speaker = held_list[int(rng.integers(0, len(held_list)))]
            inst = render_instance(int(w), speaker)
            t = inst.features.num_frames
            ground_truth.append(
                Occurrence(
                    utterance_id=utt_id,
                    word_id=int(w),
                    start_frame=cursor,
                    end_frame=cursor + t,
                )
            )
            blocks.append(inst.features.frames.astype(np.float64))
            cursor += t
            sil = silence_block()
            blocks.append(sil)
            cursor += sil.shape[0]
        feat = np.concatenate(blocks, axis=0).astype(np.float32)
        utterances.append((utt_id, FeatureSequence(frames=feat)))

    return CorpusBundle(
        spec=spec,
        train_instances=tuple(train),
        template_instances=tuple(templates),
        utterances=tuple(utterances),
        ground_truth=tuple(ground_truth),
    )


def templates_by_keyword(bundle: CorpusBundle, limit: int) -> dict[int, list[FeatureSequence]]:
    """{word_id: the word's first `limit` template sequences, in manifest
    order}, in word order. Reads no frames."""
    grouped: dict[int, list[FeatureSequence]] = {}
    for inst in bundle.template_instances:
        grouped.setdefault(inst.word_id, []).append(inst.features)
    return {w: feats[:limit] for w, feats in sorted(grouped.items())}


def validate_bundle(bundle: CorpusBundle) -> None:
    """Assert the bundle invariants; raises ValidationError on violation."""
    _check_invariants(bundle, {uid: seq.num_frames for uid, seq in bundle.utterances})


def _check_invariants(bundle: CorpusBundle, utt_len: dict[int, int]) -> None:
    """The invariants of `validate_bundle`, with each utterance's frame
    count given, so that a loaded bundle is checked without its blobs."""
    train_speakers = {i.speaker_id for i in bundle.train_instances}
    eval_speakers = {i.speaker_id for i in bundle.template_instances}
    overlap = train_speakers & eval_speakers
    if overlap:
        raise ValidationError(f"speakers {sorted(overlap)} appear in both splits")
    last_end: dict[int, int] = {}
    for occ in bundle.ground_truth:
        if occ.word_id not in range(bundle.spec.num_words):
            raise ValidationError(f"occurrence references unknown word {occ.word_id}")
        if occ.utterance_id not in utt_len:
            raise ValidationError(f"occurrence references unknown utterance {occ.utterance_id}")
        if occ.end_frame > utt_len[occ.utterance_id]:
            raise ValidationError(
                f"occurrence [{occ.start_frame}, {occ.end_frame}) exceeds utterance "
                f"{occ.utterance_id} length {utt_len[occ.utterance_id]}"
            )
        if occ.start_frame < last_end.get(occ.utterance_id, 0):
            raise ValidationError(f"overlapping occurrences in utterance {occ.utterance_id}")
        last_end[occ.utterance_id] = occ.end_frame


def save_manifest(bundle: CorpusBundle, directory) -> None:
    """Write the bundle as a JSON index plus one AWEF blob per matrix."""
    directory = Path(directory)

    def instances(stem, insts):
        return [
            {
                "word_id": inst.word_id,
                "speaker_id": inst.speaker_id,
                **write_record(directory, f"{stem}_{i:05d}.awef", inst.features.frames),
            }
            for i, inst in enumerate(insts)
        ]

    manifest = {
        "version": MANIFEST_VERSION,
        "spec": codec.dump(bundle.spec),
        "train": instances("train", bundle.train_instances),
        "templates": instances("tmpl", bundle.template_instances),
        "utterances": [
            {"utterance_id": uid, **write_record(directory, f"utt_{uid:05d}.awef", seq.frames)}
            for uid, seq in bundle.utterances
        ],
        "ground_truth": [asdict(o) for o in bundle.ground_truth],
    }
    codec.write_json(directory / MANIFEST_NAME, manifest)


def load_manifest(directory) -> CorpusBundle:
    """The bundle a manifest describes. Every record is checked here against
    the spec and `validate_bundle`'s invariants; a blob is read and checked
    only when its sequence's frames are first used."""
    directory = Path(directory)
    index_path = directory / MANIFEST_NAME
    if not index_path.exists():
        raise FormatError(f"no {MANIFEST_NAME} in {directory}")
    corrupt = f"corrupt manifest {index_path}"
    index = codec.read_json(index_path, IntegrityError, corrupt)
    if not isinstance(index, dict) or index.get("version") != MANIFEST_VERSION:
        raise FormatError(f"{index_path} is not a version {MANIFEST_VERSION} manifest")
    blob_dir = str(directory)

    def sequence(rec):
        if type(rec["blob"]) is not str:
            raise TypeError(f"blob must be a string, got {rec['blob']!r}")
        _, cols, _ = codec.ints(rec, "rows", "cols", "crc32")
        if cols != spec.feature_dim:
            raise IntegrityError(f"{corrupt}: {rec['blob']} is {cols} wide, not {spec.feature_dim}")
        return FeatureSequence(functools.partial(read_record, blob_dir, rec))

    def instance(rec):
        word, speaker = codec.ints(rec, "word_id", "speaker_id")
        if word not in range(spec.num_words):
            raise IntegrityError(f"{corrupt}: word {word} is not in the spec")
        return WordInstance(word, speaker, sequence(rec))

    def occurrence(rec):
        codec.ints(rec, "utterance_id", "word_id", "start_frame", "end_frame")
        return Occurrence(**rec)

    try:
        spec = codec.load(CorpusSpec, index["spec"], "spec")
        utterances = tuple(
            (*codec.ints(rec, "utterance_id"), sequence(rec)) for rec in index["utterances"]
        )
        ids = [uid for uid, _ in utterances]
        utterance_ids = set(ids)
        if len(utterance_ids) < len(ids):
            repeated = sorted(uid for uid in utterance_ids if ids.count(uid) > 1)
            raise IntegrityError(f"{corrupt}: repeated utterance ids {repeated}")
        bundle = CorpusBundle(
            spec=spec,
            train_instances=tuple(map(instance, index["train"])),
            template_instances=tuple(map(instance, index["templates"])),
            utterances=utterances,
            ground_truth=tuple(map(occurrence, index["ground_truth"])),
        )
        utt_len = {uid: rec["rows"] for uid, rec in zip(ids, index["utterances"])}
        _check_invariants(bundle, utt_len)
    except (KeyError, TypeError) as e:
        raise IntegrityError(f"{corrupt}: bad record ({e!r})") from e
    except ValidationError as e:
        raise IntegrityError(f"{corrupt}: {e}") from e
    return bundle
