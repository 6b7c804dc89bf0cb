"""Frame-feature sequences and fixed-length padding or clipping."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_FRAME_SHIFT = 0.010


def _checked_frames(frames) -> np.ndarray:
    f = np.asarray(frames, dtype=np.float32)
    if f.ndim != 2 or f.shape[0] < 1:
        raise ValidationError(f"frames must be a non-empty T x D matrix, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValidationError("frames contain non-finite entries")
    return f


class _Frames:
    """The `frames` field: a matrix, converted and checked when it is set,
    or a zero-argument callable returning one, called, checked and cached
    at the first access. A sequence stored on disk is then read only when
    something uses its frames."""

    def __get__(self, seq, owner=None):
        if seq is None:
            raise AttributeError("frames")  # the field has no default
        frames = seq.__dict__["_frames"]
        if callable(frames):
            frames = seq.__dict__["_frames"] = _checked_frames(frames())
        return frames

    def __set__(self, seq, frames):
        seq.__dict__["_frames"] = frames if callable(frames) else _checked_frames(frames)


@dataclass(frozen=True)
class FeatureSequence:
    """T x D matrix of frame features plus the frame shift in seconds.
    `frames` may be given as a loader called at its first access."""

    frames: np.ndarray = _Frames()
    frame_shift: float = DEFAULT_FRAME_SHIFT

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other):
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return (
            self.frame_shift == other.frame_shift
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )


def pad_or_clip(seq: FeatureSequence, target_frames: int) -> FeatureSequence:
    """Force a sequence to exactly target_frames rows.

    Shorter sequences get trailing zero rows; longer ones are clipped to the
    centered window (start = floor((T - target) / 2)).
    """
    if target_frames < 1:
        raise ValidationError(f"target_frames must be >= 1, got {target_frames}")
    t = seq.num_frames
    if t == target_frames:
        return seq
    if t < target_frames:
        pad = np.zeros((target_frames - t, seq.dim), dtype=np.float32)
        frames = np.concatenate([seq.frames, pad], axis=0)
    else:
        start = (t - target_frames) // 2
        frames = seq.frames[start : start + target_frames]
    return FeatureSequence(frames=frames, frame_shift=seq.frame_shift)
