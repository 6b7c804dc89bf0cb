"""WAV ingestion and log Mel filterbank feature extraction."""

import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, TooShortError, ValidationError

DEFAULT_FRAME_LENGTH = 0.025
DEFAULT_FRAME_SHIFT = 0.010


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float, in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be > 0, got {self.sample_rate}")
        if len(self.samples) == 0:
            raise ValidationError("waveform is empty")


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
    """T x D matrix of log filterbank energies plus frame timing metadata.
    `frames` may be given as a loader called at its first access."""

    frames: np.ndarray = _Frames()
    frame_shift: float = DEFAULT_FRAME_SHIFT
    frame_length: float = DEFAULT_FRAME_LENGTH

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
            and self.frame_length == other.frame_length
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )


@dataclass(frozen=True)
class FbankConfig:
    frame_length: float = DEFAULT_FRAME_LENGTH
    frame_shift: float = DEFAULT_FRAME_SHIFT
    n_mels: int = 64
    fmin: float = 20.0
    fmax: float | None = None  # defaults to sample_rate / 2
    log_floor: float = 1e-10
    preemphasis: float = 0.97

    def __post_init__(self):
        if self.frame_length <= 0 or self.frame_shift <= 0:
            raise ValidationError("frame_length and frame_shift must be positive")
        if self.n_mels < 1:
            raise ValidationError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.fmin < 0:
            raise ValidationError(f"fmin must be >= 0, got {self.fmin}")
        if self.log_floor <= 0:
            raise ValidationError("log_floor must be > 0")


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file; PCM 16-bit mono only."""
    try:
        with wave.open(str(path), "rb") as w:
            nch = w.getnchannels()
            width = w.getsampwidth()
            comp = w.getcomptype()
            rate = w.getframerate()
            nframes = w.getnframes()
            raw = w.readframes(nframes)
    except wave.Error as e:
        raise FormatError(f"{path}: not a valid WAVE file ({e})") from e
    except EOFError as e:
        raise FormatError(f"{path}: truncated WAVE header") from e
    if comp != "NONE":
        raise FormatError(f"{path}: compression={comp} unsupported, PCM required")
    if nch != 1:
        raise FormatError(f"{path}: channels={nch} unsupported")
    if width != 2:
        raise FormatError(f"{path}: sample_width={width * 8}-bit unsupported, 16-bit required")
    if len(raw) != nframes * 2:
        raise FormatError(
            f"{path}: data chunk has {len(raw)} bytes but header claims {nframes * 2}"
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def mel_from_hz(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int, fmin: float, fmax: float):
    """Triangular Mel filters over the one-sided power spectrum.

    Returns (filters[n_mels, n_fft//2 + 1], center_freqs_hz[n_mels]).
    """
    if fmax <= fmin:
        raise ValidationError(f"fmax ({fmax}) must exceed fmin ({fmin})")
    edges_mel = np.linspace(mel_from_hz(fmin), mel_from_hz(fmax), n_mels + 2)
    edges_hz = hz_from_mel(edges_mel)
    fft_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    filters = np.zeros((n_mels, len(fft_freqs)))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        filters[m] = np.maximum(0.0, np.minimum(up, down))
    return filters, edges_hz[1:-1]


def fbank(w: Waveform, cfg: FbankConfig = FbankConfig()) -> FeatureSequence:
    """Log Mel filterbank energies from a waveform.

    Per frame: preemphasis, Hamming window, power spectrum (FFT size =
    next power of two >= window), Mel filterbank, natural log with floor.
    """
    sr = w.sample_rate
    fmax = cfg.fmax if cfg.fmax is not None else sr / 2.0
    if sr < 2 * fmax:
        raise ValidationError(f"sample_rate {sr} < 2 * fmax {fmax}")
    win = int(round(cfg.frame_length * sr))
    hop = int(round(cfg.frame_shift * sr))
    n = len(w.samples)
    if n < win:
        raise TooShortError(f"waveform has {n} samples, need at least {win} for one frame")

    x = np.asarray(w.samples, dtype=np.float64)
    pre = np.empty_like(x)
    pre[0] = x[0]
    pre[1:] = x[1:] - cfg.preemphasis * x[:-1]

    num_frames = 1 + (n - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(num_frames)[:, None]
    frames = pre[idx] * np.hamming(win)[None, :]

    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    filters, _ = mel_filterbank(cfg.n_mels, n_fft, sr, cfg.fmin, fmax)
    energies = power @ filters.T
    logf = np.log(np.maximum(energies, cfg.log_floor))
    return FeatureSequence(
        frames=logf.astype(np.float32),
        frame_shift=cfg.frame_shift,
        frame_length=cfg.frame_length,
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
    return FeatureSequence(
        frames=frames, frame_shift=seq.frame_shift, frame_length=seq.frame_length
    )
