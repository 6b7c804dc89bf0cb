"""Residual acoustic word embedding network: construction, forward pass,
joint word-discrimination + variability-invariant training, batched
embedding, and model file I/O."""

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blobio, codec, tensorkit as tk
from .errors import FormatError, IncompatibleModelError, ValidationError
from .features import FeatureSequence

log = logging.getLogger(__name__)

SOFTMAX_MODES = ("one", "block")

# Nesterov SGD from LR0: after LR_PATIENCE epochs in a row whose mean loss is not
# 1e-6 below the best so far, the rate is multiplied by LR_FACTOR, down to MIN_LR.
LR0 = 0.1
MOMENTUM = 0.9
LR_PATIENCE = 5
LR_FACTOR = 0.5
MIN_LR = 1e-4


@dataclass(frozen=True)
class ModelSettings:
    """The settings of a run config's `model` section."""
    stage_channels: tuple[int, ...] = (8, 16, 32, 64)
    softmax_mode: str = "one"  # one of SOFTMAX_MODES
    alpha: float = 0.8
    epochs: int = 80
    batch_size: int = 32
    grad_clip_norm: float = 1.0  # 0 disables clipping
    seed: int = 0

    def __post_init__(self):
        if len(self.stage_channels) != 4:
            raise ValidationError("stage_channels must have length 4")
        if self.softmax_mode not in SOFTMAX_MODES:
            raise ValidationError(f"softmax_mode {self.softmax_mode!r} is not in {SOFTMAX_MODES}")
        if not 0 <= self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if min(self.stage_channels) < 1 or self.seed < 0:
            raise ValidationError("stage_channels must be >= 1 and seed >= 0")


@dataclass(frozen=True)
class ModelConfig(ModelSettings):
    """The settings plus the corpus's feature dim and words per language."""
    input_dim: int = 64
    num_classes_per_language: tuple[int, ...] = (10, 10)

    def __post_init__(self):
        super().__post_init__()
        if not self.num_classes_per_language or min(self.num_classes_per_language) < 1:
            raise ValidationError("every language needs at least one class")

    @property
    def num_classes(self) -> int:
        return sum(self.num_classes_per_language)

    @property
    def embedding_dim(self) -> int:
        return self.stage_channels[-1]

    @property
    def layout(self) -> tuple[int, ...]:
        """The softmax block sizes: all classes in one block, or one block
        per language, whose words the corpus numbers in language order."""
        if self.softmax_mode == "one":
            return (self.num_classes,)
        return self.num_classes_per_language


@dataclass
class EpochStats:
    total_loss: float
    ce_loss: float
    mse_loss: float
    accuracy: float
    lr: float
    max_grad_norm: float  # largest global gradient norm of a step, before clipping
    clipped_steps: int  # steps whose gradient clipping scaled down


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)


def _he_uniform(rng, shape, fan_in):
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, in initialization order: conv1, then one
    residual block per stage. The first stage keeps conv1's channels and
    resolution; every later one strides by 2 and projects its skip path."""
    c0 = cfg.stage_channels[0]
    shapes = {"conv1.w": (c0, 1, 7, 7)}
    for s, (in_ch, out_ch) in enumerate(zip((c0, *cfg.stage_channels), cfg.stage_channels)):
        prefix = f"res{s + 1}.0"
        shapes[f"{prefix}.conv1.w"] = (out_ch, in_ch, 3, 3)
        shapes[f"{prefix}.conv2.w"] = (out_ch, out_ch, 3, 3)
        if s > 0:
            shapes[f"{prefix}.proj.w"] = (out_ch, in_ch, 1, 1)
    shapes["fc.w"] = (cfg.embedding_dim, cfg.num_classes)
    shapes["fc.b"] = (cfg.num_classes,)
    return shapes


def build_network(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """He-uniform initialized parameters for the full layer stack.

    Convolutions carry no bias so that zero-padded frames stay exactly
    zero through the network and masked pooling is exact; the final FC
    layer has a (zero-initialized) bias.
    """
    rng = np.random.default_rng(cfg.seed)
    dtype = tk.default_dtype()
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg).items():
        if name == "fc.b":
            params[name] = np.zeros(shape, dtype=dtype)
        else:  # fan-in: input channels x kernel area for a conv, rows for fc.w
            fan_in = shape[0] if name == "fc.w" else math.prod(shape[1:])
            params[name] = _he_uniform(rng, shape, fan_in).astype(dtype)
    return params


def _mask_time(h: tk.Tensor, valid: np.ndarray) -> tk.Tensor:
    """Zero activations past each item's valid length.

    Strided convolutions near the valid/padded boundary mix valid frames
    into positions beyond it; without re-masking, the next layer's valid
    outputs would read those and batch padding would change embeddings.
    """
    t = h.shape[-1]
    if (valid >= t).all():
        return h
    m = (np.arange(t)[None, :] < valid[:, None]).astype(h.value.dtype)[:, None, None, :]
    out = tk.Tensor(h.value * m, (h,))

    def backward(g):
        h._accumulate(g * m)

    out._backward = backward
    return out


def _forward_graph(pt: dict[str, tk.Tensor], cfg: ModelConfig, x: tk.Tensor, valid_t):
    """Shared forward pass over param Tensors; x is [B, 1, D, T]."""
    valid = np.asarray(valid_t, dtype=np.int64)
    h = tk.relu(tk.conv2d(x, pt["conv1.w"], stride=(2, 2), pad=(3, 3)))
    valid = -(-valid // 2)
    h = _mask_time(h, valid)
    h = tk.maxpool2x2(h)
    valid = -(-valid // 2)
    h = _mask_time(h, valid)
    for s in range(len(cfg.stage_channels)):  # as laid out in `_param_shapes`
        prefix = f"res{s + 1}.0"
        stride = (2, 2) if s > 0 else (1, 1)
        valid = -(-valid // stride[1])  # stride[1] is the time stride
        main = tk.relu(tk.conv2d(h, pt[f"{prefix}.conv1.w"], stride=stride, pad=(1, 1)))
        main = _mask_time(main, valid)
        main = tk.conv2d(main, pt[f"{prefix}.conv2.w"], stride=(1, 1), pad=(1, 1))
        skip = tk.conv2d(h, pt[f"{prefix}.proj.w"], stride=stride, pad=(0, 0)) if s > 0 else h
        h = _mask_time(tk.relu(main + skip), valid)
    emb = tk.gap_masked(h, valid)
    logits = tk.linear(emb, pt["fc.w"], pt["fc.b"])
    return emb, logits


def _as_param_tensors(params: dict[str, np.ndarray]) -> dict[str, tk.Tensor]:
    return {name: tk.Tensor(p) for name, p in params.items()}


def _batch_array(seqs: list[FeatureSequence], cfg: ModelConfig):
    """Pad sequences with trailing zero frames into a [B, 1, D, T] array."""
    if not seqs:
        raise ValidationError("empty batch")
    dim = seqs[0].dim
    if dim != cfg.input_dim:
        raise ValidationError(f"feature dim {dim} != model input_dim {cfg.input_dim}")
    lens = [s.num_frames for s in seqs]
    t_max = max(lens)
    batch = np.zeros((len(seqs), 1, dim, t_max), dtype=tk.default_dtype())
    for i, s in enumerate(seqs):
        batch[i, 0, :, : lens[i]] = s.frames.T
    return batch, np.asarray(lens, dtype=np.int64)


def forward(params, cfg: ModelConfig, seqs: list[FeatureSequence]):
    """Forward a batch of sequences; returns (embeddings [B,d], logits [B,V])."""
    batch, lens = _batch_array(seqs, cfg)
    pt = _as_param_tensors(params)
    emb, logits = _forward_graph(pt, cfg, tk.Tensor(batch), lens)
    return emb.value.copy(), logits.value.copy()


def embed_sequences(params, cfg: ModelConfig, seqs, batch_size=16) -> np.ndarray:
    """Embeddings for many sequences, batched by similar length for speed.

    The items sorted by length go into ceil(n / batch_size) chunks whose
    sizes differ by at most one, but never into a chunk of one item unless
    n == 1 (so a batch_size under 3 gives chunks of 2 or 3): a batch of one
    takes another rounding path in `gap_masked`, while a batch of two or
    more gives each item of a given length the same bits."""
    n = len(seqs)
    out = np.empty((n, cfg.embedding_dim), dtype=tk.default_dtype())
    order = np.argsort([s.num_frames for s in seqs], kind="stable")
    chunks = max(1, min(-(-n // batch_size), n // 2))
    for chunk in np.array_split(order, chunks) if n else ():
        emb, _ = forward(params, cfg, [seqs[i] for i in chunk])
        out[chunk] = emb
    return out


def total_loss(logits, emb, targets, layout, alpha):
    """Joint objective CE(anchors) + CE(partners) + alpha * MSE(their
    embeddings) over one graph of B anchors followed by their B partners;
    with equal halves, twice the CE mean over 2B items is CE1 + CE2.

    Returns (total, ce_sum_value, mse_value) with total a scalar Tensor.
    """
    half = emb.shape[0] // 2
    ce = tk.block_cross_entropy(logits, layout, targets).scale(2.0)
    l_mse = tk.mse(emb[:half], emb[half:])
    total = ce + l_mse.scale(alpha)
    return total, float(ce.value), float(l_mse.value)


def train(cfg: ModelConfig, instances) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Train the embedding network on labeled word instances.

    Each anchor instance gets one sampled same-word different-speaker
    partner per step; words with a single speaker fall back to
    partner == anchor (zero MSE term).

    A step's B pairs, sorted by the longer of anchor and partner, are
    forwarded as two sub-graphs (one when B == 1), each its anchors then
    its partners padded to its own longest item, which lowers peak memory.
    Each half's `total_loss` is scaled by its share of the pairs, so their
    sum is the whole batch's loss, with one backward and one Nesterov step.
    """
    instances = list(instances)
    if not instances:
        raise ValidationError("empty training set")
    layout = cfg.layout
    vocab = cfg.num_classes
    for inst in instances:
        if not 0 <= inst.word_id < vocab:
            raise ValidationError(f"word_id {inst.word_id} outside vocabulary [0, {vocab})")

    by_word: dict[int, list[int]] = {}
    for i, inst in enumerate(instances):
        by_word.setdefault(inst.word_id, []).append(i)
    partners: dict[int, list[int]] = {}
    single_speaker_words = set()
    for i, inst in enumerate(instances):
        cands = [j for j in by_word[inst.word_id] if instances[j].speaker_id != inst.speaker_id]
        partners[i] = cands
        if not cands:
            single_speaker_words.add(inst.word_id)
    if single_speaker_words:
        log.warning(
            "words %s have a single speaker; their MSE term degenerates to 0",
            sorted(single_speaker_words),
        )

    rng = np.random.default_rng(cfg.seed)
    params = build_network(cfg)
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    lr = LR0
    best_loss = np.inf
    stale = 0
    report = TrainReport()

    n = len(instances)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        ep_total = ep_ce = ep_mse = 0.0
        correct = 0
        n_batches = 0
        max_grad_norm = 0.0
        clipped_steps = 0
        for start in range(0, n, cfg.batch_size):
            anchor_idx = perm[start : start + cfg.batch_size]
            partner_idx = [
                partners[i][int(rng.integers(0, len(partners[i])))] if partners[i] else i
                for i in anchor_idx
            ]
            b = len(anchor_idx)
            longer = [
                max(instances[i].features.num_frames, instances[j].features.num_frames)
                for i, j in zip(anchor_idx, partner_idx)
            ]
            pt = _as_param_tensors(params)
            loss = None
            ce_val = mse_val = 0.0
            for half in np.array_split(np.argsort(longer, kind="stable"), min(2, b)):
                items = [instances[anchor_idx[k]] for k in half]
                items += [instances[partner_idx[k]] for k in half]
                batch, lens = _batch_array([it.features for it in items], cfg)
                x = tk.Tensor(batch, requires_grad=False)
                emb, logits = _forward_graph(pt, cfg, x, lens)
                targets = np.array([it.word_id for it in items])
                part, ce_part, mse_part = total_loss(logits, emb, targets, layout, cfg.alpha)
                share = len(half) / b
                part = part.scale(share)
                loss = part if loss is None else loss + part
                ce_val += share * ce_part
                mse_val += share * mse_part
                pred = tk.block_softmax(logits.value, layout, targets).argmax(axis=1)
                correct += int((pred == targets)[: len(half)].sum())
            if not np.isfinite(loss.value):
                raise ValidationError(
                    f"non-finite loss {loss.value} at epoch {epoch}, batch {n_batches}"
                )
            loss.backward()
            grads = {name: pt[name].grad for name in params}
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            max_grad_norm = max(max_grad_norm, norm)
            if 0 < cfg.grad_clip_norm < norm:
                clipped_steps += 1
                scale = cfg.grad_clip_norm / norm
                for g in grads.values():
                    g *= scale
            tk.sgd_nesterov_step(params, grads, velocity, lr, MOMENTUM)
            ep_total += float(loss.value)
            ep_ce += ce_val
            ep_mse += mse_val
            n_batches += 1
        mean_loss = ep_total / n_batches
        report.epochs.append(
            EpochStats(
                total_loss=mean_loss,
                ce_loss=ep_ce / n_batches,
                mse_loss=ep_mse / n_batches,
                accuracy=correct / n,
                lr=lr,
                max_grad_norm=max_grad_norm,
                clipped_steps=clipped_steps,
            )
        )
        if mean_loss < best_loss - 1e-6:
            best_loss = mean_loss
            stale = 0
        else:
            stale += 1
            if stale >= LR_PATIENCE and lr > MIN_LR:
                lr = max(MIN_LR, lr * LR_FACTOR)
                stale = 0
    return params, report


def save_model(params: dict[str, np.ndarray], cfg: ModelConfig, path) -> None:
    """The tensors, flattened in sorted-name order into one [1, P] float32
    AWEF blob at `path`, and a header beside it (`path` with suffix .json)
    holding the config, the tensor table and the blob's record. The blob is
    written first: if the header write is cut short, the old header's CRC32
    rejects the new blob."""
    path = Path(path)
    names = sorted(params)
    flat = np.concatenate([np.ravel(params[name]) for name in names])[None, :]
    record = blobio.write_record(path.parent, path.name, flat)
    table = [[name, list(params[name].shape)] for name in names]
    codec.write_json(
        path.with_suffix(".json"), {"config": codec.dump(cfg), "tensors": table, **record}
    )


def load_model(path):
    """(params, cfg) of a model written by `save_model`: the blob is checked
    against its header's record, the tensor table against the config."""
    path = Path(path)
    header_path = path.with_suffix(".json")
    where = f"model header {header_path} is not valid"
    try:
        header = codec.read_json(header_path, FormatError, where)
        cfg = codec.load(ModelConfig, header["config"], "model")
        table = {name: shape for name, shape in header["tensors"]}
        if header["blob"] != path.name:
            raise ValueError(f"it names blob {header['blob']!r}")
        flat = blobio.read_record(path.parent, header)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{where}: {e!r}") from e
    shapes = {name: list(shape) for name, shape in sorted(_param_shapes(cfg).items())}
    for name in sorted(table.keys() | shapes.keys(), key=str):
        if table.get(name) != shapes.get(name):
            raise IncompatibleModelError(
                f"model {path}: tensor {name!r} has shape {table.get(name)} in the header, "
                f"the config implies {shapes.get(name)}"
            )
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat.shape != (1, sum(sizes)):
        raise IncompatibleModelError(
            f"model {path} holds {flat.size} values, its tensors {sum(sizes)}"
        )
    chunks = np.split(flat[0], np.cumsum(sizes)[:-1])
    params = {name: chunk.reshape(shape) for (name, shape), chunk in zip(shapes.items(), chunks)}
    return params, cfg
