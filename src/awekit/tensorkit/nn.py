"""Differentiable layers: conv2d, max-pool, ReLU, linear, masked GAP,
block softmax cross-entropy, and MSE."""

import numpy as np

from ..errors import ShapeError, ValidationError
from .autograd import Tensor


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


# Multiply-adds (M*N*K) at or below which OpenBLAS (0.3.31, SkylakeX) runs
# a GEMM in small-matrix kernels whose rounding depends on operand layout.
# Above it both layouts are packed alike and give the same bits.
_SMALL_GEMM = 100**3


def _im2col(xp: np.ndarray, kf, kt, sf, st, of, ot) -> np.ndarray:
    """Channel-major columns [C*kF*kT, B, oF*oT] of a padded input [B,C,F,T]."""
    b, c, _, _ = xp.shape
    cols = np.empty((c, kf, kt, b, of, ot), dtype=xp.dtype)
    xt = xp.transpose(1, 0, 2, 3)
    for i in range(kf):
        for j in range(kt):
            cols[:, i, j] = xt[:, :, i : i + sf * of : sf, j : j + st * ot : st]
    return cols.reshape(c * kf * kt, b, of * ot)


def conv2d(x: Tensor, w: Tensor, stride=(1, 1), pad=(0, 0)) -> Tensor:
    """2-D cross-correlation of x[B,C,F,T] with w[O,C,kF,kT]; no bias. An
    input with requires_grad False gets no input gradient.

    BLAS picks its kernel, and so its rounding, by operand shape and memory
    layout. The forward and dX products read their operands as a
    batch-major [B, C*kF*kT, oF*oT] im2col gives them (the dX GEMM runs all
    items at once) and dX adds the taps in (i, j) order. dW reads the
    channel-major columns in place, as an F-ordered view, where that gives
    the bits of the batch-major rows (see `_SMALL_GEMM`), and a C-ordered
    copy of them elsewhere. So the bits do not depend on the layouts used
    here."""
    sf, st = _pair(stride)
    pf, pt = _pair(pad)
    if x.value.ndim != 4 or w.value.ndim != 4:
        raise ShapeError(f"conv2d wants 4-D input and weight, got {x.shape} and {w.shape}")
    b, c, f, t = x.shape
    o, cw, kf, kt = w.shape
    if cw != c:
        raise ShapeError(f"conv2d channels mismatch: input {x.shape} vs weight {w.shape}")
    if f + 2 * pf < kf or t + 2 * pt < kt:
        raise ShapeError(f"conv2d kernel {w.shape} larger than padded input {x.shape}")
    of = (f + 2 * pf - kf) // sf + 1
    ot = (t + 2 * pt - kt) // st + 1
    n = b * of * ot
    if pf or pt:
        xp = np.zeros((b, c, f + 2 * pf, t + 2 * pt), dtype=x.value.dtype)
        xp[:, :, pf : pf + f, pt : pt + t] = x.value
    else:
        xp = x.value
    cols = _im2col(xp, kf, kt, sf, st, of, ot)
    w2 = w.value.reshape(o, c * kf * kt)
    # With a GEMM dimension of 1, matmul takes vector paths (dot, gemv) whose
    # rounding depends on strides and lengths: those shapes keep every
    # product in batch-major layout.
    vector_path = 1 in (o, c * kf * kt, of * ot)
    items = cols.transpose(1, 0, 2)
    if vector_path:
        items = np.ascontiguousarray(items)
    out_val = np.matmul(w2, items).reshape(b, o, of, ot)
    out = Tensor(out_val, (x, w))

    def backward(g):
        # np.tensordot of batch-major columns reads C-ordered rows: a copy,
        # but an F-ordered view for one item. Above BLAS's small-GEMM bound
        # the view gives the copy's bits, so only vector paths and small
        # products pay for the copy.
        rows = cols.reshape(-1, n).T
        if b > 1 and (vector_path or w2.size * n <= _SMALL_GEMM):
            rows = np.ascontiguousarray(rows)
        w._accumulate(np.dot(g.transpose(1, 0, 2, 3).reshape(o, n), rows).reshape(w.shape))
        if not x.requires_grad:
            return
        # batch-last, so each tap's scatter-add runs over B*oT elements at once
        if vector_path:
            dcols = np.matmul(w2.T, g.reshape(b, o, of * ot)).transpose(1, 2, 0)
        else:
            dcols = w2.T @ g.transpose(1, 2, 3, 0).reshape(o, n)
        dcols = dcols.reshape(c, kf, kt, of, ot, b)
        dxp = np.zeros((c, f + 2 * pf, t + 2 * pt, b), dtype=xp.dtype)
        for i in range(kf):
            for j in range(kt):
                dxp[:, i : i + sf * of : sf, j : j + st * ot : st] += dcols[:, i, j]
        # one transposing copy, into a C-ordered gradient
        x._accumulate(dxp[:, pf : pf + f, pt : pt + t].transpose(3, 0, 1, 2))

    out._backward = backward
    return out


# The four taps of a 2x2 window, in the order argmax would scan them.
_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pool, stride 2, ceil mode (partial edge windows allowed).

    The backward sends each gradient to the first tap, in `_TAPS` order,
    that equals the window's maximum, as argmax over the window would.
    Input is assumed NaN-free; a window whose maximum is a zero may give
    either sign of zero. Only an odd size is padded, with -inf."""
    b, c, f, t = x.shape
    of, ot = (f + 1) // 2, (t + 1) // 2
    if f % 2 or t % 2:
        xp = np.full((b, c, 2 * of, 2 * ot), -np.inf, dtype=x.value.dtype)
        xp[:, :, :f, :t] = x.value
    else:
        xp = x.value
    taps = [xp[:, :, i::2, j::2] for i, j in _TAPS]
    out_val = np.maximum(np.maximum(taps[0], taps[1]), np.maximum(taps[2], taps[3]))
    out = Tensor(out_val, (x,))

    def backward(g):
        # Routing multiplies bit patterns by 0 or 1: a routed gradient keeps
        # its exact bits (a -0.0 too) and every other element becomes +0.0.
        bits = np.dtype(f"u{g.itemsize}")
        g_bits = g.view(bits)
        dxp = np.empty_like(xp)
        dxp_bits = dxp.view(bits)
        free = np.ones(g.shape, dtype=bool)
        for (i, j), tap in zip(_TAPS[:-1], taps):
            hit = tap == out_val
            hit &= free
            free ^= hit
            np.multiply(g_bits, hit, out=dxp_bits[:, :, i::2, j::2])
        np.multiply(g_bits, free, out=dxp_bits[:, :, 1::2, 1::2])
        x._accumulate(dxp[:, :, :f, :t])

    out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0). Input is assumed NaN-free; the backward's mask is taken
    from the output array, which the closure holds instead of the output
    Tensor: holding the Tensor would make a reference cycle through its
    own `_backward`."""
    out_val = np.maximum(x.value, 0)
    out = Tensor(out_val, (x,))

    def backward(g):
        x._accumulate(g * (out_val > 0))

    out._backward = backward
    return out


def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """x[B,D] @ w[D,N] + bias[N]."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} @ {w.shape}")
    if bias.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {bias.shape} vs weight {w.shape}")
    out = Tensor(x.value @ w.value + bias.value, (x, w, bias))

    def backward(g):
        x._accumulate(g @ w.value.T)
        w._accumulate(x.value.T @ g)
        bias._accumulate(g.sum(axis=0))

    out._backward = backward
    return out


def gap_masked(x: Tensor, valid_t) -> Tensor:
    """Mean of x[B,C,F,T] over frequency and the first valid_t[b] time steps."""
    b, c, f, t = x.shape
    valid = np.asarray(valid_t, dtype=np.int64)
    if valid.shape != (b,):
        raise ShapeError(f"valid_t shape {valid.shape}, expected ({b},)")
    if (valid < 1).any() or (valid > t).any():
        raise ValidationError(f"valid_t entries must lie in [1, {t}], got {valid.tolist()}")
    mask = (np.arange(t)[None, :] < valid[:, None]).astype(x.value.dtype)
    denom = (f * valid).astype(x.value.dtype)
    out_val = np.einsum("bcft,bt->bc", x.value, mask) / denom[:, None]
    out = Tensor(out_val, (x,))

    def backward(g):
        per_cell = (g / denom[:, None])[:, :, None, None] * mask[:, None, None, :]
        x._accumulate(np.broadcast_to(per_cell, x.value.shape))

    out._backward = backward
    return out


def _block_softmax(logits: np.ndarray, sizes, targets):
    """(probabilities [B,N], log-sum-exp [B], targets [B]) of each row's
    softmax over the block that holds its target, with `sizes` the block
    sizes in column order; other columns are masked to -inf, so 0."""
    ends = np.cumsum(sizes)
    if logits.ndim != 2 or logits.shape[1] != ends[-1]:
        raise ShapeError(f"logits shape {logits.shape} vs block sizes {tuple(sizes)}")
    b, n = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape}, expected ({b},)")
    if ((targets < 0) | (targets >= n)).any():
        raise ValidationError(f"targets {targets.tolist()} outside [0, {n})")
    block = np.searchsorted(ends, np.arange(n), side="right")  # of each column
    z = np.where(block == block[targets, None], logits, -np.inf)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    return e / s, (m + np.log(s))[:, 0], targets


def block_softmax(activations: np.ndarray, sizes, targets) -> np.ndarray:
    """Softmax over the block of each item's target; zero elsewhere.

    Plain array function (the differentiable path is the fused
    block_cross_entropy)."""
    return _block_softmax(np.asarray(activations, dtype=np.float64), sizes, targets)[0]


def block_cross_entropy(logits: Tensor, sizes, targets) -> Tensor:
    """Mean cross-entropy of each item's target under the softmax of the
    block that holds it, computed in fused log-sum-exp form."""
    probs, lse, targets = _block_softmax(logits.value, sizes, targets)
    b = probs.shape[0]
    rows = np.arange(b)
    out = Tensor((lse - logits.value[rows, targets]).mean(), (logits,))

    dlogits = probs.copy()
    dlogits[rows, targets] -= 1.0

    def backward(g):
        logits._accumulate(dlogits * (g / b))

    out._backward = backward
    return out


def mse(e1: Tensor, e2: Tensor) -> Tensor:
    """Mean squared difference over all coordinates (per-pair mean of
    (1/d)*||e1-e2||^2 when inputs are batched)."""
    if e1.shape != e2.shape:
        raise ShapeError(f"mse shapes differ: {e1.shape} vs {e2.shape}")
    diff = e1.value - e2.value
    n = diff.size
    out = Tensor(np.mean(diff * diff), (e1, e2))

    def backward(g):
        d = diff * (2.0 * g / n)
        e1._accumulate(d)
        e2._accumulate(-d)

    out._backward = backward
    return out
