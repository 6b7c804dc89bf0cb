import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from gradcheck import grad_check

from awekit import model, tensorkit as tk
from awekit.errors import ShapeError, ValidationError
from awekit.features import FeatureSequence


def conv2d_oracle(x, w, stride, pad):
    """Quadruple-loop direct cross-correlation."""
    b, c, f, t = x.shape
    o, _, kf, kt = w.shape
    sf, st_ = stride
    pf, pt = pad
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    of = (f + 2 * pf - kf) // sf + 1
    ot = (t + 2 * pt - kt) // st_ + 1
    out = np.zeros((b, o, of, ot))
    for bi in range(b):
        for oi in range(o):
            for i in range(of):
                for j in range(ot):
                    patch = xp[bi, :, i * sf : i * sf + kf, j * st_ : j * st_ + kt]
                    out[bi, oi, i, j] = (patch * w[oi]).sum()
    return out


def conv2d_backward_oracle(x, w, stride, pad, g):
    """(dW, dX) of sum(g * conv2d(x, w)) by loops over the output positions."""
    b, c, f, t = x.shape
    o, _, kf, kt = w.shape
    sf, st_ = stride
    pf, pt = pad
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    dw, dxp = np.zeros_like(w), np.zeros_like(xp)
    for bi in range(b):
        for oi in range(o):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    rows, cols = slice(i * sf, i * sf + kf), slice(j * st_, j * st_ + kt)
                    dw[oi] += g[bi, oi, i, j] * xp[bi, :, rows, cols]
                    dxp[bi, :, rows, cols] += g[bi, oi, i, j] * w[oi]
    return dw, dxp[:, :, pf : pf + f, pt : pt + t]


# Reference kernels: the first versions of conv2d, maxpool2x2 and relu,
# which pad with np.pad and mask with np.where. The kernels must give the
# same bits: the same GEMM operands and the same summation order keep
# same-seed training byte-identical across rewrites.


def im2col_reference(xp, kf, kt, sf, st_, of, ot):
    b, c, _, _ = xp.shape
    patches = np.empty((b, c, kf, kt, of, ot), dtype=xp.dtype)
    for i in range(kf):
        for j in range(kt):
            patches[:, :, i, j] = xp[:, :, i : i + sf * of : sf, j : j + st_ * ot : st_]
    return patches.reshape(b, c * kf * kt, of * ot)


def conv2d_reference(x, w, stride, pad):
    """(out, backward): one matmul per item on a batch-major im2col; the
    backward returns (dW by tensordot, dX by a tap-by-tap scatter-add)."""
    sf, st_ = stride
    pf, pt = pad
    b, c, f, t = x.shape
    o, _, kf, kt = w.shape
    of = (f + 2 * pf - kf) // sf + 1
    ot = (t + 2 * pt - kt) // st_ + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    cols = im2col_reference(xp, kf, kt, sf, st_, of, ot)
    w2 = w.reshape(o, c * kf * kt)

    def backward(g):
        g2 = g.reshape(b, o, of * ot)
        dw = np.tensordot(g2, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
        dpatches = np.matmul(w2.T, g2).reshape(b, c, kf, kt, of, ot)
        dxp = np.zeros_like(xp)
        for i in range(kf):
            for j in range(kt):
                dxp[:, :, i : i + sf * of : sf, j : j + st_ * ot : st_] += dpatches[:, :, i, j]
        return dw, dxp[:, :, pf : pf + f, pt : pt + t]

    return np.matmul(w2, cols).reshape(b, o, of, ot), backward


def maxpool2x2_reference(x):
    """(out, backward): argmax over each window's four taps, ceil mode; the
    backward returns dX."""
    b, c, f, t = x.shape
    of, ot = (f + 1) // 2, (t + 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (0, 2 * of - f), (0, 2 * ot - t)), constant_values=-np.inf)
    windows = (
        xp.reshape(b, c, of, 2, ot, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, of, ot, 4)
    )
    arg = windows.argmax(axis=-1)

    def backward(g):
        dwin = np.zeros_like(windows)
        np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
        dxp = dwin.reshape(b, c, of, ot, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return dxp.reshape(b, c, 2 * of, 2 * ot)[:, :, :f, :t]

    return np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0], backward


def relu_reference(x):
    """(out, backward): np.where on the mask x > 0; the backward returns dX."""
    mask = x > 0
    return np.where(mask, x, 0.0), lambda g: g * mask


def assert_same_bits(actual, expected):
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    bits = f"u{actual.itemsize}"
    np.testing.assert_array_equal(actual.view(bits), expected.view(bits))


def check_conv2d_bits(rng, x, w, stride, pad):
    """conv2d's output, dW and dX have the reference's bits."""
    out_ref, backward_ref = conv2d_reference(x, w, stride, pad)
    g = rng.normal(size=out_ref.shape).astype(x.dtype)
    xt, wt = tk.Tensor(x), tk.Tensor(w)
    out = tk.conv2d(xt, wt, stride=stride, pad=pad)
    out._backward(g)
    dw_ref, dx_ref = backward_ref(g)
    assert_same_bits(out.value, out_ref)
    assert_same_bits(wt.grad, dw_ref)
    assert_same_bits(xt.grad, dx_ref)


def check_maxpool2x2_values_and_gradient(rng, x):
    """maxpool2x2 gives the reference's values and routes the gradient to
    the same elements with the same bits. The sign of a zero maximum is
    not compared: np.maximum may return either of two equal zeros."""
    out_ref, backward_ref = maxpool2x2_reference(x)
    g = rng.normal(size=out_ref.shape).astype(x.dtype)
    g.flat[::3] = -0.0
    xt = tk.Tensor(x)
    out = tk.maxpool2x2(xt)
    out._backward(g)
    np.testing.assert_array_equal(out.value, out_ref)
    assert_same_bits(xt.grad, backward_ref(g))


def check_relu_bits(rng, x):
    """relu's output and dX have the reference's bits."""
    out_ref, backward_ref = relu_reference(x)
    g = rng.normal(size=x.shape).astype(x.dtype)
    g.flat[::3] = -0.0
    xt = tk.Tensor(x)
    out = tk.relu(xt)
    out._backward(g)
    assert_same_bits(out.value, out_ref)
    assert_same_bits(xt.grad, backward_ref(g))


def model_layer_calls(t_frames):
    """(op, input shape without the batch, conv2d's weight shape, stride and
    pad) of each conv2d, maxpool2x2 and relu call of the default network."""
    cfg = model.ModelConfig()
    calls = []
    conv2d, maxpool2x2, relu = tk.conv2d, tk.maxpool2x2, tk.relu

    def record_conv2d(x, w, stride, pad):
        calls.append(("conv2d", x.shape[1:], w.shape, stride, pad))
        return conv2d(x, w, stride, pad)

    def record_maxpool2x2(x):
        calls.append(("maxpool2x2", x.shape[1:]))
        return maxpool2x2(x)

    def record_relu(x):
        calls.append(("relu", x.shape[1:]))
        return relu(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tk, "conv2d", record_conv2d)
        mp.setattr(tk, "maxpool2x2", record_maxpool2x2)
        mp.setattr(tk, "relu", record_relu)
        seq = FeatureSequence(frames=np.zeros((t_frames, cfg.input_dim), dtype=np.float32))
        model.forward(model.build_network(cfg), cfg, [seq])
    return calls


def relu_like(rng, shape):
    """float32 activations with the +0.0 ties a ReLU leaves."""
    return np.maximum(rng.normal(size=shape), 0.0).astype(np.float32)


def conv_like(rng, shape):
    """float32 pre-activations: a quarter of them +0.0, as a convolution
    gives over zero frames."""
    x = rng.normal(size=shape).astype(np.float32)
    x.flat[::4] = 0.0
    return x


# Values that put both zeros, both infinities and ties into a kernel's input.
SPECIAL = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf], dtype=np.float32)


def special_like(rng, shape):
    x = rng.normal(size=shape).astype(np.float32)
    pick = rng.random(size=shape) < 0.5
    x[pick] = SPECIAL[rng.integers(0, len(SPECIAL), size=int(pick.sum()))]
    return x


class TestKernelsMatchReference:
    @pytest.mark.parametrize("t_frames", [*range(24, 42), 80])
    @pytest.mark.parametrize("batch", [2, 48, 64])
    def test_model_layers(self, batch, t_frames):
        rng = np.random.default_rng(batch * 100 + t_frames)
        calls = model_layer_calls(t_frames)
        ops = [call[0] for call in calls]
        assert (ops.count("conv2d"), ops.count("maxpool2x2"), ops.count("relu")) == (12, 1, 9)
        for op, shape, *conv_args in calls:
            if op == "maxpool2x2":
                check_maxpool2x2_values_and_gradient(rng, relu_like(rng, (batch, *shape)))
            elif op == "relu":
                check_relu_bits(rng, conv_like(rng, (batch, *shape)))
            else:
                w_shape, stride, pad = conv_args
                x = relu_like(rng, (batch, *shape))
                check_conv2d_bits(rng, x, rng.normal(size=w_shape).astype(np.float32), stride, pad)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_shapes(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        kf, kt = (data.draw(st.sampled_from((1, 3, 7))) for _ in range(2))
        pf, pt = (data.draw(st.integers(0, 3)) for _ in range(2))
        # even and odd F and T, at least the kernel once padded
        f = data.draw(st.integers(max(1, kf - 2 * pf), 15))
        t = data.draw(st.integers(max(1, kt - 2 * pt), 15))
        stride = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
        b, c, o = (data.draw(st.integers(1, 5)) for _ in range(3))
        x = relu_like(rng, (b, c, f, t))
        x.flat[:: data.draw(st.integers(2, 5))] = -0.0
        w = rng.normal(size=(o, c, kf, kt)).astype(np.float32)
        check_conv2d_bits(rng, x, w, stride, (pf, pt))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_pool_and_relu_inputs(self, data):
        # even and odd F and T; values with both zeros and infinities
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        shape = tuple(data.draw(st.integers(1, n)) for n in (3, 3, 11, 11))
        x = special_like(rng, shape)
        check_maxpool2x2_values_and_gradient(rng, x)
        check_relu_bits(rng, x)

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,pad",
        [
            ((2, 4, 5, 1), (1, 4, 1, 1), (2, 1), (0, 0)),  # O = 1
            ((3, 2, 1, 3), (1, 2, 1, 3), (2, 2), (0, 0)),  # O = 1, oF*oT = 1
            ((4, 1, 1, 1), (4, 1, 3, 1), (2, 2), (1, 0)),  # oF*oT = 1
            ((4, 1, 1, 1), (4, 1, 1, 1), (1, 1), (1, 1)),  # C*kF*kT = 1
            ((3, 1, 2, 2), (3, 1, 1, 1), (2, 2), (0, 0)),  # C*kF*kT = 1, oF*oT = 1
        ],
    )
    def test_gemm_dimension_of_one(self, x_shape, w_shape, stride, pad):
        # matmul takes its vector paths here, whose rounding depends on strides
        for seed in range(2):
            rng = np.random.default_rng(seed)
            x = relu_like(rng, x_shape)
            check_conv2d_bits(rng, x, rng.normal(size=w_shape).astype(np.float32), stride, pad)

    @pytest.mark.parametrize("seed", range(4))
    def test_maxpool_ties(self, seed):
        # windows with 2-4 equal maxima, -0.0/0.0 pairs, and partial edge
        # windows (odd F and T) whose -inf padding ties an input -inf
        rng = np.random.default_rng(seed)
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0], dtype=np.float32)
        x = values[rng.integers(0, len(values), size=(3, 2, 7, 9))]
        x[0, 0] = -0.0
        x[0, 0, ::2, ::2] = 0.0
        x[0, 1] = -np.inf
        check_maxpool2x2_values_and_gradient(rng, x)

    def test_input_without_grad(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 1, 9, 11)).astype(np.float32)
        w = tk.Tensor(rng.normal(size=(4, 1, 7, 7)).astype(np.float32))
        g = rng.normal(size=(3, 4, 5, 6)).astype(np.float32)
        w_grads = []
        for requires_grad in (True, False):
            xt = tk.Tensor(x, requires_grad=requires_grad)
            w.grad = None
            out = tk.conv2d(xt, w, stride=(2, 2), pad=(3, 3))
            out._backward(g)
            assert (xt.grad is None) != requires_grad
            w_grads.append(w.grad)
        assert_same_bits(w_grads[1], w_grads[0])


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 5))
        w = np.ones((1, 1, 1, 1))
        out = tk.conv2d(tk.Tensor(x), tk.Tensor(w))
        np.testing.assert_allclose(out.value, x, rtol=1e-6)

    def test_zero_input(self):
        w = np.random.default_rng(1).normal(size=(3, 2, 3, 3))
        out = tk.conv2d(tk.Tensor(np.zeros((2, 2, 6, 6))), tk.Tensor(w), pad=(1, 1))
        assert (out.value == 0).all()

    def test_strided_against_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 2, 2))
        with tk.float64_mode():
            out = tk.conv2d(tk.Tensor(x), tk.Tensor(w), stride=(2, 2))
        np.testing.assert_allclose(out.value, conv2d_oracle(x, w, (2, 2), (0, 0)), atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_shapes_against_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        b = data.draw(st.integers(1, 3))
        c = data.draw(st.integers(1, 3))
        o = data.draw(st.integers(1, 3))
        kf = data.draw(st.integers(1, 3))
        kt = data.draw(st.integers(1, 3))
        f = data.draw(st.integers(kf, 8))
        t = data.draw(st.integers(kt, 8))
        stride = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
        pad = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1)))
        x = rng.normal(size=(b, c, f, t))
        w = rng.normal(size=(o, c, kf, kt))
        with tk.float64_mode():
            out = tk.conv2d(tk.Tensor(x), tk.Tensor(w), stride=stride, pad=pad)
        np.testing.assert_allclose(out.value, conv2d_oracle(x, w, stride, pad), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tk.conv2d(tk.Tensor(np.zeros((1, 2, 4, 4))), tk.Tensor(np.zeros((1, 3, 2, 2))))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            tk.conv2d(tk.Tensor(np.zeros((1, 1, 2, 2))), tk.Tensor(np.zeros((1, 1, 5, 5))))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_backward_against_brute_force(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        b, c, o = (data.draw(st.integers(1, 3)) for _ in range(3))
        kf, kt = (data.draw(st.integers(1, 4)) for _ in range(2))
        pad = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        f = data.draw(st.integers(max(1, kf - 2 * pad[0]), 9))
        t = data.draw(st.integers(max(1, kt - 2 * pad[1]), 9))
        stride = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
        xv = rng.normal(size=(b, c, f, t))
        wv = rng.normal(size=(o, c, kf, kt))
        with tk.float64_mode():
            x, w = tk.Tensor(xv), tk.Tensor(wv)
            out = tk.conv2d(x, w, stride=stride, pad=pad)
            g = rng.normal(size=out.shape)
            out._backward(g)
        dw, dx = conv2d_backward_oracle(xv, wv, stride, pad, g)
        np.testing.assert_allclose(w.grad, dw, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-12)

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(3)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(2, 2, 5, 5)))
            w = tk.Tensor(rng.normal(size=(3, 2, 3, 3)))
            target = tk.Tensor(rng.normal(size=(2, 3, 3, 3)))

            def loss_fn():
                return tk.mse(tk.conv2d(x, w, stride=(2, 2), pad=(1, 1)), target)

            err = grad_check(loss_fn, {"x": x, "w": w})
        assert err < 1e-6


class TestGapMasked:
    def test_constant_input(self):
        x = np.full((2, 3, 4, 5), 2.5)
        out = tk.gap_masked(tk.Tensor(x), [5, 5])
        np.testing.assert_allclose(out.value, 2.5, rtol=1e-6)

    def test_hand_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4)
        out = tk.gap_masked(tk.Tensor(x), [2])
        assert out.value[0, 0] == pytest.approx(1.5)

    def test_full_length_equals_unmasked_mean(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 6))
        out = tk.gap_masked(tk.Tensor(x), [6, 6])
        np.testing.assert_allclose(out.value, x.mean(axis=(2, 3)), rtol=1e-5)

    def test_padding_beyond_valid_is_ignored(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 3, 4))
        padded = np.concatenate([x, np.zeros((1, 2, 3, 3))], axis=3)
        a = tk.gap_masked(tk.Tensor(x), [4]).value
        b = tk.gap_masked(tk.Tensor(padded), [4]).value
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_out_of_range_valid(self):
        with pytest.raises(ValidationError):
            tk.gap_masked(tk.Tensor(np.zeros((1, 1, 2, 3))), [4])

    def test_gradient(self):
        rng = np.random.default_rng(6)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(2, 2, 3, 5)))
            target = tk.Tensor(rng.normal(size=(2, 2)))

            def loss_fn():
                return tk.mse(tk.gap_masked(x, [3, 5]), target)

            assert grad_check(loss_fn, {"x": x}) < 1e-7


class TestBlockSoftmax:
    SIZES = (2, 2)

    def test_equal_activations_first_block(self):
        out = tk.block_softmax(np.array([[1.0, 1.0, 2.0, 0.0]]), self.SIZES, [0])
        np.testing.assert_allclose(out[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_second_block_hand_values(self):
        out = tk.block_softmax(np.array([[1.0, 1.0, 2.0, 0.0]]), self.SIZES, [2])
        e2 = np.exp(2.0)
        np.testing.assert_allclose(
            out[0], [0.0, 0.0, e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-9
        )
        assert out[0, 2] == pytest.approx(0.88080, abs=1e-5)
        assert out[0, 3] == pytest.approx(0.11920, abs=1e-5)

    def test_single_block_equals_softmax(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 6)) * 3
        out = tk.block_softmax(a, (6,), np.zeros(50, int))
        e = np.exp(a - a.max(axis=1, keepdims=True))
        np.testing.assert_allclose(out, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_active_block_sums_to_one(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(20, 4)) * 10
        targets = rng.integers(0, 4, size=20)
        out = tk.block_softmax(a, self.SIZES, targets)
        for i in range(20):
            begin = 2 * (targets[i] // 2)
            assert out[i, begin : begin + 2].sum() == pytest.approx(1.0, abs=1e-6)
            inactive = np.concatenate([out[i, :begin], out[i, begin + 2 :]])
            assert (inactive == 0).all()

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_outside_layout(self, target):
        # -1 would otherwise index the last column and 4 past the end
        with pytest.raises(ValidationError, match=r"outside \[0, 4\)"):
            tk.block_softmax(np.zeros((2, 4)), self.SIZES, [0, target])
        with pytest.raises(ValidationError, match=r"outside \[0, 4\)"):
            tk.block_cross_entropy(tk.Tensor(np.zeros((2, 4))), self.SIZES, [0, target])

    def test_logits_wider_than_layout(self):
        with pytest.raises(ShapeError, match="block sizes"):
            tk.block_softmax(np.zeros((2, 5)), self.SIZES, [0, 0])


class TestCrossEntropy:
    def test_two_class_equal_logits(self):
        logits = tk.Tensor(np.zeros((1, 2)))
        loss = tk.block_cross_entropy(logits, (2,), [0])
        assert float(loss.value) == pytest.approx(np.log(2), abs=1e-6)
        assert float(loss.value) == pytest.approx(0.6931, abs=1e-4)

    def test_certain_prediction_loss_vanishes(self):
        logits = tk.Tensor(np.array([[50.0, 0.0]]))
        loss = tk.block_cross_entropy(logits, (2,), [0])
        assert float(loss.value) < 1e-8

    def test_hand_computed_over_both_blocks(self):
        """Each row's loss is logsumexp over the block of its target minus
        the target's logit: columns 0-1 for targets 0-1, 2-4 for 2-4."""
        rng = np.random.default_rng(15)
        targets = [0, 4, 1, 2, 3, 2]
        with tk.float64_mode():
            logits = rng.normal(size=(6, 5)) * 3
            loss = tk.block_cross_entropy(tk.Tensor(logits), (2, 3), targets)
        expected = [
            np.log(np.exp(row[:2] if t < 2 else row[2:]).sum()) - row[t]
            for row, t in zip(logits, targets)
        ]
        assert abs(float(loss.value) - np.mean(expected)) < 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        with tk.float64_mode():
            logits = tk.Tensor(rng.normal(size=(3, 4)))

            def loss_fn():
                return tk.block_cross_entropy(logits, (4,), [1, 3, 0])

            assert grad_check(loss_fn, {"logits": logits}) < 1e-6

    def test_block_mode_gradient_is_zero_outside_active_block(self):
        rng = np.random.default_rng(10)
        with tk.float64_mode():
            logits = tk.Tensor(rng.normal(size=(2, 4)))
            loss = tk.block_cross_entropy(logits, (2, 2), [1, 2])
            loss.backward()
        assert (logits.grad[0, 2:] == 0).all()
        assert (logits.grad[1, :2] == 0).all()


class TestMse:
    def test_zero_distance(self):
        a = tk.Tensor(np.array([1.0, 2.0]))
        assert float(tk.mse(a, tk.Tensor(np.array([1.0, 2.0]))).value) == 0.0

    def test_hand_values(self):
        one = tk.mse(tk.Tensor([1.0, 0.0]), tk.Tensor([0.0, 1.0]))
        assert float(one.value) == pytest.approx(1.0)
        four = tk.mse(tk.Tensor([2.0, 2.0]), tk.Tensor([0.0, 0.0]))
        assert float(four.value) == pytest.approx(4.0)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert float(tk.mse(tk.Tensor(a), tk.Tensor(b)).value) == pytest.approx(
            float(tk.mse(tk.Tensor(b), tk.Tensor(a)).value)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tk.mse(tk.Tensor(np.zeros(3)), tk.Tensor(np.zeros(4)))

    def test_backward_formula(self):
        with tk.float64_mode():
            a = tk.Tensor(np.array([3.0, 1.0]))
            b = tk.Tensor(np.array([1.0, 1.0]))
            loss = tk.mse(a, b)
            loss.backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0])  # (2/d)(a-b)
        np.testing.assert_allclose(b.grad, [-2.0, 0.0])


class TestNesterov:
    def test_zero_gradient_fixed_point(self):
        p = {"w": np.array([1.0, 2.0])}
        v = {"w": np.zeros(2)}
        tk.sgd_nesterov_step(p, {"w": np.zeros(2)}, v, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p["w"], [1.0, 2.0])

    def test_plain_sgd_step_on_quadratic(self):
        # f(x) = x^2 at x=1, grad 2, lr 0.1, momentum 0 -> 0.8
        p = {"w": np.array([1.0])}
        v = {"w": np.zeros(1)}
        tk.sgd_nesterov_step(p, {"w": np.array([2.0])}, v, lr=0.1, momentum=0.0)
        assert p["w"][0] == pytest.approx(0.8)

    def test_converges_on_quadratic_bowl(self):
        p = {"w": np.array([1.0])}
        v = {"w": np.zeros(1)}
        for _ in range(100):
            tk.sgd_nesterov_step(p, {"w": 2.0 * p["w"]}, v, lr=0.05, momentum=0.9)
        assert abs(p["w"][0]) < 1e-3


class TestMaxpool:
    def test_values_and_ceil_mode(self):
        x = np.arange(12, dtype=float).reshape(1, 1, 3, 4)
        out = tk.maxpool2x2(tk.Tensor(x))
        assert out.value.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out.value[0, 0], [[5, 7], [9, 11]])

    def test_gradient_routes_to_argmax(self):
        with tk.float64_mode():
            x = tk.Tensor(np.array([[[[1.0, 3.0], [2.0, 0.0]]]]))
            out = tk.maxpool2x2(x)
            target = tk.Tensor(np.zeros((1, 1, 1, 1)))
            tk.mse(out, target).backward()
        np.testing.assert_allclose(x.grad[0, 0], [[0.0, 6.0], [0.0, 0.0]])


class TestGradCheck:
    def test_linear_layer_exact(self):
        rng = np.random.default_rng(12)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(3, 4)))
            w = tk.Tensor(rng.normal(size=(4, 2)))
            b = tk.Tensor(np.zeros(2))
            target = tk.Tensor(rng.normal(size=(3, 2)))

            def loss_fn():
                return tk.mse(tk.linear(x, w, b), target)

            assert grad_check(loss_fn, {"w": w, "b": b}) < 1e-8

    def test_row_slices(self):
        # the split total_loss uses: two halves of one tensor, one row unused
        rng = np.random.default_rng(14)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(5, 3)))

            def loss_fn():
                return tk.mse(x[:2], x[2:4])

            assert grad_check(loss_fn, {"x": x}) < 1e-8
        np.testing.assert_array_equal(x.grad[4], 0.0)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=(2, 5))
        vals[np.abs(vals) < 0.2] += 0.5  # keep probes away from 0
        with tk.float64_mode():
            x = tk.Tensor(vals)
            target = tk.Tensor(rng.normal(size=(2, 5)))

            def loss_fn():
                return tk.mse(tk.relu(x), target)

            assert grad_check(loss_fn, {"x": x}) < 1e-6
