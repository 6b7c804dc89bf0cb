import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awekit import tensorkit as tk
from awekit.errors import ShapeError, ValidationError


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

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(3)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(2, 2, 5, 5)))
            w = tk.Tensor(rng.normal(size=(3, 2, 3, 3)))
            target = tk.Tensor(rng.normal(size=(2, 3, 3, 3)))

            def loss_fn():
                return tk.mse(tk.conv2d(x, w, stride=(2, 2), pad=(1, 1)), target)

            err = tk.grad_check(loss_fn, {"x": x, "w": w})
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

            assert tk.grad_check(loss_fn, {"x": x}) < 1e-7


class TestBlockSoftmax:
    LAYOUT = tk.BlockLayout(((0, 2), (2, 4)))

    def test_equal_activations_first_block(self):
        out = tk.block_softmax(np.array([[1.0, 1.0, 2.0, 0.0]]), self.LAYOUT, [0])
        np.testing.assert_allclose(out[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_second_block_hand_values(self):
        out = tk.block_softmax(np.array([[1.0, 1.0, 2.0, 0.0]]), self.LAYOUT, [1])
        e2 = np.exp(2.0)
        np.testing.assert_allclose(
            out[0], [0.0, 0.0, e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-9
        )
        assert out[0, 2] == pytest.approx(0.88080, abs=1e-5)
        assert out[0, 3] == pytest.approx(0.11920, abs=1e-5)

    def test_single_block_equals_softmax(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 6)) * 3
        layout = tk.BlockLayout.single(6)
        out = tk.block_softmax(a, layout, np.zeros(50, int))
        e = np.exp(a - a.max(axis=1, keepdims=True))
        np.testing.assert_allclose(out, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_active_block_sums_to_one(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(20, 4)) * 10
        lang = rng.integers(0, 2, size=20)
        out = tk.block_softmax(a, self.LAYOUT, lang)
        for i in range(20):
            begin, end = self.LAYOUT.blocks[lang[i]]
            assert out[i, begin:end].sum() == pytest.approx(1.0, abs=1e-6)
            inactive = np.concatenate([out[i, :begin], out[i, end:]])
            assert (inactive == 0).all()

    @pytest.mark.parametrize("lang", [-1, 2])
    def test_language_outside_layout(self, lang):
        # -1 would otherwise index the last block and 2 past the end
        with pytest.raises(ValidationError, match="language ids"):
            tk.block_softmax(np.zeros((2, 4)), self.LAYOUT, [0, lang])
        with pytest.raises(ValidationError, match="language ids"):
            tk.block_cross_entropy(tk.Tensor(np.zeros((2, 4))), self.LAYOUT, [0, lang], [0, 0])

    def test_layout_validation(self):
        with pytest.raises(ValidationError):
            tk.BlockLayout(((0, 2), (3, 4)))  # gap
        with pytest.raises(ValidationError):
            tk.BlockLayout(((1, 2),))  # does not start at 0


class TestCrossEntropy:
    def test_two_class_equal_logits(self):
        logits = tk.Tensor(np.zeros((1, 2)))
        loss = tk.block_cross_entropy(logits, tk.BlockLayout.single(2), [0], [0])
        assert float(loss.value) == pytest.approx(np.log(2), abs=1e-6)
        assert float(loss.value) == pytest.approx(0.6931, abs=1e-4)

    def test_certain_prediction_loss_vanishes(self):
        logits = tk.Tensor(np.array([[50.0, 0.0]]))
        loss = tk.block_cross_entropy(logits, tk.BlockLayout.single(2), [0], [0])
        assert float(loss.value) < 1e-8

    def test_target_outside_active_block(self):
        layout = tk.BlockLayout(((0, 2), (2, 4)))
        with pytest.raises(ValidationError):
            tk.block_cross_entropy(tk.Tensor(np.zeros((1, 4))), layout, [0], [3])

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        with tk.float64_mode():
            logits = tk.Tensor(rng.normal(size=(3, 4)))
            layout = tk.BlockLayout.single(4)

            def loss_fn():
                return tk.block_cross_entropy(logits, layout, [0, 0, 0], [1, 3, 0])

            assert tk.grad_check(loss_fn, {"logits": logits}) < 1e-6

    def test_block_mode_gradient_is_zero_outside_active_block(self):
        rng = np.random.default_rng(10)
        with tk.float64_mode():
            layout = tk.BlockLayout(((0, 2), (2, 4)))
            logits = tk.Tensor(rng.normal(size=(2, 4)))
            loss = tk.block_cross_entropy(logits, layout, [0, 1], [1, 2])
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
        tk.sgd_nesterov_step(p, {"w": np.zeros(2)}, v, lr=0.1)
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

            assert tk.grad_check(loss_fn, {"w": w, "b": b}) < 1e-8

    def test_row_slices(self):
        # the split total_loss uses: two halves of one tensor, one row unused
        rng = np.random.default_rng(14)
        with tk.float64_mode():
            x = tk.Tensor(rng.normal(size=(5, 3)))

            def loss_fn():
                return tk.mse(x[:2], x[2:4])

            assert tk.grad_check(loss_fn, {"x": x}) < 1e-8
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

            assert tk.grad_check(loss_fn, {"x": x}) < 1e-6
