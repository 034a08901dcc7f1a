"""Numerics ops against hand-computed values and finite differences."""

import math

import numpy as np
import pytest

from lorabound import model, numerics
from lorabound.errors import DegenerateInputError, InputError, ShapeError

from helpers import fd_grad, rel_error
from oracles import gelu_fwd_oracle, rmsnorm_fwd_oracle, softmax_rows_oracle


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rows, cols = rng.integers(1, 9, size=2)
            x = rng.normal(0, 5, size=(rows, cols)).astype(np.float32)
            p = numerics.softmax_rows(x)
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(0, 3, size=(4, 6)).astype(np.float32)
            shift = rng.normal(0, 10)
            p0 = numerics.softmax_rows(x)
            p1 = numerics.softmax_rows(x + np.float32(shift))
            np.testing.assert_allclose(p0, p1, atol=1e-6)

    def test_extreme_values_stay_finite(self):
        x = np.array([[1e4, -1e4, 0.0]], dtype=np.float32)
        p = numerics.softmax_rows(x)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-6)


class TestRmsnorm:
    def test_hand_example(self):
        # mean square of [3, 4] is 12.5; output is the input / sqrt(12.5)
        x = np.array([[3.0, 4.0]], dtype=np.float32)
        gain = np.ones(2, dtype=np.float32)
        out = numerics.rmsnorm_fwd(x, gain, eps=0.0)[0]
        expected = np.array([[3.0, 4.0]]) / math.sqrt(12.5)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_gain_scales_elementwise(self):
        x = np.array([[3.0, 4.0]], dtype=np.float32)
        gain = np.array([2.0, 0.5], dtype=np.float32)
        out = numerics.rmsnorm_fwd(x, gain, eps=0.0)[0]
        expected = np.array([[6.0, 2.0]]) / math.sqrt(12.5)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_gain_shape_mismatch(self):
        with pytest.raises(ShapeError):
            numerics.rmsnorm_fwd(np.zeros((2, 3), dtype=np.float32),
                                 np.ones(4, dtype=np.float32))

    def test_grad_fd_float32(self):
        # 32-bit mode: epsilon 1e-3, relative error < 1e-3 on small tensors
        rng = np.random.default_rng(11)
        for trial in range(10):
            rows, d = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            x = rng.normal(0, 1, size=(rows, d)).astype(np.float32)
            gain = rng.normal(1, 0.3, size=d).astype(np.float32)
            c = rng.normal(0, 1, size=(rows, d)).astype(np.float32)

            def loss():
                return float(np.sum(c * numerics.rmsnorm_fwd(x, gain, eps=1e-5)[0]))

            _, inv = numerics.rmsnorm_fwd(x, gain, eps=1e-5)
            d_x, d_gain = numerics.rmsnorm_bwd(c, x, inv, gain)
            assert rel_error(d_x, fd_grad(loss, x, 1e-3)) < 1e-3
            assert rel_error(d_gain, fd_grad(loss, gain, 1e-3)) < 1e-3

    def test_grad_fd_float64(self):
        # 64-bit mode: epsilon 1e-5, relative error < 1e-6
        rng = np.random.default_rng(12)
        for trial in range(10):
            rows, d = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            x = rng.normal(0, 1, size=(rows, d))
            gain = rng.normal(1, 0.3, size=d)
            c = rng.normal(0, 1, size=(rows, d))

            def loss():
                return float(np.sum(c * numerics.rmsnorm_fwd(x, gain, eps=1e-5)[0]))

            _, inv = numerics.rmsnorm_fwd(x, gain, eps=1e-5)
            d_x, d_gain = numerics.rmsnorm_bwd(c, x, inv, gain)
            assert rel_error(d_x, fd_grad(loss, x, 1e-5)) < 1e-6
            assert rel_error(d_gain, fd_grad(loss, gain, 1e-5)) < 1e-6


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestInPlaceKernelsAgainstOracles:
    """The forward kernels build their results in reused buffers and take
    row maxima in another order; every output keeps the bits of the plain
    chain of fresh arrays."""

    # attention scores under a causal mask (rows shorter and longer than the
    # transposed-max cutoff), single-query decode rows, and vocab rows
    SHAPES = [(3, 4, 42, 42), (2, 4, 118, 118), (5, 4, 1, 43), (4, 3, 512)]

    @staticmethod
    def rows(shape, dtype, seed):
        x = np.random.default_rng(seed).normal(0, 4, size=shape).astype(dtype)
        if len(shape) == 4 and shape[-2] > 1:
            t = shape[-1]
            x += np.triu(np.full((t, t), -np.inf, dtype=dtype), k=1)
        flat = x.reshape(-1, shape[-1])
        flat[1] = np.nan                                    # a row of nan
        flat[2, 3] = np.nan                                 # one nan in a row
        flat[4] = np.where(np.arange(shape[-1]) % 2, 0.0, -0.0)   # a row of +-0.0
        flat[5] = -np.inf
        flat[5, shape[-1] // 2] = 1.5                       # -inf but for one entry
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_softmax_rows(self, shape, dtype):
        x = self.rows(shape, dtype, seed=sum(shape))
        want = softmax_rows_oracle(x)
        assert_same_bytes(numerics.softmax_rows(x), want)
        assert_same_bytes(numerics.softmax_rows(x, out=x), want)    # in place

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 42, 64), (16, 4, 64), (1, 2, 64), (3, 7),
                                       (5, 13), (2, 100), (6, 256), (64,)])
    def test_rmsnorm_fwd(self, shape, dtype):
        rng = np.random.default_rng(shape[-1])
        x = rng.normal(0, 2, size=shape).astype(dtype)
        x.reshape(-1, shape[-1])[0, :3] = [0.0, -0.0, 1e-20]
        gain = rng.normal(1, 0.3, size=shape[-1]).astype(dtype)
        before = x.copy()
        y, inv = numerics.rmsnorm_fwd(x, gain, eps=1e-5)
        want_y, want_inv = rmsnorm_fwd_oracle(x, gain, 1e-5)
        assert_same_bytes(y, want_y)
        assert_same_bytes(inv, want_inv)
        assert_same_bytes(x, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_fwd(self, dtype):
        x = np.random.default_rng(41).normal(0.0, 3.0, size=(4, 47, 256)).astype(dtype)
        x[0, 0, :4] = [0.0, -0.0, 30.0, -30.0]
        want_y, want_th = gelu_fwd_oracle(x)
        y, th = model._gelu_fwd(x.copy())
        assert_same_bytes(y, want_y)
        assert_same_bytes(th, want_th)
        spent = x.copy()
        y, th = model._gelu_fwd(spent, keep_th=False)
        assert th is None and y is spent        # built in its input's buffer
        assert_same_bytes(y, want_y)


class TestCrossEntropy:
    def test_hand_example(self):
        # two classes with logits [0, ln 3] put 3/4 on class 1
        logits = np.array([[[0.0, math.log(3.0)]]], dtype=np.float32)
        loss, grad = numerics.cross_entropy_grad(logits, np.array([[1]]), np.array([[True]]))
        assert abs(loss - (-math.log(0.75))) < 1e-6
        np.testing.assert_allclose(grad, [[[0.25, -0.25]]], atol=1e-6)

    def test_mean_over_unmasked_only(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1, 6, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=(1, 6))
        mask = np.array([[True, False, True, True, False, False]])
        loss, grad = numerics.cross_entropy_grad(logits, targets, mask)
        # masked rows contribute nothing
        assert np.all(grad[~mask] == 0.0)
        per_row = []
        for i in np.flatnonzero(mask):
            l_i, _ = numerics.cross_entropy_grad(
                logits[:, i:i + 1], targets[:, i:i + 1], np.array([[True]]))
            per_row.append(l_i)
        assert abs(loss - np.mean(per_row)) < 1e-9

    def test_all_masked_is_degenerate(self):
        logits = np.zeros((1, 3, 4), dtype=np.float32)
        with pytest.raises(DegenerateInputError):
            numerics.cross_entropy_grad(logits, np.zeros((1, 3), dtype=int),
                                        np.zeros((1, 3), dtype=bool))

    def test_bad_target_ids(self):
        logits = np.zeros((1, 2, 4), dtype=np.float32)
        mask = np.ones((1, 2), dtype=bool)
        with pytest.raises(InputError):
            numerics.cross_entropy_grad(logits, np.array([[0, 4]]), mask)
        with pytest.raises(InputError):
            numerics.cross_entropy_grad(logits, np.array([[-1, 0]]), mask)

    def test_grad_fd_float32(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            t, v = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            logits = rng.normal(0, 1, size=(1, t, v)).astype(np.float32)
            targets = rng.integers(0, v, size=(1, t))
            mask = rng.random((1, t)) < 0.7
            if not mask.any():
                mask[0, 0] = True

            def loss():
                l, _ = numerics.cross_entropy_grad(logits, targets, mask)
                return l

            _, grad = numerics.cross_entropy_grad(logits, targets, mask)
            assert rel_error(grad, fd_grad(loss, logits, 1e-3)) < 1e-3

    def test_grad_fd_float64(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            t, v = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            logits = rng.normal(0, 1, size=(1, t, v))
            targets = rng.integers(0, v, size=(1, t))
            mask = rng.random((1, t)) < 0.7
            if not mask.any():
                mask[0, 0] = True

            def loss():
                l, _ = numerics.cross_entropy_grad(logits, targets, mask)
                return l

            _, grad = numerics.cross_entropy_grad(logits, targets, mask)
            assert rel_error(grad, fd_grad(loss, logits, 1e-5)) < 1e-6


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        rng = np.random.default_rng(9)
        p = rng.normal(size=(4, 3)).astype(np.float32)
        g = rng.normal(size=(4, 3)).astype(np.float32)
        before = p.copy()
        state = numerics.AdamState(lr=1e-2)
        numerics.adam_step({"p": p}, {"p": g}, state)
        step = p - before
        np.testing.assert_allclose(step, -1e-2 * np.sign(g), atol=1e-6)

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(10)
        p1 = rng.normal(size=(5,)).astype(np.float32)
        p2 = p1.copy()
        grads = [rng.normal(size=(5,)).astype(np.float32) for _ in range(4)]
        s1 = numerics.AdamState(lr=3e-3)
        s2 = numerics.AdamState(lr=3e-3)
        for g in grads:
            numerics.adam_step({"p": p1}, {"p": g.copy()}, s1)
        for g in grads:
            numerics.adam_step({"p": p2}, {"p": g.copy()}, s2)
        np.testing.assert_array_equal(p1, p2)

    def test_untouched_params_keep_values(self):
        p = np.ones(3, dtype=np.float32)
        q = np.ones(3, dtype=np.float32)
        state = numerics.AdamState(lr=1e-2)
        numerics.adam_step({"p": p, "q": q}, {"p": np.ones(3, dtype=np.float32)}, state)
        np.testing.assert_array_equal(q, np.ones(3, dtype=np.float32))
        assert "q" not in state.m

    def test_unknown_grad_key(self):
        state = numerics.AdamState()
        with pytest.raises(InputError):
            numerics.adam_step({}, {"nope": np.ones(1, dtype=np.float32)}, state)

    def test_hand_checked_two_steps(self):
        # scalar parameter, lr 0.1, grads 1.0 then 0.5, default betas
        p = np.array([1.0], dtype=np.float32)
        state = numerics.AdamState(lr=0.1)
        numerics.adam_step({"p": p}, {"p": np.array([1.0], dtype=np.float32)}, state)
        numerics.adam_step({"p": p}, {"p": np.array([0.5], dtype=np.float32)}, state)
        m2 = 0.9 * (0.1 * 1.0) + 0.1 * 0.5
        v2 = 0.999 * (0.001 * 1.0) + 0.001 * 0.25
        mhat = m2 / (1 - 0.9**2)
        vhat = v2 / (1 - 0.999**2)
        expected = (1.0 - 0.1 * 1.0) - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        # first step is exactly -lr * sign(g) up to eps
        assert abs(float(p[0]) - expected) < 1e-6


class TestClip:
    def test_clip_rescales_to_max_norm(self):
        g = {"a": np.array([3.0, 4.0], dtype=np.float32)}
        norm = numerics.clip_by_global_norm(g, 1.0)
        assert abs(norm - 5.0) < 1e-6
        np.testing.assert_allclose(g["a"], [0.6, 0.8], rtol=1e-6)

    def test_no_clip_below_threshold(self):
        g = {"a": np.array([0.3, 0.4], dtype=np.float32)}
        numerics.clip_by_global_norm(g, 1.0)
        np.testing.assert_allclose(g["a"], [0.3, 0.4], rtol=1e-7)
