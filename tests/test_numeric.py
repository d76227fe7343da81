import math

import numpy as np
import pytest

from dialoglm.errors import NumericalError
from dialoglm.numeric import (add_outers, affine_tanh, clip_global_norm, global_norm,
                              grad_check, log_softmax, matvecs, softmax, zero_grads)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, rtol=1e-12)

    def test_two_point_closed_form(self):
        # independent closed form: [1/(1+e^c), e^c/(1+e^c)] for scores [x, x+c]
        c = 1.0
        expected = [1.0 / (1.0 + math.exp(c)), math.exp(c) / (1.0 + math.exp(c))]
        np.testing.assert_allclose(softmax([3.2, 3.2 + c]), expected, atol=1e-5)
        np.testing.assert_allclose(softmax([3.2, 4.2]), [0.26894, 0.73106], atol=1e-5)

    def test_no_overflow_on_extreme_scores(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=rng.integers(1, 30)) * 10
            p = softmax(s)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0) and np.all(p <= 1.0)
            shifted = softmax(s + 123.456)
            np.testing.assert_allclose(shifted, p, atol=1e-9)
            assert np.argmax(shifted) == np.argmax(p)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(NumericalError):
            softmax([])
        with pytest.raises(NumericalError):
            softmax([1.0, np.nan])
        with pytest.raises(NumericalError):
            softmax([np.inf, 0.0])

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=12) * 5
        np.testing.assert_allclose(np.exp(log_softmax(s)), softmax(s), atol=1e-12)


class TestAffineTanh:
    def test_zero_inputs(self):
        out = affine_tanh(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_identity_case(self):
        H = np.eye(4)
        h = np.full(4, 0.5)
        out = affine_tanh(H, h, np.zeros((4, 2)), np.zeros(2))
        np.testing.assert_allclose(out, math.tanh(0.5), atol=1e-5)
        assert abs(out[0] - 0.46212) < 1e-5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(4, 4))
        P = rng.normal(size=(4, 5))
        h = rng.normal(size=4)
        e = rng.normal(size=5)
        # element-by-element reimplementation
        expected = np.empty(4)
        for i in range(4):
            acc = 0.0
            for j in range(4):
                acc += H[i, j] * h[j]
            for j in range(5):
                acc += P[i, j] * e[j]
            expected[i] = math.tanh(acc)
        np.testing.assert_allclose(affine_tanh(H, h, P, e), expected, rtol=0, atol=1e-15)

    def test_range_and_finite(self):
        rng = np.random.default_rng(4)
        out = affine_tanh(rng.normal(size=(6, 6)) * 50, rng.normal(size=6),
                          rng.normal(size=(6, 3)) * 50, rng.normal(size=3))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(NumericalError):
            affine_tanh(np.zeros((3, 3)), np.zeros(4), np.zeros((3, 2)), np.zeros(2))


class TestBatchedProducts:
    """The batched kernels must round exactly like the per-row products."""

    def test_matvecs_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n, d, m = (int(x) for x in rng.integers(1, 90, size=3))
            if trial % 3 == 0:
                d = int(rng.integers(1, 3))
            A = rng.normal(size=(d, m))
            X = rng.normal(size=(n, m))
            Y = rng.normal(size=(n, d))
            assert matvecs(A, X).tobytes() == np.array([A @ x for x in X]).tobytes()
            assert matvecs(A.T, Y).tobytes() == np.array([A.T @ y for y in Y]).tobytes()
            rows = rng.integers(0, n, size=n)
            assert (matvecs(A.T, Y[rows][::-1]).tobytes()
                    == np.array([A.T @ Y[r] for r in rows[::-1]]).tobytes())
        assert matvecs(np.ones((3, 4)), np.empty((0, 4))).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(5, 7), (64, 64), (7, 1), (1, 1), (40, 900)])
    def test_add_outers_bitwise_equal_to_loop(self, shape):
        rng = np.random.default_rng(1)
        for start in (np.zeros(shape), rng.normal(size=shape)):
            A = rng.normal(size=(30, shape[0]))
            B = rng.normal(size=(30, shape[1]))
            A[3] = -0.0
            want = start.copy()
            for a, b in zip(A, B):
                want += np.outer(a, b)
            got = start.copy()
            add_outers(got, A, B)
            assert got.tobytes() == want.tobytes()


class TestGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(5)
        params = {"p": rng.normal(size=(4, 3)), "q": rng.normal(size=5)}

        def loss():
            return float(sum((v ** 2).sum() for v in params.values()))

        analytic = {k: 2.0 * v for k, v in params.items()}
        assert grad_check(loss, params, analytic) < 1e-7

    def test_flags_wrong_gradient(self):
        params = {"p": np.array([1.0, 2.0])}
        analytic = {"p": np.array([2.0, 4.0 + 0.5])}  # deliberately off

        def loss():
            return float((params["p"] ** 2).sum())

        assert grad_check(loss, params, analytic) > 1e-2

    def test_non_finite_loss_rejected(self):
        params = {"p": np.array([1.0])}

        def loss():
            return float("nan")

        with pytest.raises(NumericalError):
            grad_check(loss, params, {"p": np.array([2.0])})


class TestClipping:
    def test_direction_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            grads = {"a": rng.normal(size=(3, 3)) * 10, "b": rng.normal(size=4) * 10}
            before = {k: v.copy() for k, v in grads.items()}
            norm0 = global_norm(grads)
            clip_global_norm(grads, 1.0)
            assert global_norm(grads) <= 1.0 + 1e-12
            for k in grads:
                np.testing.assert_allclose(grads[k] * norm0, before[k] * 1.0, rtol=1e-9)

    def test_no_op_below_threshold(self):
        grads = {"a": np.array([0.1, 0.1])}
        before = grads["a"].copy()
        clip_global_norm(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], before)


def test_zero_grads_shapes():
    params = {"a": np.ones((2, 3)), "b": np.ones(4)}
    g = zero_grads(params)
    assert set(g) == {"a", "b"}
    for k in params:
        assert g[k].shape == params[k].shape
        assert not g[k].any()
