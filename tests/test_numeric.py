import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import (ALLOWED_CPUS, affine_tanh, arena, attention_backward, forced_score,
                      grad_check, needs_two_cpus)
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglm import numeric
from dialoglm.errors import DataError, NumericalError
from dialoglm.models import AttentionRnnLm, RnnLm, Seq2Seq, TopicAttentionRnnLm, make_model
from dialoglm.numeric import (ATTENTION_BLOCK, Arena, attention, clip_global_norm, columns,
                              lanes, log_softmax, matvecs, nll_backward, readout_backward,
                              recur, scoped_attention, scoped_attention_backward, softmax,
                              unroll, zero_grads)
from dialoglm.trainer import AdamState, adam_update


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


def _norm(grads):
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


class TestClipping:
    def test_direction_preserved(self):
        # the scale brings the norm to the bound; the clip writes nothing
        rng = np.random.default_rng(6)
        for _ in range(20):
            grads = arena(a=rng.normal(size=(3, 3)) * 10, b=rng.normal(size=4) * 10)
            before = grads.flat.copy()
            norm0 = _norm(grads)
            norm, scale = clip_global_norm(grads, 1.0)
            assert norm == norm0 and grads.flat.tobytes() == before.tobytes()
            grads.flat *= scale
            assert _norm(grads) <= 1.0 + 1e-12
            np.testing.assert_allclose(grads.flat * norm0, before * 1.0, rtol=1e-9)

    def test_no_op_below_threshold(self):
        grads = arena(a=np.array([0.1, 0.1]))
        before = grads["a"].copy()
        assert clip_global_norm(grads, 5.0) == (_norm(grads), None)
        np.testing.assert_array_equal(grads["a"], before)


def _frozen_nll_backward(logps, targets):
    """The loss and the dlogits bytes of nll_backward as it was when it formed
    exp(logps) itself (on two halves of the rows, which changes no bit)."""
    rows = np.arange(len(targets))
    loss = 0.0
    for lp in logps[rows, targets].tolist():
        loss -= lp
    dlogits = np.exp(logps)
    dlogits[rows, targets] -= 1.0
    return loss, dlogits.tobytes()


@pytest.mark.parametrize("n, n_vocab", [(1, 5), (30, 20), (78, 2000)])
def test_nll_backward_given_the_exp_rows_equals_the_old_form(n, n_vocab):
    rng = np.random.default_rng(n)
    logps = log_softmax(3.0 * rng.normal(size=(n, n_vocab)))
    targets = rng.integers(0, n_vocab, n)
    probs = np.exp(logps)
    loss, dlogits = nll_backward(logps, targets, probs)
    assert dlogits is probs
    assert (loss, dlogits.tobytes()) == _frozen_nll_backward(logps, targets)


def test_zero_grads_shapes():
    params = arena(a=np.ones((2, 3)), b=np.ones(4))
    g = zero_grads(params)
    assert list(g) == ["a", "b"]
    for k in params:
        assert g[k].shape == params[k].shape
        assert not g[k].any()


class TestArena:
    def test_zero_grads_is_fresh_on_every_call(self):
        params = arena(a=np.ones((2, 3)))
        first, second = zero_grads(params), zero_grads(params)
        first["a"] += 1.0
        assert not second.flat.any()
        assert not np.shares_memory(first.flat, second.flat)

    def test_views_share_one_aligned_vector(self):
        a = Arena({"x": (2, 3), "y": (5,)}, np.arange(11.0))
        assert a.flat.ctypes.data % 64 == 0
        assert np.shares_memory(a["y"], a.flat)
        np.testing.assert_array_equal(a["x"], [[0, 1, 2], [3, 4, 5]])
        a["y"] *= 2.0  # an in-place update stores the same view back
        np.testing.assert_array_equal(a.flat[6:], [12, 14, 16, 18, 20])

    def test_rebinding_an_entry_is_refused(self):
        a = Arena({"x": (2,)})
        with pytest.raises(TypeError, match="rebound"):
            a["x"] = np.ones(2)
        for value in (np.ones(2), None):
            with pytest.raises(TypeError, match="rebound"):
                a["z"] = value
        assert list(a) == ["x"] and not a.flat.any()

    @pytest.mark.parametrize("method", ["update", "ior", "setdefault", "pop", "popitem",
                                        "clear", "del"])
    def test_dict_methods_cannot_rebind_or_remove(self, method):
        # these bypassed __setitem__: after a.update(x=...), a["x"] += 1 left
        # a.flat unchanged
        a = Arena({"x": (2,), "y": (3,)})
        edit = {
            "update": lambda: a.update(x=np.ones(2)),
            "ior": lambda: operator.ior(a, {"x": np.ones(2)}),  # a |= {...}
            "setdefault": lambda: a.setdefault("z", np.ones(2)),
            "pop": lambda: a.pop("x"),
            "popitem": a.popitem,
            "clear": a.clear,
            "del": lambda: a.__delitem__("x"),
        }[method]
        with pytest.raises(TypeError, match="rebound or removed"):
            edit()
        assert list(a) == ["x", "y"]
        a["x"] += 1.0
        np.testing.assert_array_equal(a.flat, [1, 1, 0, 0, 0])

    def test_size_is_checked_before_allocating(self):
        # 10^18 entries would fail to allocate; the payload's size is compared first
        with pytest.raises(DataError, match="3 parameters, expected 1000000000000000000"):
            Arena({"x": (10**9, 10**9)}, np.zeros(3))

    def test_too_large_to_allocate_is_a_data_error(self):
        with pytest.raises(DataError, match="1000000000000000000 parameters do not fit"):
            Arena({"x": (10**9, 10**9)})

    def test_zero_grads_fills_a_given_arena(self):
        params = arena(a=np.ones((2, 3)), b=np.ones(4))
        grads = zero_grads(params)
        grads.flat[:] = 7.0
        assert zero_grads(params, grads) is grads
        assert not grads.flat.any()


# ---------------------------------------------------------------------------
# numerics v2 against the per-position loops of v1

def _rows(A, X):
    """A @ x for every row x of X, one matrix-vector product each."""
    return np.array([A @ x for x in X]).reshape(len(X), A.shape[0])


def _outers(g, A, B):
    """g += outer(A[0], B[0]); g += outer(A[1], B[1]); ... in row order."""
    for a, b in zip(A, B):
        g += a[:, None] * b


def _bptt_rows(Hm, Pm, Em, tokens, states, dstates, gH, gP, gE):
    n = len(tokens)
    dtanh = 1.0 - states[1:] * states[1:]
    das = np.empty((n, dstates.shape[1]))
    for t in range(n, 0, -1):
        da = das[t - 1] = dstates[t] * dtanh[t - 1]
        dstates[t - 1] += Hm.T @ da
    rev = das[::-1]
    np.add.at(gE.T, np.asarray(tokens[::-1], dtype=np.intp), _rows(Pm.T, rev))
    _outers(gH, rev, states[:n][::-1])
    _outers(gP, rev, Em[:, tokens[::-1]].T)


class TestDecodeProducts:
    """The batched decode kernels give every row the bits of the one-vector
    products the stepwise path has always used (A @ x, P @ E[:, tok])."""

    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_rows_equal_single_products(self, d):
        rng = np.random.default_rng(d)
        de, n, t = 5, 300, 9
        H, P = rng.normal(size=(d, d)), rng.normal(size=(d, de))
        E, O = rng.normal(size=(de, n)), rng.normal(size=(d, n))
        U, b = rng.normal(size=(d, de)), rng.normal(size=d)
        for B in (1, 2, 5):
            h = rng.normal(size=(B, d))
            toks = [int(x) for x in rng.integers(0, n, B)]
            R = rng.normal(size=(B, t + 3, de))
            UR = matvecs(U, R[:, :t])
            got_h = recur(H, h, P, columns(E, toks))
            got_o = softmax(matvecs(O.T, h))
            _, alpha, z = attention(h, b, R[:, :t], UR)
            for i in range(B):
                assert got_h[i].tobytes() == np.tanh(H @ h[i] + P @ E[:, toks[i]]).tobytes()
                assert got_o[i].tobytes() == softmax(O.T @ h[i]).tobytes()
                assert UR[i].tobytes() == np.array([U @ r for r in R[i, :t]]).tobytes()
                a1 = softmax(np.tanh(h[i] + np.array(UR[i])) @ b)
                assert alpha[i].tobytes() == a1.tobytes()
                assert z[i].tobytes() == (a1 @ np.array(R[i, :t])).tobytes()


class TestUnroll:
    """unroll forms its input projections before its loop; every state keeps
    the bits of a loop of recur, the step that decoding takes."""

    @pytest.mark.parametrize("d, de, n_vocab, n", [(3, 2, 7, 1), (24, 16, 39, 29),
                                                   (64, 64, 2000, 78)])
    def test_states_equal_the_recur_loop(self, d, de, n_vocab, n):
        rng = np.random.default_rng(d)
        H, P = rng.uniform(-0.3, 0.3, size=(d, d)), rng.uniform(-0.3, 0.3, size=(d, de))
        E = rng.uniform(-0.3, 0.3, size=(de, n_vocab))
        h0 = rng.uniform(-1.0, 1.0, size=d)
        tokens = [int(t) for t in rng.integers(0, n_vocab, n)]
        ref = [h0]
        for tok in tokens:
            ref.append(recur(H, ref[-1], P, E[:, tok]))
        assert unroll(H, P, E, tokens, h0).tobytes() == np.array(ref).tobytes()
        assert unroll(H, P, E, [], h0).tobytes() == h0[None].tobytes()


def _assert_close(got, ref, what=""):
    """Within 1e-12 relative, or 1e-12 of the reference's largest entry."""
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(initial=0.0),
                               err_msg=what)


BLOCK_SIZES = [1, 2, ATTENTION_BLOCK - 1, ATTENTION_BLOCK, ATTENTION_BLOCK + 1,
               2 * ATTENTION_BLOCK + 1, 3 * ATTENTION_BLOCK]


class TestScopedAttention:
    """The block kernels against one attention / attention_backward call per
    query, the loop that numerics v2 ran."""

    @staticmethod
    def _inputs(n, growing, d=5, d_z=7):
        rng = np.random.default_rng(100 * n + growing)
        # growing: query j attends rows [0, j+1), like arnn; fixed: every
        # query attends all rows, like seq2seq-attn over its M+1 = 9 states
        T = n if growing else 9
        scope = np.arange(1, n + 1) if growing else np.full(n, T)
        Um, R = rng.normal(size=(d, d_z)), rng.normal(size=(T, d_z))
        return (rng.normal(size=(n, d)), rng.normal(size=d), R, R @ Um.T, scope, Um,
                rng.normal(size=(n, d_z)))

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("growing", [True, False], ids=["growing", "fixed"])
    def test_matches_per_query_loop(self, n, growing):
        WQ, b, R, UR, scope, Um, dZ = self._inputs(n, growing)
        pres, A, Z = scoped_attention(WQ, b, R, UR, scope)
        gU, gb = np.zeros_like(Um), np.zeros_like(b)
        dWQ, dR = scoped_attention_backward(Um, b, R, pres, A, dZ, gU, gb)
        ref_gU, ref_gb, ref_dR = np.zeros_like(Um), np.zeros_like(b), np.zeros_like(R)
        assert A.shape == (n, len(R)) and Z.shape == (n, R.shape[1])
        for j, t in enumerate(scope):
            pre, alpha, z = attention(WQ[j], b, R[:t], UR[:t])
            _assert_close(Z[j], z, f"Z[{j}]")
            _assert_close(A[j, :t], alpha, f"alpha[{j}]")
            assert not A[j, t:].any()
            assert abs(A[j].sum() - 1.0) < 1e-12
            dwq, dRj = attention_backward(Um, b, R[:t], pre, alpha, dZ[j], ref_gU, ref_gb)
            _assert_close(dWQ[j], dwq, f"dWQ[{j}]")
            ref_dR[:t] += dRj
        _assert_close(dR, ref_dR, "dR")
        _assert_close(gU, ref_gU, "gU")
        _assert_close(gb, ref_gb, "gb")

    @pytest.mark.parametrize("spoil", ["nan_UR", "nan_WQ", "inf_b"])
    def test_non_finite_score_raises(self, spoil):
        WQ, b, R, UR, scope, _, _ = self._inputs(2 * ATTENTION_BLOCK + 1, True)
        if spoil == "nan_UR":
            UR[ATTENTION_BLOCK + 3, 0] = np.nan
        elif spoil == "nan_WQ":
            WQ[-1, 1] = np.nan
        else:
            b[2] = np.inf
        with pytest.raises(NumericalError):
            scoped_attention(WQ, b, R, UR, scope)

    def test_readout_backward_by_slice_equals_add_at(self):
        # arnn's queries, a slice of distinct rows, add into dH by slice with
        # the bits that np.add.at gives over the same rows as an index array
        rng = np.random.default_rng(4)
        model = _scaled_model("arnn", 4, 5.0)
        fw = model._forward([int(t) for t in rng.integers(0, V, 40)])
        H, rows, q, R, pres, A, Z = fw["tape"]
        douts = rng.normal(size=fw["outs"].shape)
        results = []
        for query in (q, np.arange(len(H))[q]):
            tape = (H, rows, query, R, [pre.copy() for pre in pres], A, Z)
            dH, grads = np.ones_like(H), zero_grads(model.params)
            dR = readout_backward(model.params, tape, douts, dH, grads)
            results.append((dH.tobytes(), dR.tobytes(), grads.flat.tobytes()))
        assert isinstance(q, slice) and results[0] == results[1]

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["arnn", "seq2seq_attn"])
    def test_model_weight_rows(self, kind, n):
        # every teacher-forced weight row against the per-position loop
        rng = np.random.default_rng(n)
        model = _scaled_model(kind, n, 5.0)
        if kind == "arnn":
            tokens = [int(t) for t in rng.integers(0, V, n + 1)]  # n attending positions
            A = forced_score(model, tokens).A
            ref = _rows_reference(model)._forward(tokens)["weights"]
            assert ref[0] is None  # row t - 1 of A belongs to position t
            ref, lengths = ref[1:], range(1, n + 1)
        else:
            source = [int(t) for t in rng.integers(0, V, 6)]
            target = [int(t) for t in rng.integers(0, V, n)]
            A = forced_score(model, target, source=source).A
            p = model.params
            enc = model._encode(source)[1:]
            dec = unroll(p["Hd"], p["Pd"], p["Ed"], target[:-1], enc[-1])
            ref = [attention(p["W"] @ dec[max(l - 1, 0)], p["b"], enc, enc @ p["U"].T)[1]
                   for l in range(n)]  # position l queries with dec[max(l-1, 0)]
            lengths = [len(source)] * n
        assert A.shape == (n, max(lengths)) and len(ref) == n
        for t, (a, r, length) in enumerate(zip(A, ref, lengths)):
            assert not a[length:].any()
            a = a[:length]
            assert abs(a.sum() - 1.0) < 1e-12
            _assert_close(a, r, f"row {t}")


def _nll(logps, targets):
    return nll_backward(logps, targets, np.exp(logps))


class _RowsRnnLm(RnnLm):
    def loss_and_grads(self, tokens, theta=None):
        tokens = list(tokens)
        fw = self._forward(tokens, theta)
        p = self.params
        grads = zero_grads(p)
        dstates = np.zeros((len(tokens), self.d))
        loss, dlogits = _nll(fw["logps"], tokens)
        self._backward_outputs(tokens, fw, dlogits, grads, dstates, theta)
        _bptt_rows(p["H"], p["P"], p["E"], tokens[:-1], fw["states"], dstates,
                   grads["H"], grads["P"], grads["E"])
        return loss, grads

    def _backward_outputs(self, tokens, fw, dlogits, grads, dstates, theta):
        dstates += _rows(self.params["O"], dlogits)
        _outers(grads["O"], fw["states"], dlogits)


class _RowsArnn(_RowsRnnLm, AttentionRnnLm):
    def _forward(self, tokens, theta=None):
        p = self.params
        n = len(tokens)
        states = self._states(tokens)
        R = np.concatenate([p["E"][:, tokens[:-1]].T, states[1:]], axis=1)
        UR = R @ p["U"].T
        WQ = _rows(p["W"], states[:-1])
        Z = np.empty((n - 1, self.d_z))
        pre, weights = [None] * n, [None] * n
        for t in range(1, n):
            pre[t], weights[t], Z[t - 1] = attention(WQ[t - 1], p["b"], R[:t], UR[:t])
        outs = _rows(p["Oh"], states)
        outs[1:] += _rows(p["Oz"], Z)
        outs = self._add_topic(outs, theta)
        return {"states": states, "R": R, "pre": pre, "weights": weights, "Z": Z,
                "outs": outs, "logps": log_softmax(outs @ p["O"])}

    def _backward_outputs(self, tokens, fw, dlogits, grads, dstates, theta):
        p = self.params
        n = len(tokens)
        douts = _rows(p["O"], dlogits)
        dstates += _rows(p["Oh"].T, douts)
        dzs = _rows(p["Oz"].T, douts[1:])
        dwqs = np.empty((n - 1, self.d))
        drep = np.zeros_like(fw["R"])
        for t in range(1, n):
            dwqs[t - 1], dR = attention_backward(p["U"], p["b"], fw["R"][:t], fw["pre"][t],
                                                 fw["weights"][t], dzs[t - 1],
                                                 grads["U"], grads["b"])
            drep[:t] += dR
        dstates[:-1] += _rows(p["W"].T, dwqs)
        _outers(grads["W"], dwqs, fw["states"][:-1])
        _outers(grads["O"], fw["outs"], dlogits)
        _outers(grads["Oh"], douts, fw["states"])
        if theta is not None:
            _outers(grads["Otheta"], douts, np.broadcast_to(theta, (n, theta.size)))
        _outers(grads["Oz"], douts[1:], fw["Z"])
        dstates[1:] += drep[:, self.d_e:]
        np.add.at(grads["E"].T, np.asarray(tokens[:-1], dtype=np.intp), drep[:, : self.d_e])


class _RowsTarnn(_RowsArnn, TopicAttentionRnnLm):
    pass


class _RowsSeq2Seq(Seq2Seq):
    def loss_and_grads(self, source, target):
        p = self.params
        enc0 = self._encode(source)
        enc = enc0[1:]
        dec = unroll(p["Hd"], p["Pd"], p["Ed"], target[:-1], enc[-1])
        grads = zero_grads(p)
        ddec = np.zeros_like(dec)
        denc0 = np.zeros_like(enc0)
        if self.use_attention:
            UE = enc @ p["U"].T
            q = np.maximum(np.arange(len(target)) - 1, 0)
            WQ = _rows(p["W"], dec[q])
            att = [attention(wq, p["b"], enc, UE) for wq in WQ]
            Z = np.array([z for _, _, z in att])
            outs = _rows(p["Oh"], dec) + _rows(p["Oz"], Z)
            loss, dlogits = _nll(log_softmax(outs @ p["Od"]), target)
            douts = _rows(p["Od"], dlogits)
            ddec += _rows(p["Oh"].T, douts)
            dzs = _rows(p["Oz"].T, douts)
            dwqs = np.empty_like(douts)
            for l, (pre, alpha, _) in enumerate(att):
                dwqs[l], dR = attention_backward(p["U"], p["b"], enc, pre, alpha, dzs[l],
                                                 grads["U"], grads["b"])
                denc0[1:] += dR
            np.add.at(ddec, q, _rows(p["W"].T, dwqs))
            _outers(grads["W"], dwqs, dec[q])
            _outers(grads["Od"], outs, dlogits)
            _outers(grads["Oh"], douts, dec)
            _outers(grads["Oz"], douts, Z)
        else:
            loss, dlogits = _nll(log_softmax(dec @ p["Od"]), target)
            ddec += _rows(p["Od"], dlogits)
            _outers(grads["Od"], dec, dlogits)
        _bptt_rows(p["Hd"], p["Pd"], p["Ed"], target[:-1], dec, ddec,
                   grads["Hd"], grads["Pd"], grads["Ed"])
        denc0[-1] += ddec[0]
        _bptt_rows(p["He"], p["Pe"], p["Ee"], source, enc0, denc0,
                   grads["He"], grads["Pe"], grads["Ee"])
        return loss, grads


KINDS = ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn")
D, DE, V, K = 8, 6, 20, 4


def _scaled_model(kind, seed, scale):
    model = make_model(kind, D, DE, V, n_topics=K, seed=seed)
    for p in model.params.values():
        p *= scale
    return model


def _rows_reference(model):
    """The per-row reference model over a copy of ``model``'s parameters."""
    flat = model.params.flat
    if model.kind.startswith("seq2seq"):
        return _RowsSeq2Seq(D, DE, V, use_attention=model.use_attention, flat=flat)
    if model.kind == "tarnn":
        return _RowsTarnn(D, DE, V, K, flat=flat)
    return {"rnn": _RowsRnnLm, "arnn": _RowsArnn}[model.kind](D, DE, V, flat=flat)


def _loss_and_grads(model, tokens, source, theta):
    if model.kind.startswith("seq2seq"):
        return model.loss_and_grads(source, tokens)
    return model.loss_and_grads(tokens, theta if model.kind == "tarnn" else None)


class TestNumericsV2:
    """The teacher-forced passes form their per-position products and their
    gradient sums as single matrix products (numerics v2, docs/FORMATS.md),
    and run attention over blocks of queries (v3). That rounds differently
    from the stepwise decode path and from a sum of per-row products, but
    only at the level of the last bits."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 5.0]),
           tokens=st.lists(st.integers(0, V - 1), min_size=1, max_size=40),
           source=st.lists(st.integers(0, V - 1), min_size=1, max_size=40))
    def test_teacher_forced_scores_match_stepwise(self, kind, seed, scale, tokens, source):
        model = _scaled_model(kind, seed, scale)
        theta = np.random.default_rng(seed).dirichlet(np.ones(K))
        if kind.startswith("seq2seq"):
            forced = forced_score(model, tokens, source=source).per_token
            state = model.begin(source)
        elif kind == "tarnn":
            forced = forced_score(model, tokens, theta=theta).per_token
            state = model.begin([], theta)
        else:
            forced = forced_score(model, tokens).per_token
            state = model.begin([])
        stepwise = []
        for tok in tokens:
            [(probs, _)] = model.step_dist([state])
            stepwise.append(math.log(probs[0, tok]))
            [state] = model.advance([state], [[tok]], [[0]])
        np.testing.assert_allclose(forced, stepwise, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients_match_per_row_reference(self, kind):
        # at the gradient checks' generic point (5x the init scale); an entry
        # far below its array's largest one is compared at that scale
        for seed in range(12):
            rng = np.random.default_rng(seed)
            tokens = [int(t) for t in rng.integers(0, V, size=rng.integers(1, 40))]
            source = [int(t) for t in rng.integers(0, V, size=rng.integers(1, 40))]
            theta = rng.dirichlet(np.ones(K))
            model = _scaled_model(kind, seed, 5.0)
            loss, grads = _loss_and_grads(model, tokens, source, theta)
            ref_loss, ref_grads = _loss_and_grads(_rows_reference(model), tokens, source, theta)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert grads.keys() == ref_grads.keys()
            for name, g in ref_grads.items():
                np.testing.assert_allclose(grads[name], g, rtol=1e-12,
                                           atol=1e-12 * np.abs(g).max(), err_msg=name)


# ---------------------------------------------------------------------------
# two lanes

@pytest.mark.usefixtures("two_cpus")
class TestLanes:
    @staticmethod
    def _both_lanes(piece):
        """``piece`` wrapped so that each lane holds its first piece until the
        other lane has taken one; records which lane ran each index."""
        barrier, ran = threading.Barrier(2, timeout=30), {}

        def held(i, lane):
            ran[i] = lane
            if i < 2:
                barrier.wait()
            return piece(i, lane)

        return held, ran

    def test_results_come_back_in_index_order(self):
        held, ran = self._both_lanes(lambda i, lane: i * i)
        assert lanes(held, 40) == [i * i for i in range(40)]
        assert set(ran.values()) == {0, 1}

    def test_a_failure_on_the_worker_is_raised_in_the_caller(self):
        def piece(i, lane):
            if lane == 1:
                raise KeyError(f"piece {i}")
            return i

        held, ran = self._both_lanes(piece)
        with pytest.raises(KeyError, match="piece"):
            lanes(held, 2)
        assert sorted(ran.values()) == [0, 1]
        assert lanes(lambda i, lane: i, 3) == [0, 1, 2]  # the worker serves on

    def test_the_lowest_failing_index_is_raised(self):
        def piece(i, lane):
            raise ValueError(f"piece {i}")

        held, _ = self._both_lanes(piece)
        with pytest.raises(ValueError, match="piece 0"):
            lanes(held, 5)

    def test_one_piece_or_one_cpu_runs_inline(self, monkeypatch):
        def refuse():
            raise AssertionError("handed off")

        monkeypatch.setattr(numeric, "_second_lane", refuse)
        assert lanes(lambda i, lane: (i, lane), 1) == [(0, 0)]
        monkeypatch.setattr(numeric, "_cpus", lambda: 1)
        assert lanes(lambda i, lane: (i, lane), 3) == [(0, 0), (1, 0), (2, 0)]

    def test_concurrent_and_nested_calls(self):
        # more calling threads than cores, switching every microsecond: a call
        # that finds the worker busy, or that comes from a piece, runs inline,
        # and every call gets all of its own results
        def job(k):
            return lanes(lambda i, lane: (k, i, lanes(lambda j, _: i + j, 3)), 6)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(job, k) for k in range(64)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == [(k, i, [i, i + 1, i + 2]) for i in range(6)]

    def _placement(self):
        """The CPU affinity of lane 0 and of lane 1, each read inside a piece
        of a hand-off that both lanes take part in."""
        held, _ = self._both_lanes(lambda i, lane: (lane, os.sched_getaffinity(0)))
        affinity = dict(lanes(held, 4))
        return affinity[0], affinity[1]

    @needs_two_cpus
    def test_the_worker_keeps_off_its_callers_cpu(self, fresh_worker):
        caller, worker = self._placement()
        [(cpu, reader)] = fresh_worker  # one read per hand-off, by the caller
        assert reader == threading.get_native_id() and cpu in ALLOWED_CPUS
        assert worker == ALLOWED_CPUS - {cpu}
        assert caller == ALLOWED_CPUS
        assert numeric.lane_cpus() == sorted(worker)

    @needs_two_cpus
    def test_the_worker_moves_off_a_caller_that_stays_on_its_cpu(
            self, fresh_worker, two_cpus, monkeypatch):
        # the test moves its own thread onto the worker's CPU: the worker
        # moves off it at the SHARED_CPU_MOVE-th hand-off in a row there, and
        # a hand-off from another CPU starts the count again
        monkeypatch.setattr(numeric, "SHARED_CPU_MOVE", 3)
        pins, pin = [], os.sched_setaffinity

        def counted(pid, cpus):
            pins.append(pid)
            pin(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", counted)
        self._placement()
        tid, own = numeric._worker.tid, os.sched_getaffinity(0)
        try:
            for _ in range(2):
                stay = set(numeric.lane_cpus())
                cpu, moves = min(stay), pins.count(tid)
                for caller in ({cpu}, {cpu}, own - stay, {cpu}, {cpu}):
                    pin(0, caller)
                    assert self._placement()[1] == stay
                assert pins.count(tid) == moves
                _, worker = self._placement()
                assert fresh_worker[-1][0] == cpu and pins.count(tid) == moves + 1
                assert worker == ALLOWED_CPUS - {cpu} == set(numeric.lane_cpus())
        finally:
            pin(0, own)

    @needs_two_cpus
    def test_the_callers_affinity_is_unchanged(self, fresh_worker):
        before = os.sched_getaffinity(0), numeric._cpus()
        caller, _ = self._placement()
        assert (caller, len(caller)) == before
        assert (os.sched_getaffinity(0), numeric._cpus()) == before

    @needs_two_cpus
    def test_one_allowed_cpu_tries_no_pin(self, fresh_worker, two_cpus, monkeypatch):
        # lanes runs inline on one CPU; the worker itself checks again
        tried, read = [], os.sched_getaffinity
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(ALLOWED_CPUS)})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: tried.append(cpus))
        held, _ = self._both_lanes(lambda i, lane: (lane, read(0)))
        assert dict(lanes(held, 4))[1] == ALLOWED_CPUS
        assert tried == [] and fresh_worker == [] and numeric.lane_cpus() is None

    @needs_two_cpus
    def test_a_failed_pin_leaves_the_worker_unpinned(self, fresh_worker, monkeypatch):
        tried = []

        def fail(pid, cpus):
            tried.append((pid, cpus))
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", fail)
        x = np.random.default_rng(0).normal(size=(8, 5))
        for _ in range(2):  # the second hand-off tries no pin
            held, ran = self._both_lanes(lambda i, lane: (lane, os.sched_getaffinity(0),
                                                          softmax(x[i]).tobytes()))
            got = lanes(held, 8)
            assert sorted(set(ran.values())) == [0, 1]
            assert [p[2] for p in got] == [softmax(x[i]).tobytes() for i in range(8)]
            assert all(p[1] == ALLOWED_CPUS for p in got)
        [(cpu, _)] = fresh_worker
        assert tried == [(numeric._worker.tid, sorted(ALLOWED_CPUS - {cpu}))]
        assert numeric.lane_cpus() is None

    @needs_two_cpus
    def test_an_unreadable_cpu_leaves_the_worker_unpinned(self, fresh_worker, monkeypatch):
        tried = []
        monkeypatch.setattr(numeric, "_sched_getcpu", None)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: tried.append(cpus))
        for _ in range(2):  # the second hand-off reads no CPU
            assert self._placement() == (ALLOWED_CPUS, ALLOWED_CPUS)
        assert fresh_worker == [(None, threading.get_native_id())]
        assert tried == [] and numeric.lane_cpus() is None


class _OneLaneOutputs:
    """The output backward as one thread forms it: the reference for the
    two-lane form."""

    def _backward_outputs(self, fw, dlogits, grads, dstates):
        O = self.decoder[3]
        douts = dlogits @ self.params[O].T
        grads[O] += fw["outs"].T @ dlogits
        if not self.attends:
            dstates += douts
            return None
        if "Otheta" in grads:
            grads["Otheta"] += np.outer(douts.sum(axis=0), fw["theta"])
        return readout_backward(self.params, fw["tape"], douts, dstates, grads)


@pytest.mark.usefixtures("two_cpus")
class TestTwoLaneOutputs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n_vocab, lane_min", [(D, V, 0), (64, 2000, None)])
    def test_gradients_equal_the_one_lane_reference(self, kind, d, n_vocab, lane_min,
                                                    monkeypatch):
        # (D, V) models hand off once the threshold is dropped; d 64, V 2,000
        # is above it
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        model = make_model(kind, d, DE, n_vocab, n_topics=K, seed=3)
        assert model.params[model.decoder[3]].size >= numeric.LANE_MIN
        cls = type(model)
        extra = ({"n_topics": K} if kind == "tarnn" else
                 {"use_attention": model.use_attention} if kind.startswith("seq2seq") else {})
        ref = type("OneLane" + cls.__name__, (_OneLaneOutputs, cls), {})(
            d, DE, n_vocab, **extra, flat=model.params.flat)
        rng = np.random.default_rng(d)
        theta = rng.dirichlet(np.ones(K))
        for _ in range(3):
            tokens = [int(t) for t in rng.integers(0, n_vocab, 30)]
            source = [int(t) for t in rng.integers(0, n_vocab, 20)]
            loss, grads = _loss_and_grads(model, tokens, source, theta)
            ref_loss, ref_grads = _loss_and_grads(ref, tokens, source, theta)
            assert loss == ref_loss
            assert grads.flat.tobytes() == ref_grads.flat.tobytes()


# (d, V, n, LANE_MIN): the benchmark's d and V at its dialogue length (about
# 78 tokens) and at a 40-turn one, and a tier-1 size with the hand-off
# threshold dropped
TWO_LANE_SIZES = [(64, 2000, 78, None), (64, 2000, 321, None), (D, V, 30, 0)]


def _step(model, tokens, source, theta):
    """The bytes of one training step's loss, norm, scale, clipped gradients
    and Adam step (taken on a copy of the parameters), and of a score of the
    same tokens."""
    loss, grads = _loss_and_grads(model, tokens, source, theta)
    norm, scale = clip_global_norm(grads, 1.0)
    params = Arena({name: p.shape for name, p in model.params.items()}, model.params.flat)
    adam = AdamState(params)
    adam_update(adam, params, grads, scale)
    s = forced_score(model, tokens, source, theta if model.kind == "tarnn" else None)
    return (loss, norm, scale, grads.flat.tobytes(), params.flat.tobytes(),
            adam.v.flat.tobytes(), s.per_token.tobytes(), s.argmax.tobytes())


@pytest.mark.parametrize("d, n_vocab, n, lane_min", TWO_LANE_SIZES)
class TestTwoLanePass:
    """Every two-lane piece of a teacher-forced pass and of the clip forms the
    bytes that one lane forms; the reference runs with ``one_lane``."""

    @staticmethod
    def _reference(one_lane, two_cpus, fn, *args):
        before = len(two_cpus)
        ref = one_lane(fn, *args)
        assert len(two_cpus) == before  # the reference handed nothing off
        return ref

    def test_scoped_attention(self, d, n_vocab, n, lane_min, monkeypatch, two_cpus, one_lane):
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        rng = np.random.default_rng(n)
        R, U = rng.normal(size=(n, 2 * d)), 0.1 * rng.normal(size=(d, 2 * d))
        WQ, b = rng.normal(size=(n, d)), rng.normal(size=d)
        for scope in (np.arange(1, n + 1), np.full(n, n)):  # growing, fixed
            args = (WQ, b, R, R @ U.T, scope)
            ref = self._reference(one_lane, two_cpus, scoped_attention, *args)
            got = scoped_attention(*args)
            assert [p.tobytes() for p in got[0]] == [p.tobytes() for p in ref[0]]
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[2].tobytes() == ref[2].tobytes()
        assert two_cpus

    def test_log_probs_and_nll_backward(self, d, n_vocab, n, lane_min, monkeypatch, two_cpus,
                                        one_lane):
        # a scoring pass, and a training pass whose row pieces also form the
        # exp rows that nll_backward turns into dlogits
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        rng = np.random.default_rng(n)
        model = make_model("rnn", d, DE, n_vocab, seed=3)
        X, targets = rng.normal(size=(n, d)), rng.integers(0, n_vocab, n)

        def rows(lane):
            logps = model._log_probs(X, model.params["O"], lane)
            return logps.tobytes(), model._rows[lane or 0][1, :n].copy()

        for lane in (0, None):
            ref, ref_exps = self._reference(one_lane, two_cpus, rows, lane)
            logps, exps = rows(lane)
            assert logps == ref
            if lane is None:
                assert exps.tobytes() == ref_exps.tobytes()
                logps = np.frombuffer(logps).reshape(n, n_vocab)
                assert exps.tobytes() == np.exp(logps).tobytes()
                loss, dlogits = model._nll_backward(logps, targets)
                assert (loss, dlogits.tobytes()) == _frozen_nll_backward(logps, targets)
        assert two_cpus

    @pytest.mark.parametrize("scale, max_norm", [(1.0, 1e9), (1.0, 1.0), (1e200, 1.0)])
    def test_clip(self, d, n_vocab, n, lane_min, scale, max_norm, monkeypatch, two_cpus,
                  one_lane):
        # no scaling, scaling, and a norm that overflows from finite entries,
        # which scales the arena to zero; the clip writes no gradient
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        grads = zero_grads(make_model("arnn", d, DE, n_vocab, seed=3).params)
        grads.flat[:] = scale * np.random.default_rng(n).normal(size=grads.flat.size)
        before = grads.flat.tobytes()
        total = 0.0
        with np.errstate(over="ignore"):
            for g in grads.values():
                total += float(np.sum(g * g))
        ref = self._reference(one_lane, two_cpus, clip_global_norm, grads, max_norm)
        norm, factor = clip_global_norm(grads, max_norm)
        assert (norm, factor) == ref and norm == math.sqrt(total)
        assert grads.flat.tobytes() == before
        if scale > 1.0:
            assert norm == np.inf and factor == 0.0
        else:
            assert factor == (max_norm / norm if norm > max_norm else None)
        assert two_cpus

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_step_and_score(self, kind, d, n_vocab, n, lane_min, monkeypatch,
                                     two_cpus, one_lane):
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        rng = np.random.default_rng(n)
        model = make_model(kind, d, DE, n_vocab, n_topics=K, seed=3)
        tokens = [int(t) for t in rng.integers(0, n_vocab, n)]
        source = [int(t) for t in rng.integers(0, n_vocab, n)]
        args = (model, tokens, source, rng.dirichlet(np.ones(K)))
        assert _step(*args) == self._reference(one_lane, two_cpus, _step, *args)
        assert two_cpus

    def test_non_finite_scores_keep_their_messages(self, d, n_vocab, n, lane_min, monkeypatch,
                                                   two_cpus):
        if lane_min is not None:
            monkeypatch.setattr(numeric, "LANE_MIN", lane_min)
        tokens = [int(t) for t in np.random.default_rng(n).integers(0, n_vocab, n)]
        model = make_model("arnn", d, DE, n_vocab, seed=3)
        model.params["b"][0] = np.inf
        for call in (forced_score, AttentionRnnLm.loss_and_grads):
            with pytest.raises(NumericalError,
                               match="^attention scores contain non-finite entries$"):
                call(model, tokens)
        model = make_model("arnn", d, DE, n_vocab, seed=3)
        model.params["O"][:, 5] = np.inf
        for call in (forced_score, AttentionRnnLm.loss_and_grads):
            with pytest.raises(NumericalError,
                               match="^log_softmax input contains non-finite entries$"):
                call(model, tokens)
        assert two_cpus
