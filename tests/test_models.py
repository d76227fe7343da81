import math

import numpy as np
import pytest
from conftest import attend, forced_score, grad_check, misstate_layout, with_params
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialoglm import corpus
from dialoglm.corpus import Dialogue
from dialoglm.errors import DataError, NumericalError
from dialoglm.models import (AttentionRnnLm, DecodeState, Example, RnnLm, Seq2Seq,
                             TopicAttentionRnnLm, lm, load_checkpoint, make_model,
                             save_checkpoint, seq2seq_pair)
from dialoglm.numeric import ATTENTION_BLOCK, softmax, zero_grads

D, DE, V, K = 8, 6, 20, 4


def random_tokens(rng, n, lo=0):
    return [int(t) for t in rng.integers(lo, V, size=n)]


class TestRnnStep:
    def test_zero_weights(self):
        m = RnnLm(D, DE, V, seed=0)
        for k in m.params:
            m.params[k][:] = 0.0
        np.testing.assert_array_equal(m.step(np.ones((1, D)), [3])[0], np.zeros(D))

    def test_hand_computed_d2(self):
        m = RnnLm(2, 1, V, seed=0)
        m.params["H"][:] = [[0.5, -0.25], [0.0, 1.0]]
        m.params["P"][:] = [[2.0], [-1.0]]
        m.params["E"][:] = 0.0
        m.params["E"][0, 7] = 0.3
        h = np.array([0.2, -0.4])
        got = m.step(h[None], [7])[0]
        exp0 = math.tanh(0.5 * 0.2 + (-0.25) * (-0.4) + 2.0 * 0.3)
        exp1 = math.tanh(0.0 * 0.2 + 1.0 * (-0.4) + (-1.0) * 0.3)
        np.testing.assert_allclose(got, [exp0, exp1], atol=1e-12)

    def test_output_in_open_interval(self):
        rng = np.random.default_rng(1)
        m = RnnLm(D, DE, V, seed=2)
        for _ in range(20):
            h = m.step(rng.normal(size=(1, D)) * 10, [int(rng.integers(0, V))])
            assert np.all(np.abs(h) < 1.0)

    def test_out_of_range_token(self):
        m = RnnLm(D, DE, V, seed=0)
        with pytest.raises(DataError):
            m.step(np.zeros((1, D)), [V])


class TestLmNextDist:
    def test_zero_output_uniform(self):
        m = RnnLm(D, DE, V, seed=3)
        m.params["O"][:] = 0.0
        np.testing.assert_allclose(m.next_dist(np.ones(D)), np.full(V, 1.0 / V),
                                   atol=1e-12)

    def test_hand_softmax_v3(self):
        m = RnnLm(2, 1, 3, seed=0)
        m.params["O"][:] = [[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]]
        h = np.array([0.3, -0.2])
        logits = [1.0 * 0.3 + 0.5 * (-0.2), 0.0 * 0.3 + 2.0 * (-0.2), -1.0 * 0.3]
        exp = np.exp(logits)
        np.testing.assert_allclose(m.next_dist(h), exp / exp.sum(), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        m = RnnLm(D, DE, V, seed=5)
        for _ in range(100):
            p = m.next_dist(rng.normal(size=D))
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)


class TestAttend:
    def test_singleton_scope(self):
        m = AttentionRnnLm(D, DE, V, seed=6)
        r0 = np.random.default_rng(0).normal(size=m.d_z)
        z, alpha = attend(m, np.ones(D), [r0])
        np.testing.assert_allclose(alpha, [1.0], atol=1e-12)
        np.testing.assert_allclose(z, r0, atol=1e-12)

    def test_identical_reps_uniform(self):
        m = AttentionRnnLm(D, DE, V, seed=7)
        r = np.random.default_rng(1).normal(size=m.d_z)
        z, alpha = attend(m, np.zeros(D), [r, r, r])
        np.testing.assert_allclose(alpha, np.full(3, 1 / 3), atol=1e-12)
        np.testing.assert_allclose(z, r, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        m = AttentionRnnLm(D, DE, V, seed=8)
        h = rng.normal(size=D)
        reps = [rng.normal(size=m.d_z) for _ in range(3)]
        z, alpha = attend(m, h, reps)
        # independent recomputation, scalar loops only
        p = m.params
        betas = []
        for r in reps:
            a = np.tanh(p["W"] @ h + p["U"] @ r)
            betas.append(float(p["b"] @ a))
        e = np.exp(np.array(betas) - max(betas))
        alpha_oracle = e / e.sum()
        z_oracle = sum(a * r for a, r in zip(alpha_oracle, reps))
        np.testing.assert_allclose(alpha, alpha_oracle, atol=1e-12)
        np.testing.assert_allclose(z, z_oracle, atol=1e-12)

    def test_empty_scope_rejected(self):
        m = AttentionRnnLm(D, DE, V, seed=9)
        with pytest.raises(DataError):
            attend(m, np.zeros(D), np.empty((0, m.d_z)))


class TestArnnNextDist:
    def test_attention_path_disabled(self):
        # with Oz = 0 the distribution equals a plain LM whose output matrix
        # is the composition Oh^T O
        rng = np.random.default_rng(3)
        m = AttentionRnnLm(D, DE, V, seed=10)
        m.params["Oz"][:] = 0.0
        h = rng.normal(size=D)
        z = rng.normal(size=m.d_z)
        composed = with_params(RnnLm(D, DE, V, seed=10), {
            "H": m.params["H"], "P": m.params["P"], "E": m.params["E"],
            "O": m.params["Oh"].T @ m.params["O"],
        })
        np.testing.assert_allclose(m.next_dist(h, z), composed.next_dist(h),
                                   atol=1e-12)

    def test_sums_to_one_and_brute_force(self):
        rng = np.random.default_rng(4)
        m = AttentionRnnLm(D, DE, V, seed=11)
        h = rng.normal(size=D)
        z = rng.normal(size=m.d_z)
        got = m.next_dist(h, z)
        assert abs(got.sum() - 1.0) < 1e-9
        out = m.params["Oh"] @ h + m.params["Oz"] @ z
        logits = [float(m.params["O"][:, j] @ out) for j in range(V)]
        np.testing.assert_allclose(got, softmax(np.array(logits)), atol=1e-12)


class TestTarnnNextDist:
    def test_topic_path_disabled(self):
        rng = np.random.default_rng(5)
        m = TopicAttentionRnnLm(D, DE, V, K, seed=12)
        m.params["Otheta"][:] = 0.0
        base = with_params(AttentionRnnLm(D, DE, V, seed=12),
                           {k: v for k, v in m.params.items() if k != "Otheta"})
        h = rng.normal(size=D)
        z = rng.normal(size=m.d_z)
        theta = rng.dirichlet(np.ones(K))
        np.testing.assert_array_equal(m.next_dist(h, z, theta),
                                      base.next_dist(h, z))

    def test_theta_sensitivity(self):
        rng = np.random.default_rng(6)
        m = TopicAttentionRnnLm(D, DE, V, K, seed=13)
        h = rng.normal(size=D)
        z = rng.normal(size=m.d_z)
        uniform = np.full(K, 1.0 / K)
        onehot = np.zeros(K)
        onehot[0] = 1.0
        assert not np.allclose(m.next_dist(h, z, uniform),
                               m.next_dist(h, z, onehot))

    def test_brute_force(self):
        rng = np.random.default_rng(7)
        m = TopicAttentionRnnLm(D, DE, V, K, seed=14)
        h = rng.normal(size=D)
        z = rng.normal(size=m.d_z)
        theta = rng.dirichlet(np.ones(K))
        out = (m.params["Oh"] @ h + m.params["Oz"] @ z + m.params["Otheta"] @ theta)
        logits = np.array([float(m.params["O"][:, j] @ out) for j in range(V)])
        np.testing.assert_allclose(m.next_dist(h, z, theta), softmax(logits),
                                   atol=1e-12)


class TestTarnnTheta:
    """A tarnn checks theta where it enters: loss_and_grads, begin (and so
    start) and make_example; an omitted theta is the uniform one."""

    DIALOGUE = Dialogue(((0, (6, 7, 8)), (1, (9, 10))))
    ENTRIES = {
        "begin": lambda m, bad: m.begin([6, 7], bad),
        "loss_and_grads": lambda m, bad: m.loss_and_grads([6, 7, 8], bad),
        "make_example": lambda m, bad: m.make_example(TestTarnnTheta.DIALOGUE),
        "start": lambda m, bad: m.start(TestTarnnTheta.DIALOGUE),
    }

    @pytest.mark.parametrize("bad", [np.full(K + 1, 1.0 / (K + 1)),
                                     np.array([1.2, -0.2] + [0.0] * (K - 2)),
                                     np.full(K, 1.1 / K),
                                     np.array([np.nan, 0.5, 0.5] + [0.0] * (K - 3))],
                             ids=["length", "negative", "sum", "nan"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_bad_theta_rejected(self, entry, bad):
        m = TopicAttentionRnnLm(D, DE, V, K, seed=15, theta_provider=lambda dialogue: bad)
        # refused by the theta check itself, not by a later non-finite pass
        with pytest.raises(NumericalError, match="^theta must "):
            self.ENTRIES[entry](m, bad)

    def test_example_theta_checked_once(self, monkeypatch):
        # make_example checks the theta an Example carries; training on the
        # example or scoring it checks it no more
        calls = []
        real = TopicAttentionRnnLm._theta

        def counting(m, theta):
            calls.append(theta)
            return real(m, theta)

        monkeypatch.setattr(TopicAttentionRnnLm, "_theta", counting)
        m = TopicAttentionRnnLm(D, DE, V, K, seed=15,
                                theta_provider=lambda dialogue: np.full(K, 1.0 / K))
        ex = m.make_example(self.DIALOGUE)
        assert len(calls) == 1
        loss, grads = m.example_loss_and_grads(ex)
        score = m.example_score(ex)
        assert len(calls) == 1
        # the same bytes as the checked entries give
        want_loss, want_grads = m.loss_and_grads(ex.target, ex.theta)
        want_score = m.score_dialogue(self.DIALOGUE)
        assert len(calls) == 3
        assert loss == want_loss and grads.flat.tobytes() == want_grads.flat.tobytes()
        assert score.per_token.tobytes() == want_score.per_token.tobytes()
        assert score.A.tobytes() == want_score.A.tobytes()

    def test_hand_built_example_reads_none_as_uniform(self):
        # the default provider's None becomes the uniform theta in make_example;
        # a hand-built Example(theta=None) scores and trains under it too
        m = TopicAttentionRnnLm(D, DE, V, K, seed=15)
        uniform = m.make_example(self.DIALOGUE)
        assert uniform.theta.tobytes() == np.full(K, 1.0 / K).tobytes()
        bare = Example(uniform.target, uniform.last)
        for attr in ("per_token", "argmax", "A"):
            assert (getattr(m.example_score(bare), attr).tobytes()
                    == getattr(m.example_score(uniform), attr).tobytes())
        loss, grads = m.example_loss_and_grads(bare)
        want_loss, want_grads = m.example_loss_and_grads(uniform)
        assert loss == want_loss and grads.flat.tobytes() == want_grads.flat.tobytes()

    def test_omitted_theta_is_uniform(self):
        m = TopicAttentionRnnLm(D, DE, V, K, seed=15)
        tokens, uniform = [6, 7, 8, 9], np.full(K, 1.0 / K)
        a = m.score_dialogue(self.DIALOGUE)
        b = forced_score(m, corpus.flatten(self.DIALOGUE), theta=uniform)
        assert a.per_token.tobytes() == b.per_token.tobytes()
        assert a.A.tobytes() == b.A.tobytes()
        (la, ga), (lb, gb) = (m.loss_and_grads(tokens, theta) for theta in (None, uniform))
        assert la == lb and ga.flat.tobytes() == gb.flat.tobytes()
        (pa, wa), (pb, wb) = m.step_dist(m.begin(tokens)), m.step_dist(m.begin(tokens, uniform))
        assert pa.tobytes() == pb.tobytes() and wa.tobytes() == wb.tobytes()
        assert m.make_example(self.DIALOGUE).theta.tobytes() == uniform.tobytes()


class TestSequenceLogLikelihood:
    def test_uniform_model(self):
        m = RnnLm(D, DE, V, seed=16)
        m.params["O"][:] = 0.0
        tokens = random_tokens(np.random.default_rng(8), 7)
        s = forced_score(m, tokens)
        assert abs(s.per_token.sum() - 7 * math.log(1.0 / V)) < 1e-9
        np.testing.assert_allclose(s.per_token, math.log(1.0 / V), atol=1e-12)

    def test_per_token_additivity(self):
        m = AttentionRnnLm(D, DE, V, seed=17)
        tokens = random_tokens(np.random.default_rng(9), 9)
        s = forced_score(m, tokens)
        loss, _ = m.loss_and_grads(tokens)
        assert abs(s.per_token.sum() + loss) < 1e-10

    def test_arnn_manual_recomputation(self):
        # independent step-by-step recomputation using only the single-step ops
        m = AttentionRnnLm(D, DE, V, seed=18)
        rng = np.random.default_rng(10)
        tokens = random_tokens(rng, 6)
        s = forced_score(m, tokens)
        p = m.params
        h = np.zeros(D)
        reps = []
        total = 0.0
        for t, tok in enumerate(tokens):
            if t == 0:
                dist = softmax(p["O"].T @ (p["Oh"] @ h))
            else:
                z, _ = attend(m, prev_h, reps)
                dist = m.next_dist(h, z)
            total += math.log(float(dist[tok]))
            assert abs(math.log(float(dist[tok])) - s.per_token[t]) < 1e-10
            prev_h = h
            h = m.step(h[None], [tok])[0]
            reps.append(np.concatenate([p["E"][:, tok], h]))
        assert abs(total - s.per_token.sum()) < 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            forced_score(RnnLm(D, DE, V, seed=0), [])


class TestSeq2Seq:
    def test_single_source_token_attention(self):
        m = Seq2Seq(D, DE, V, use_attention=True, seed=19)
        s = forced_score(m, [5, 6, 7], source=[4])
        assert s.A.shape == (3, 1)
        np.testing.assert_allclose(s.A, 1.0, atol=1e-12)

    def test_zero_weights_uniform(self):
        m = Seq2Seq(D, DE, V, use_attention=False, seed=20)
        for k in m.params:
            m.params[k][:] = 0.0
        s = forced_score(m, [3, 4], source=[1, 2])
        np.testing.assert_allclose(s.per_token, math.log(1.0 / V), atol=1e-12)

    def test_brute_force_log_likelihood(self):
        m = Seq2Seq(D, DE, V, use_attention=False, seed=21)
        src, tgt = [2, 9, 13], [5, 1]
        s = forced_score(m, tgt, source=src)
        p = m.params
        h = np.zeros(D)
        for tok in src:
            h = np.tanh(p["He"] @ h + p["Pe"] @ p["Ee"][:, tok])
        total = 0.0
        dec = h
        for l, tok in enumerate(tgt):
            if l > 0:
                dec = np.tanh(p["Hd"] @ dec + p["Pd"] @ p["Ed"][:, tgt[l - 1]])
            dist = softmax(p["Od"].T @ dec)
            total += math.log(float(dist[tok]))
        assert abs(total - s.per_token.sum()) < 1e-9

    def test_fixed_scope(self):
        m = Seq2Seq(D, DE, V, use_attention=True, seed=22)
        src = [1, 2, 3, 4, 5]
        s = forced_score(m, [6, 7, 8], source=src)
        assert s.A.shape == (3, len(src))
        for alpha in s.A:
            assert abs(alpha.sum() - 1.0) < 1e-6

    def test_empty_inputs_rejected(self):
        m = Seq2Seq(D, DE, V, seed=23)
        with pytest.raises(DataError):
            forced_score(m, [1], source=[])
        with pytest.raises(DataError):
            forced_score(m, [], source=[1])

    def test_pair_extraction(self):
        d = Dialogue(((0, (10, 11)), (1, (12,))))
        src, tgt = seq2seq_pair(d)
        assert src == [corpus.SPEAKER_A_ID, 10, 11, corpus.EOU_ID, corpus.SPEAKER_B_ID]
        assert tgt == [12, corpus.EOU_ID]
        with pytest.raises(DataError):
            seq2seq_pair(Dialogue(((0, (10,)),)))


class TestDynamicScope:
    def test_row_lengths_grow_by_one(self):
        m = AttentionRnnLm(D, DE, V, seed=24)
        tokens = random_tokens(np.random.default_rng(11), 8)
        s = forced_score(m, tokens)
        # row t - 1 belongs to position t; position 0 attends to nothing
        assert s.A.shape == (len(tokens) - 1, len(tokens) - 1)
        for t in range(1, len(tokens)):
            assert np.all(s.A[t - 1, :t] > 0) and not s.A[t - 1, t:].any()
            assert abs(s.A[t - 1].sum() - 1.0) < 1e-6


class TestAblationEquivalence:
    def test_arnn_with_disabled_attention_matches_rnn(self):
        rng = np.random.default_rng(12)
        arnn = AttentionRnnLm(D, DE, V, seed=25)
        arnn.params["Oz"][:] = 0.0
        arnn.params["Oh"][:] = np.eye(D)
        rnn = with_params(RnnLm(D, DE, V, seed=25),
                          {k: arnn.params[k] for k in ("H", "P", "E", "O")})
        for _ in range(100):
            tokens = random_tokens(rng, int(rng.integers(1, 10)))
            sa = forced_score(arnn, tokens)
            sr = forced_score(rnn, tokens)
            np.testing.assert_allclose(sa.per_token, sr.per_token, atol=1e-9)


class TestDecodeScoreConsistency:
    @pytest.mark.parametrize("kind", ["rnn", "arnn", "tarnn"])
    def test_lm_family(self, kind):
        rng = np.random.default_rng(13)
        m = make_model(kind, D, DE, V, n_topics=K, seed=26)
        theta = rng.dirichlet(np.ones(K)) if kind == "tarnn" else None
        tokens = random_tokens(rng, 7)
        s = forced_score(m, tokens, theta=theta)
        state = m.begin([], theta=theta) if theta is not None else m.begin([])
        for t, tok in enumerate(tokens):
            probs, _ = m.step_dist(state)
            assert abs(math.log(float(probs[0, tok])) - s.per_token[t]) < 1e-10
            state = m.advance(state, [tok])

    @pytest.mark.parametrize("attn", [False, True])
    def test_seq2seq(self, attn):
        rng = np.random.default_rng(14)
        m = Seq2Seq(D, DE, V, use_attention=attn, seed=27)
        src = random_tokens(rng, 5)
        tgt = random_tokens(rng, 4)
        s = forced_score(m, tgt, source=src)
        state = m.begin(src)
        for l, tok in enumerate(tgt):
            probs, alpha = m.step_dist(state)
            assert abs(math.log(float(probs[0, tok])) - s.per_token[l]) < 1e-10
            if attn:
                np.testing.assert_allclose(alpha[0], s.A[l], atol=1e-12)
            state = m.advance(state, [tok])


KINDS = ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn")


class TestStart:
    HISTORY = Dialogue(((0, (6, 7, 8)), (1, (9, 10))))

    @pytest.mark.parametrize("kind", KINDS)
    def test_start_equals_begin_on_prefix(self, kind):
        rng = np.random.default_rng(35)
        theta = rng.dirichlet(np.ones(K))
        m = make_model(kind, D, DE, V, n_topics=K, seed=35)
        m.theta_provider = lambda history: theta
        prefix = corpus.continuation_prefix(self.HISTORY)
        a = m.start(self.HISTORY)
        b = m.begin(prefix, theta) if kind == "tarnn" else m.begin(prefix)
        for tok in random_tokens(rng, 4):
            (pa, wa), (pb, wb) = m.step_dist(a), m.step_dist(b)
            assert pa.tobytes() == pb.tobytes()
            assert (wa is None and wb is None) or wa.tobytes() == wb.tobytes()
            a, b = m.advance(a, [tok]), m.advance(b, [tok])

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_dist_weight_row(self, kind):
        m = make_model(kind, D, DE, V, n_topics=K, seed=36)
        state = m.start(self.HISTORY)
        for tok in (6, 7):
            probs, alpha = m.step_dist(state)
            assert abs(probs[0].sum() - 1.0) < 1e-12
            if kind in ("rnn", "seq2seq"):
                assert alpha is None
            else:
                assert abs(alpha[0].sum() - 1.0) < 1e-12
            state = m.advance(state, [tok])


class _NanEmpty:
    """numpy as dialoglm.models.lm sees it, except that np.empty hands out
    buffers filled with NaN: a row read before it was written shows."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.full(shape, np.nan)


class TestBatchedDecode:
    """Row b of a batched decode state is bitwise the hypothesis it stands for,
    decoded alone, whatever else shares the batch."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
           d=st.integers(1, 9), prefix=st.lists(st.integers(0, V - 1), min_size=1, max_size=12),
           steps=st.lists(st.lists(st.tuples(st.integers(0, 99), st.integers(0, V - 1)),
                                   min_size=1, max_size=6), min_size=1, max_size=7))
    # the capacity doubles on a step that shrinks the batch to one row (a fresh
    # arena with more slots than rows), and the next step grows it again; the
    # arena keeps only two rows past the prefix, so that the capacity runs out
    @example(kind="arnn", seed=0, d=1, prefix=[3],
             steps=[[(0, 1), (0, 2), (0, 3)], [(0, 4), (1, 5), (2, 6)], [(1, 7)],
                    [(0, 8), (0, 9), (0, 10)]])
    def test_rows_match_single_hypothesis(self, kind, seed, d, prefix, steps):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lm, "np", _NanEmpty())  # an unwritten arena row is NaN, not luck
            mp.setattr(lm, "DECODE_ROOM", 2)
            theta = np.random.default_rng(seed).dirichlet(np.ones(K))
            m = make_model(kind, d, DE, V, n_topics=K, seed=seed)
            begin = ((lambda: m.begin(prefix, theta)) if kind == "tarnn"
                     else (lambda: m.begin(prefix)))
            state, histories = begin(), [[]]
            for step in steps:  # each step: (parent, token) per new row
                parents = [p % len(histories) for p, _ in step]
                tokens = [tok for _, tok in step]
                state = m.advance(state, tokens, parents)
                histories = [histories[p] + [tok] for p, tok in zip(parents, tokens)]
                probs, alpha = m.step_dist(state)
                assert probs.shape == (len(histories), V)
                for row, hist in enumerate(histories):
                    single = begin()
                    for tok in hist:
                        single = m.advance(single, [tok])
                    p1, a1 = m.step_dist(single)
                    assert probs[row].tobytes() == p1[0].tobytes()
                    assert ((alpha is None and a1 is None)
                            or alpha[row].tobytes() == a1[0].tobytes())


class TestDecodeState:
    """Every kind decodes through one state class; a fixed scope is shared by
    every row and every step, never copied."""

    STEPS = (([7], None), ([8, 9, 10], [0, 0, 0]), ([11, 12], [2, 0]),
             ([13, 14, 15, 16], [1, 0, 1, 0]))  # the parents reorder, the batch grows

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_steps_decode_states(self, kind):
        m = make_model(kind, D, DE, V, n_topics=K, seed=44)
        state = m.begin([3, 4, 5])
        assert type(state) is DecodeState
        for tokens, parents in self.STEPS:
            state = m.advance(state, tokens, parents)
            assert type(state) is DecodeState and len(state.h) == len(tokens)

    @pytest.mark.parametrize("kind", ["seq2seq", "seq2seq_attn"])
    def test_fixed_scope_is_never_copied(self, kind):
        m = make_model(kind, D, DE, V, seed=45)
        state = m.begin([3, 4, 5, 6])
        R, UR = state.R, state.UR
        assert R.shape == (4, D) and (UR is None) == (kind == "seq2seq")
        for tokens, parents in self.STEPS:
            m.step_dist(state)
            state = m.advance(state, tokens, parents)
            assert state.R is R and state.UR is UR


class TestGradients:
    """Quick per-variant checks; the 20-seed battery lives in the acceptance suite."""

    @pytest.mark.parametrize("kind", ["rnn", "arnn", "tarnn"])
    def test_lm_family(self, kind):
        rng = np.random.default_rng(15)
        m = make_model(kind, D, DE, V, n_topics=K, seed=28)
        for k in m.params:
            m.params[k] *= 5.0  # generic point with healthy gradient magnitudes
        tokens = random_tokens(rng, 5)
        kw = {"theta": rng.dirichlet(np.ones(K))} if kind == "tarnn" else {}
        _, grads = m.loss_and_grads(tokens, **kw)
        err = grad_check(lambda: m.loss_and_grads(tokens, **kw)[0], m.params,
                         grads, eps=3e-4, samples_per_array=8,
                         rng=np.random.default_rng(0))
        assert err < 1e-4

    @pytest.mark.parametrize("attn", [False, True])
    def test_seq2seq(self, attn):
        rng = np.random.default_rng(16)
        m = Seq2Seq(D, DE, V, use_attention=attn, seed=29)
        for k in m.params:
            m.params[k] *= 5.0
        src = random_tokens(rng, 5)
        tgt = random_tokens(rng, 4)
        _, grads = m.loss_and_grads(src, tgt)
        err = grad_check(lambda: m.loss_and_grads(src, tgt)[0], m.params, grads,
                         eps=3e-4, samples_per_array=8,
                         rng=np.random.default_rng(0))
        assert err < 1e-4

    @pytest.mark.parametrize("kind", ["rnn", "arnn"])
    def test_theta_is_ignored_without_a_topic_feature(self, kind):
        # only tarnn has Otheta; another LM trains as if no theta were given
        rng = np.random.default_rng(46)
        m = make_model(kind, D, DE, V, seed=47)
        tokens, theta = random_tokens(rng, 9), rng.dirichlet(np.ones(K))
        loss, grads = m.loss_and_grads(tokens)
        loss_theta, grads_theta = m.loss_and_grads(tokens, theta)
        assert loss_theta == loss
        assert grads_theta.flat.tobytes() == grads.flat.tobytes()


    @staticmethod
    def _across_blocks(kind, seed):
        # 2k + 1 attending positions: three blocks of scoped_attention queries
        rng = np.random.default_rng(17)
        m = make_model(kind, D, DE, V, seed=seed)
        for k in m.params:
            m.params[k] *= 5.0
        n = 2 * ATTENTION_BLOCK + 1
        if kind == "arnn":
            args = (random_tokens(rng, n + 1),)  # position 0 attends to nothing
        else:
            args = (random_tokens(rng, 7), random_tokens(rng, n))
        _, grads = m.loss_and_grads(*args)
        return m, lambda: m.loss_and_grads(*args)[0], grads

    @pytest.mark.parametrize("kind", ["arnn", "seq2seq_attn"])
    def test_attention_across_blocks(self, kind):
        m, loss, grads = self._across_blocks(kind, seed=34)
        err = grad_check(loss, m.params, grads, eps=3e-4, samples_per_array=8,
                         rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_unresolvable_entry_is_not_a_failure(self):
        # one probed W entry is 2.25e-7 on a loss near 99; central differences
        # agree with it only to their rounding noise (about 7e-11), which a
        # floor of 1e-8 on the denominator read as 1.5e-4 relative error
        m, loss, grads = self._across_blocks("seq2seq_attn", seed=33)
        err = grad_check(loss, m.params, grads, eps=3e-4, samples_per_array=8,
                         rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_planted_error_still_fails(self):
        # a 1e-3 relative error in the largest probed entry of any one array
        m, loss, grads = self._across_blocks("seq2seq_attn", seed=33)
        for name, p in m.params.items():
            g = grads[name].reshape(-1)
            probed = (np.arange(g.size) if g.size <= 8 else
                      np.random.default_rng(0).choice(g.size, size=8, replace=False))
            planted = g.copy()
            i = probed[np.argmax(np.abs(g[probed]))]
            planted[i] *= 1.0 + 1e-3
            err = grad_check(loss, {name: p}, {name: planted.reshape(p.shape)},
                             eps=3e-4, samples_per_array=8, rng=np.random.default_rng(0))
            assert err > 1e-4, name


KINDS = ["rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn"]


def _snapshot(score):
    """The fields of a score, arrays as their bytes."""
    return {name: v.tobytes() if isinstance(v, np.ndarray) else v
            for name, v in vars(score).items()}


class TestReusedBuffers:
    """A training run passes one gradient arena to every step, and the
    teacher-forced output layer writes into buffers each model reuses: the
    results are the bytes of fresh ones, and nothing returned aliases them."""

    @staticmethod
    def _args(kind, rng, n):
        if kind.startswith("seq2seq"):
            return random_tokens(rng, 5), random_tokens(rng, n)
        return random_tokens(rng, n), rng.dirichlet(np.ones(K)) if kind == "tarnn" else None

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_arena_gives_the_bytes_of_fresh_ones(self, kind):
        rng = np.random.default_rng(40)
        m = make_model(kind, D, DE, V, n_topics=K, seed=41)
        for k in m.params:
            m.params[k] *= 5.0
        grads = zero_grads(m.params)
        for n in (9, 23, 4):  # the buffers grow, then a shorter pass reuses them
            args = self._args(kind, rng, n)
            twin = make_model(kind, D, DE, V, n_topics=K, flat=m.params.flat)
            ref_loss, ref = twin.loss_and_grads(*args)
            loss, got = m.loss_and_grads(*args, grads=grads)
            assert got is grads
            assert loss == ref_loss
            assert list(got) == list(ref) and got.flat.tobytes() == ref.flat.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_survive_later_passes(self, kind):
        rng = np.random.default_rng(42)
        m = make_model(kind, D, DE, V, n_topics=K, seed=43)
        dialogue = lambda n: Dialogue(((0, random_tokens(rng, n, lo=6)),
                                       (1, random_tokens(rng, n, lo=6))))
        first = m.make_example(dialogue(7))
        scores = [m.example_score(first), m.score_dialogue(dialogue(7))]
        kept = [_snapshot(s) for s in scores]
        for n in (25, 2):  # longer, so the buffers grow, then shorter
            later = m.make_example(dialogue(n))
            m.example_score(later)
            m.example_loss_and_grads(later)
        assert [_snapshot(s) for s in scores] == kept


class TestCheckpoints:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_bitwise(self, tmp_path, kind):
        m = make_model(kind, D, DE, V, n_topics=K, seed=30)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, "f" * 64)
        m2 = load_checkpoint(path, expect_vocab_sha256="f" * 64)
        assert m2.kind == m.kind
        assert set(m2.params) == set(m.params)
        for k in m.params:
            np.testing.assert_array_equal(m2.params[k], m.params[k])

    def test_vocab_hash_mismatch(self, tmp_path):
        m = RnnLm(D, DE, V, seed=31)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, "a" * 64)
        with pytest.raises(DataError, match="vocabulary"):
            load_checkpoint(path, expect_vocab_sha256="b" * 64)

    def test_truncation_detected(self, tmp_path):
        m = RnnLm(D, DE, V, seed=32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, "a" * 64)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A small tarnn checkpoint: its bytes, a path to overwrite, and the
    vocabulary binding (hash and size) that the CLI passes to ``load_checkpoint``."""
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, make_model("tarnn", 3, 2, 12, n_topics=2, seed=5), "e" * 64)
    return path.read_bytes(), path, {"expect_vocab_sha256": "e" * 64, "expect_vocab_size": 12}


class TestCheckpointDamage:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_is_a_data_error(self, checkpoint_file, cut):
        blob, path, binding = checkpoint_file
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(DataError):
            load_checkpoint(path, **binding)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(extra=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_are_a_data_error(self, checkpoint_file, extra):
        blob, path, binding = checkpoint_file
        path.write_bytes(blob + extra)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path, **binding)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
    def test_corrupted_header_byte(self, checkpoint_file, where, byte):
        # every number in the header is a dimension or a shape, checked against
        # the parameter shapes, the vocabulary size and the file length, so any
        # replaced byte gives DataError; only whitespace for whitespace may load
        blob, path, binding = checkpoint_file
        header = blob[:blob.index(b"\n")]
        i = min(int(where * len(header)), len(header) - 1)
        if byte == header[i]:
            byte ^= 0x20
        path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
        if header[i] in b" \t\r" and byte in b" \t\r":
            load_checkpoint(path, **binding)
        else:
            with pytest.raises(DataError):
                load_checkpoint(path, **binding)

    @pytest.mark.parametrize("edit", ["duplicate", "swap", "rename"])
    def test_header_arrays_must_be_the_kind_layout(self, checkpoint_file, edit):
        blob, path, binding = checkpoint_file
        path.write_bytes(misstate_layout(blob, edit))
        with pytest.raises(DataError) as err:
            load_checkpoint(path, **binding)
        assert str(err.value).startswith(f"{path}: ")


class TestForwardFinite:
    @pytest.mark.parametrize("kind", ["rnn", "arnn", "tarnn"])
    def test_finite_outputs(self, kind):
        rng = np.random.default_rng(17)
        m = make_model(kind, D, DE, V, n_topics=K, seed=33)
        for k in m.params:
            m.params[k] *= 20.0  # near-saturation regime
        tokens = random_tokens(rng, 6)
        kw = {"theta": rng.dirichlet(np.ones(K))} if kind == "tarnn" else {}
        s = forced_score(m, tokens, **kw)
        assert np.all(np.isfinite(s.per_token))

    @pytest.mark.parametrize("attn", [False, True])
    def test_seq2seq_finite_outputs(self, attn):
        rng = np.random.default_rng(18)
        m = Seq2Seq(D, DE, V, use_attention=attn, seed=34)
        for k in m.params:
            m.params[k] *= 20.0
        src = random_tokens(rng, 6)
        s = forced_score(m, random_tokens(rng, 4), source=src)
        assert np.all(np.isfinite(s.per_token))

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_loss_refused_before_backward(self, kind):
        # a log-probability that underflowed to -inf gives an infinite loss:
        # every kind refuses it in one place, before any gradient is written
        m = make_model(kind, D, DE, V, n_topics=K, seed=48)
        forward = m._forward

        def underflowed(*args):
            fw = forward(*args)
            fw["logps"][0] = -np.inf
            return fw

        m._forward = underflowed
        tokens = random_tokens(np.random.default_rng(48), 9)
        args = (tokens[:4], tokens[4:]) if kind.startswith("seq2seq") else (tokens,)
        grads = zero_grads(m.params)
        with pytest.raises(NumericalError, match="^non-finite loss in backward pass$"):
            m.loss_and_grads(*args, grads=grads)
        assert not grads.flat.any()
