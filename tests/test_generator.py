import itertools
import math

import numpy as np
import pytest

from dialoglm import corpus
from dialoglm.corpus import Dialogue, Vocabulary
from dialoglm.errors import DataError
from dialoglm.generator import (Candidate, continuation_log_likelihood,
                                continuation_logp_from, format_candidates, format_trace,
                                generate, norm_score, trace_attention)
from dialoglm.metrics import recall_at_n
from dialoglm.models import AttentionRnnLm, RnnLm, TopicAttentionRnnLm

VOCAB = Vocabulary([f"w{i}" for i in range(6)])  # V = 12
V = VOCAB.size
HISTORY = Dialogue(((0, (6, 7, 8)), (1, (9, 10))))


def tiny_model(kind=RnnLm, seed=0, d=6, d_e=4):
    return kind(d, d_e, V, seed=seed)


def exhaustive_best(model, history, max_len, len_norm=1.0):
    """Enumerate every sequence up to max_len (stopping at </u>) and return
    the best by normalized score; the independent search oracle."""
    prefix = corpus.continuation_prefix(history)
    non_eou = [t for t in range(V) if t != corpus.EOU_ID]
    best = None
    seqs = []
    for length in range(1, max_len + 1):
        for body in itertools.product(non_eou, repeat=length - 1):
            seqs.append(list(body) + [corpus.EOU_ID])
        if length == max_len:
            for body in itertools.product(non_eou, repeat=length):
                seqs.append(list(body))
    for seq in seqs:
        lp = continuation_log_likelihood(model, history, seq)
        score = lp / (len(seq) ** len_norm)
        if best is None or score > best[0]:
            best = (score, seq)
    return best


class TestGenerate:
    def test_greedy_is_argmax_path(self):
        m = tiny_model(seed=1)
        (cand,) = generate(m, HISTORY, VOCAB, beam_width=1, max_len=6, n_best=1)
        state = m.begin(corpus.continuation_prefix(HISTORY))
        expected = []
        for _ in range(6):
            probs, _ = m.step_dist(state)
            tok = int(np.argmax(probs))
            expected.append(tok)
            if tok == corpus.EOU_ID:
                break
            state = m.advance(state, tok)
        assert cand.tokens == expected

    def test_wide_beam_matches_exhaustive_oracle(self):
        m = tiny_model(seed=2)
        # beam wide enough to hold every partial hypothesis is exhaustive
        cands = generate(m, HISTORY, VOCAB, beam_width=V ** 3, max_len=3,
                         n_best=1)
        score, seq = exhaustive_best(m, HISTORY, max_len=3)
        assert cands[0].tokens == seq
        assert abs(cands[0].norm_score - score) < 1e-12

    def test_ordering_contract(self):
        m = tiny_model(AttentionRnnLm, seed=3)
        cands = generate(m, HISTORY, VOCAB, beam_width=8, max_len=5, n_best=8)
        scores = [c.norm_score for c in cands]
        assert scores == sorted(scores, reverse=True)

    def test_candidates_consistent_with_rescoring(self):
        m = tiny_model(AttentionRnnLm, seed=4)
        cands = generate(m, HISTORY, VOCAB, beam_width=6, max_len=5, n_best=6)
        for c in cands:
            lp = continuation_log_likelihood(m, HISTORY, c.tokens)
            assert abs(lp - c.loglik) < 1e-9

    def test_greedy_bit_identical(self):
        m = tiny_model(seed=5)
        a = generate(m, HISTORY, VOCAB, beam_width=1, max_len=8, n_best=1)
        b = generate(m, HISTORY, VOCAB, beam_width=1, max_len=8, n_best=1)
        assert a[0].tokens == b[0].tokens
        assert a[0].loglik == b[0].loglik

    def test_beam_width_monotone_top_score(self):
        # wider beams never hurt the top normalized score on these instances
        for seed in range(12):
            m = tiny_model(AttentionRnnLm, seed=100 + seed)
            best = -math.inf
            for width in (1, 2, 4, 8, V ** 3):
                c = generate(m, HISTORY, VOCAB, beam_width=width, max_len=3,
                             n_best=1)[0]
                assert c.norm_score >= best - 1e-12
                best = max(best, c.norm_score)

    def test_empty_history_rejected(self):
        with pytest.raises(DataError):
            generate(tiny_model(), Dialogue(()), VOCAB)

    def test_parameter_validation(self):
        m = tiny_model()
        with pytest.raises(DataError):
            generate(m, HISTORY, VOCAB, beam_width=0)
        with pytest.raises(DataError):
            generate(m, HISTORY, VOCAB, beam_width=2, n_best=3)
        with pytest.raises(DataError):
            generate(m, HISTORY, VOCAB, max_len=0)

    def test_length_normalization_exponent(self):
        m = tiny_model(seed=6)
        for exp in (0.0, 0.7, 1.0):
            cands = generate(m, HISTORY, VOCAB, beam_width=4, max_len=4,
                             n_best=4, len_norm=exp)
            for c in cands:
                assert abs(c.norm_score - c.loglik / len(c.tokens) ** exp) < 1e-12


class TestTraceAttention:
    def test_row_lengths_and_sums(self):
        m = tiny_model(AttentionRnnLm, seed=7)
        cont = [6, 7, corpus.EOU_ID]
        trace = trace_attention(m, HISTORY, cont, VOCAB)
        prefix_len = len(corpus.continuation_prefix(HISTORY))
        assert len(trace.rows) == len(cont)
        for t, row in enumerate(trace.rows):
            assert len(row) == prefix_len + t
            assert abs(row.sum() - 1.0) < 1e-6

    def test_first_row_covers_exactly_the_history(self):
        m = tiny_model(AttentionRnnLm, seed=8)
        trace = trace_attention(m, HISTORY, [6], VOCAB)
        assert len(trace.rows[0]) == len(corpus.continuation_prefix(HISTORY))

    def test_matches_generate_recorded_rows(self):
        m = tiny_model(AttentionRnnLm, seed=9)
        (cand,) = generate(m, HISTORY, VOCAB, beam_width=2, max_len=4, n_best=1,
                           record_trace=True)
        replay = trace_attention(m, HISTORY, cand.tokens, VOCAB)
        assert len(replay.rows) == len(cand.trace.rows)
        for a, b in zip(replay.rows, cand.trace.rows):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_attention_free_model_rejected(self):
        with pytest.raises(DataError):
            trace_attention(tiny_model(RnnLm), HISTORY, [6], VOCAB)

    def test_empty_continuation_rejected(self):
        with pytest.raises(DataError):
            trace_attention(tiny_model(AttentionRnnLm), HISTORY, [], VOCAB)


class TestExports:
    def test_trace_format_round_trip_values(self):
        m = tiny_model(AttentionRnnLm, seed=10)
        trace = trace_attention(m, HISTORY, [6, 7], VOCAB)
        text = format_trace(trace)
        lines = text.splitlines()
        assert lines[0] == "attention-trace 1"
        assert lines[1].startswith("prefix: ")
        assert lines[2].startswith("generated: ")
        for t, line in enumerate(lines[3:]):
            idx, label, weights = line.split("\t")
            assert int(idx) == t
            got = [float(x) for x in weights.split()]
            np.testing.assert_array_equal(got, trace.rows[t])

    def test_candidate_dump_format(self):
        cands = [
            Candidate(tokens=[6, 7, corpus.EOU_ID], loglik=-2.5, norm_score=-2.5 / 3),
            Candidate(tokens=[8], loglik=-4.0, norm_score=-4.0),
        ]
        text = format_candidates(cands, VOCAB)
        lines = text.splitlines()
        head, body = lines[0].split("\t")
        rank, norm, raw = head.split(" ")
        assert rank == "1"
        assert float(norm) == -2.5 / 3 and float(raw) == -2.5
        assert body == "w0 w1"  # reserved </u> stripped from the text
        assert lines[1].endswith("w2")


class TestTopicFeature:
    """A tarnn decodes from a history under its provider's theta, never uniform."""

    THETA = np.array([0.7, 0.2, 0.1])

    def _model(self, provider_calls):
        def provider(history):
            provider_calls.append(history)
            return self.THETA

        m = TopicAttentionRnnLm(6, 4, V, 3, seed=11, theta_provider=provider)
        m.params["Otheta"] *= 30.0  # make theta move the scores visibly
        uniform = TopicAttentionRnnLm(6, 4, V, 3, params=m.params)
        return m, uniform

    def _under_theta(self, m, tokens):
        state = m.begin(corpus.continuation_prefix(HISTORY), self.THETA)
        return continuation_logp_from(m, state, tokens)

    def test_continuation_log_likelihood(self):
        calls = []
        m, uniform = self._model(calls)
        seq = [6, 7, corpus.EOU_ID]
        lp = continuation_log_likelihood(m, HISTORY, seq)
        assert calls == [HISTORY]
        assert lp == self._under_theta(m, seq)
        assert lp != continuation_log_likelihood(uniform, HISTORY, seq)

    def test_generate(self):
        calls = []
        m, uniform = self._model(calls)
        cands = generate(m, HISTORY, VOCAB, beam_width=3, max_len=4, n_best=3)
        assert calls == [HISTORY]
        for c in cands:
            assert c.loglik == self._under_theta(m, c.tokens)
        plain = generate(uniform, HISTORY, VOCAB, beam_width=3, max_len=4, n_best=3)
        assert [c.loglik for c in cands] != [c.loglik for c in plain]

    def test_trace_attention(self):
        calls = []
        m, _ = self._model(calls)
        trace = trace_attention(m, HISTORY, [6, 7], VOCAB)
        assert calls == [HISTORY]
        assert len(trace.rows) == 2

    def test_recall_at_n(self):
        calls = []
        m, _ = self._model(calls)
        rng = np.random.default_rng(12)
        cands = tuple(tuple(int(t) for t in rng.integers(6, V, size=int(rng.integers(1, 4))))
                      for _ in range(10))
        scores = [norm_score(self._under_theta(m, list(c) + [corpus.EOU_ID]), len(c) + 1, 1.0)
                  for c in cands]
        order = sorted(range(10), key=lambda i: (-scores[i], i))
        for truth in range(10):
            cs = corpus.CandidateSet(history=HISTORY, candidates=cands, truth_index=truth)
            calls.clear()
            assert recall_at_n(m, [cs], 1) == float(order[0] == truth)
            assert calls == [HISTORY]
