import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dialoglm import corpus, numeric
from dialoglm.corpus import Dialogue, Vocabulary
from dialoglm.errors import DataError
from dialoglm.generator import (Candidate, continuation_log_likelihood,
                                continuation_logp_from, format_candidates, format_trace,
                                generate, norm_score, trace_attention)
from dialoglm.metrics import recall_at_n
from dialoglm.models import AttentionRnnLm, RnnLm, TopicAttentionRnnLm, make_model

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
            [(probs, _)] = m.step_dist([state])
            tok = int(np.argmax(probs))
            expected.append(tok)
            if tok == corpus.EOU_ID:
                break
            [state] = m.advance([state], [[tok]], [[0]])
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

    @pytest.mark.parametrize("len_norm", [math.nan, math.inf, -math.inf])
    def test_non_finite_len_norm_rejected(self, len_norm):
        with pytest.raises(DataError, match="len_norm"):
            generate(tiny_model(), HISTORY, VOCAB, len_norm=len_norm)

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
        uniform = TopicAttentionRnnLm(6, 4, V, 3, flat=m.params.flat)
        return m, uniform

    def _under_theta(self, m, tokens):
        state = m.begin(corpus.continuation_prefix(HISTORY), self.THETA)
        return continuation_logp_from(m, [state], [[tokens]])[0][0]

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


# ---------------------------------------------------------------------------
# the per-hypothesis decode loops that the batched ones replaced


@dataclass
class _Hyp:
    state: object
    tokens: list
    logp: float
    rows: list


def _reference_generate(model, history, vocab, beam_width=10, max_len=30, n_best=10,
                        len_norm=1.0, record_trace=False):
    """Beam search with one one-row decode state per hypothesis; a state is
    copied before it branches, since ``advance`` may reuse its buffers."""
    beams = [_Hyp(state=model.start(history), tokens=[], logp=0.0, rows=[])]
    finished = []
    for _ in range(max_len):
        pool = []
        for hyp in beams:
            [(probs, alpha)] = model.step_dist([hyp.state])
            alpha = None if alpha is None else alpha[0]
            with np.errstate(divide="ignore"):
                logps = np.log(probs[0])
            k = min(beam_width, len(logps))
            top = np.argpartition(-logps, k - 1)[:k]
            top = top[np.argsort(-logps[top], kind="stable")]
            for tok in top:
                tok = int(tok)
                rows = hyp.rows + [alpha] if record_trace else hyp.rows
                ext = _Hyp(hyp.state, hyp.tokens + [tok], hyp.logp + float(logps[tok]), rows)
                if tok == corpus.EOU_ID:
                    finished.append(ext)
                else:
                    pool.append(ext)
        pool.sort(key=lambda h: (-h.logp, h.tokens))
        beams = [
            _Hyp(model.advance([copy.deepcopy(h.state)], [[h.tokens[-1]]], [[0]])[0], h.tokens,
                 h.logp, h.rows)
            for h in pool[:beam_width]
        ]
        if not beams:
            break
    finished.extend(beams)
    ranked = sorted(
        finished,
        key=lambda h: (-norm_score(h.logp, len(h.tokens), len_norm), h.tokens),
    )
    return [(h.tokens, h.logp, norm_score(h.logp, len(h.tokens), len_norm),
             h.rows if record_trace else None) for h in ranked[:n_best]]


def _reference_continuation_logp_from(model, state, tokens):
    total = 0.0
    for tok in tokens:
        [(probs, _)] = model.step_dist([state])
        p = float(probs[0, tok])
        total += math.log(p) if p > 0.0 else -math.inf
        [state] = model.advance([state], [[tok]], [[0]])
    return total


def _reference_recall_at_n(model, candidate_sets, n, len_norm=1.0):
    hits = 0
    for cs in candidate_sets:
        root = model.start(cs.history)
        scores = []
        for cand in cs.candidates:
            seq = list(cand) + [corpus.EOU_ID]
            lp = _reference_continuation_logp_from(model, copy.deepcopy(root), seq)
            scores.append(norm_score(lp, len(seq), len_norm))
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        if order.index(cs.truth_index) < n:
            hits += 1
    return hits / len(candidate_sets)


def _bytes(x):
    return np.float64(x).tobytes()


def _candidate_bytes(tokens, loglik, norm, rows):
    return (tokens, _bytes(loglik), _bytes(norm),
            None if rows is None else [r.tobytes() for r in rows])


KINDS = ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn")
LONG_HISTORY = Dialogue(((0, (6, 7, 8, 9)), (1, (10, 11)), (0, (6, 6, 9)), (1, (7,))))


def _decode_models():
    """Every kind at the init scale, and peaked (scaled) so that many
    probabilities underflow and the beam meets exact ties; a tarnn scores
    under a non-uniform provider theta."""
    theta = np.array([0.6, 0.3, 0.1])
    for kind in KINDS:
        for scale in (1.0, 300.0):
            m = make_model(kind, 5, 4, V, n_topics=3, seed=41)
            m.theta_provider = lambda history: theta
            for p in m.params.values():
                p *= scale
            yield kind, scale, m


class TestBatchedDecodeMatchesReference:
    @pytest.mark.parametrize("beam_width", [1, 3, 10])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_generate(self, beam_width, record_trace):
        for kind, scale, m in _decode_models():
            if record_trace and not m.attends:
                continue
            for history in (HISTORY, LONG_HISTORY):
                for len_norm in (1.0, 0.5):
                    kw = dict(beam_width=beam_width, max_len=30, n_best=beam_width,
                              len_norm=len_norm, record_trace=record_trace)
                    got = [_candidate_bytes(c.tokens, c.loglik, c.norm_score,
                                            c.trace.rows if record_trace else None)
                           for c in generate(m, history, VOCAB, **kw)]
                    want = [_candidate_bytes(*c)
                            for c in _reference_generate(m, history, VOCAB, **kw)]
                    assert got == want, (kind, scale, history, len_norm)

    def test_continuation_logp_from_and_recall(self):
        rng = np.random.default_rng(43)
        for kind, scale, m in _decode_models():
            sets = []
            for history in (HISTORY, LONG_HISTORY):
                cands = tuple(tuple(int(t) for t in rng.integers(0, V, int(rng.integers(0, 7))))
                              for _ in range(10))
                sets.append(corpus.CandidateSet(history=history, candidates=cands,
                                                truth_index=int(rng.integers(0, 10))))
                seqs = [list(c) + [corpus.EOU_ID] for c in cands] + [[], [6]]
                [got] = continuation_logp_from(m, [m.start(history)], [seqs])
                want = [_reference_continuation_logp_from(m, m.start(history), seq)
                        for seq in seqs]
                assert [_bytes(x) for x in got] == [_bytes(x) for x in want], (kind, scale)
            for n in range(1, 11):
                assert recall_at_n(m, sets, n) == _reference_recall_at_n(m, sets, n)


class TestLockstepGenerate:
    """generate over a list of histories steps their beams in lockstep, one
    decode state per piece of numeric.lanes; each history gets bitwise what
    generate gives it alone."""

    HISTORIES = [LONG_HISTORY, HISTORY, Dialogue(((1, (9,)),))]  # unequal lengths

    @pytest.fixture(params=["one lane", "two lanes"])
    def lanes_on(self, request, monkeypatch):
        if request.param == "two lanes":  # the worker takes pieces even for tiny models
            request.getfixturevalue("two_cpus")
            monkeypatch.setattr(numeric, "LANE_MIN", 0)
        return request.param

    @staticmethod
    def _bytes(cands):
        return [_candidate_bytes(c.tokens, c.loglik, c.norm_score,
                                 c.trace.rows if c.trace else None) for c in cands]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_matches_one_history(self, lanes_on, n, record_trace):
        for kind, scale, m in _decode_models():
            if record_trace and not m.attends:
                continue
            for beam_width in (1, 4):
                kw = dict(beam_width=beam_width, max_len=8, n_best=beam_width,
                          record_trace=record_trace)
                got = generate(m, self.HISTORIES[:n], VOCAB, **kw)
                want = [generate(m, h, VOCAB, **kw) for h in self.HISTORIES[:n]]
                assert [self._bytes(c) for c in got] == [self._bytes(c) for c in want], \
                    (kind, scale, beam_width)

    def test_member_whose_beam_empties_early(self, lanes_on):
        # a greedy beam empties when its best token is </u>; the other member
        # goes on stepping alone
        covered = []
        for kind, scale, m in _decode_models():
            for pair in itertools.permutations(self.HISTORIES, 2):
                got = generate(m, list(pair), VOCAB, beam_width=1, max_len=8, n_best=1)
                want = [generate(m, h, VOCAB, beam_width=1, max_len=8, n_best=1)
                        for h in pair]
                assert [self._bytes(c) for c in got] == [self._bytes(c) for c in want]
                ends = [len(c[0].tokens) for c in got]
                if got[0][0].tokens[-1] == corpus.EOU_ID and ends[0] < ends[1]:
                    covered.append((kind, scale))
        assert covered

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_second_history_raises_as_serial(self, lanes_on, kind):
        m = make_model(kind, 5, 4, V, n_topics=3, seed=41)
        bad = Dialogue(((0, (6, V + 3)),))
        with pytest.raises(DataError) as serial:
            for h in (HISTORY, bad):
                generate(m, h, VOCAB, beam_width=2, max_len=3, n_best=2)
        with pytest.raises(DataError) as grouped:
            generate(m, [HISTORY, bad], VOCAB, beam_width=2, max_len=3, n_best=2)
        assert str(grouped.value) == str(serial.value)

    def test_one_element_list_steps_on_the_calling_thread(self, two_cpus, monkeypatch):
        # a group of one hands no piece to the worker, however large its work;
        # recall@N and a trace step a list of one state too
        monkeypatch.setattr(numeric, "LANE_MIN", 0)
        m = make_model("arnn", 5, 4, V, seed=41)
        generate(m, [HISTORY], VOCAB, beam_width=3, max_len=4, n_best=3)
        cands = ((6, 7), (8,), ()) * 3 + ((9,),)
        recall_at_n(m, [corpus.CandidateSet(HISTORY, cands, 1)], 1)
        trace_attention(m, HISTORY, [6, 7, corpus.EOU_ID], VOCAB)
        assert two_cpus == []


class TestPairedContinuations:
    """recall@N sends its candidate sets through continuation_logp_from two
    at a time, their states stepped in lockstep; forced onto two lanes, each
    sum has the bits of the one-state reference."""

    @pytest.fixture
    def forced(self, two_cpus, monkeypatch):
        monkeypatch.setattr(numeric, "LANE_MIN", 0)
        return two_cpus

    HISTORIES = TestLockstepGenerate.HISTORIES

    def test_recall_over_an_odd_number_of_sets(self, forced):
        rng = np.random.default_rng(47)
        for kind, scale, m in _decode_models():
            sets = [corpus.CandidateSet(
                        history=self.HISTORIES[i % 3],
                        candidates=tuple(tuple(int(t) for t in rng.integers(
                            0, V, int(rng.integers(0, 7)))) for _ in range(10)),
                        truth_index=int(rng.integers(0, 10)))
                    for i in range(5)]
            seqs = [[list(c) + [corpus.EOU_ID] for c in cs.candidates] for cs in sets]
            got = continuation_logp_from(m, [m.start(cs.history) for cs in sets[:2]], seqs[:2])
            want = [[_reference_continuation_logp_from(m, m.start(cs.history), seq)
                     for seq in set_seqs] for cs, set_seqs in zip(sets, seqs[:2])]
            assert [[_bytes(x) for x in lp] for lp in got] == \
                [[_bytes(x) for x in lp] for lp in want], (kind, scale)
            for n in (1, 3, 10):
                assert recall_at_n(m, sets, n) == _reference_recall_at_n(m, sets, n)
        assert forced, "numeric.lanes never handed off"

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_token_in_second_set_raises_before_any_step(self, forced, kind, monkeypatch):
        m = make_model(kind, 5, 4, V, n_topics=3, seed=41)
        steps, real = [], m.step_dist
        monkeypatch.setattr(m, "step_dist", lambda states: steps.append(1) or real(states))
        good = corpus.CandidateSet(HISTORY, ((6, 7),) * 10, 0)
        bad = corpus.CandidateSet(LONG_HISTORY, ((6,),) * 9 + ((8, V + 2),), 0)
        with pytest.raises(DataError, match="out of range"):
            recall_at_n(m, [good, bad], 1)
        assert steps == []


class TestContinuationTokens:
    """Continuation scoring checks every token before it steps, the last
    one of a sequence included."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_range_token_raises(self, kind):
        m = make_model(kind, 5, 4, V, n_topics=3, seed=41)
        for bad in (-1, V, V + 3):
            for seq in ([6, bad], [bad], [bad, 6]):
                with pytest.raises(DataError, match="out of range"):
                    continuation_log_likelihood(m, HISTORY, seq)
            with pytest.raises(DataError, match="out of range"):
                continuation_logp_from(m, [m.start(HISTORY)], [[[6, 7], [], [8, bad]]])
