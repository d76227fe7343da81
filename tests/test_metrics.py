import math
from collections import Counter

import numpy as np
import pytest
from conftest import bleu_oracle, forced_score
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialoglm import corpus
from dialoglm.corpus import Dialogue, sample_candidates
from dialoglm.errors import DataError
from dialoglm.generator import continuation_log_likelihood
from dialoglm import metrics
from dialoglm.metrics import corpus_bleu, distinct_1, evaluate, recall_at_n
from dialoglm.models import AttentionRnnLm, Example, RnnLm, SequenceScore

V = 20


def random_dialogues(rng, n, vocab_size=V):
    out = []
    for _ in range(n):
        turns = []
        for i in range(int(rng.integers(2, 4))):
            length = int(rng.integers(1, 5))
            turns.append((i % 2, tuple(int(t) for t in
                                       rng.integers(6, vocab_size, size=length))))
        out.append(Dialogue(tuple(turns)))
    return out


class _FixedDistModel:
    """Stub model scoring every position with one fixed distribution.

    Mirrors the scoring interface the metric suite relies on; used to pin
    closed-form metric values without training anything.
    """

    def __init__(self, dist, argmax_of=None):
        self.dist = np.asarray(dist, dtype=np.float64)
        self.argmax_of = argmax_of  # optional per-reference argmax rule

    def make_example(self, dialogue):
        return Example(corpus.flatten(dialogue), slice(*corpus.last_utterance_span(dialogue)))

    def example_score(self, ex):
        refs = np.array(ex.target)
        if self.argmax_of is None:
            argmax = np.full(len(refs), int(np.argmax(self.dist)))
        else:
            argmax = np.array([self.argmax_of(r) for r in refs])
        return SequenceScore(np.log(self.dist[refs]), argmax)


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        rng = np.random.default_rng(0)
        m = RnnLm(6, 4, V, seed=0)
        m.params["O"][:] = 0.0
        dialogues = random_dialogues(rng, 5)
        values = evaluate(m, dialogues).values
        assert abs(values["ppl"] - V) < V * 1e-6
        assert abs(values["ppl_at_l"] - V) < V * 1e-6

    def test_single_position_closed_form(self):
        dist = np.full(V, 0.5 / (V - 1))
        dist[7] = 0.5
        m = _FixedDistModel(dist)
        # every scored position has probability 0.5 -> PPL = 2
        d = Dialogue(((0, ()), (1, ())))  # flattened: markers and closers only
        dist[corpus.SPEAKER_A_ID] = 0.5
        dist[corpus.SPEAKER_B_ID] = 0.5
        dist[corpus.EOU_ID] = 0.5
        dist[corpus.EOD_ID] = 0.5
        assert abs(evaluate(m, [d]).values["ppl"] - 2.0) < 1e-9

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(1)
        m = AttentionRnnLm(6, 4, V, seed=1)
        dialogues = random_dialogues(rng, 3)
        got = evaluate(m, dialogues).values["ppl"]
        total, count = 0.0, 0
        for d in dialogues:
            s = forced_score(m, corpus.flatten(d))
            total += float(s.per_token.sum())
            count += len(s.per_token)
        assert abs(got - math.exp(-total / count)) < 1e-9

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        m = RnnLm(6, 4, V, seed=2)
        dialogues = random_dialogues(rng, 6)
        assert evaluate(m, dialogues).values["ppl"] == evaluate(m, dialogues[::-1]).values["ppl"]

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(RnnLm(6, 4, V, seed=0), [])


class TestWordErrorRate:
    def test_oracle_predictor_is_zero(self):
        rng = np.random.default_rng(3)
        m = _FixedDistModel(np.full(V, 1.0 / V), argmax_of=lambda r: r)
        assert evaluate(m, random_dialogues(rng, 4)).values["wer"] == 0.0

    def test_adversarial_predictor_is_one(self):
        rng = np.random.default_rng(4)
        m = _FixedDistModel(np.full(V, 1.0 / V), argmax_of=lambda r: (r + 1) % V)
        dialogues = random_dialogues(rng, 4)
        values = evaluate(m, dialogues).values
        assert values["wer"] == 1.0
        assert values["wer_at_l"] == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        m = RnnLm(6, 4, V, seed=3)
        dialogues = random_dialogues(rng, 4)
        got = evaluate(m, dialogues).values["wer"]
        errors, count = 0, 0
        for d in dialogues:
            tokens = corpus.flatten(d)
            s = forced_score(m, tokens)
            for t, tok in enumerate(tokens):
                errors += int(s.argmax[t] != tok)
                count += 1
        assert got == errors / count


class TestRecallAtN:
    def _sets(self, rng, model, n_sets):
        dialogues = random_dialogues(rng, max(12, n_sets + 4))
        return [sample_candidates(dialogues, d, seed=[9, i])
                for i, d in enumerate(dialogues[:n_sets])]

    def test_full_range_is_one(self):
        rng = np.random.default_rng(6)
        m = RnnLm(6, 4, V, seed=4)
        assert recall_at_n(m, self._sets(rng, m, 6), 10) == 1.0

    def test_non_decreasing_in_n(self):
        rng = np.random.default_rng(7)
        m = RnnLm(6, 4, V, seed=5)
        sets = self._sets(rng, m, 10)
        values = [recall_at_n(m, sets, n) for n in range(1, 11)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(8)
        m = AttentionRnnLm(6, 4, V, seed=6)
        sets = self._sets(rng, m, 50)
        for n in (1, 2, 5):
            got = recall_at_n(m, sets, n)
            hits = 0
            for cs in sets:
                scores = []
                for cand in cs.candidates:
                    seq = list(cand) + [corpus.EOU_ID]
                    lp = continuation_log_likelihood(m, cs.history, seq)
                    scores.append(lp / len(seq))
                ranked = sorted(range(10), key=lambda i: (-scores[i], i))
                hits += int(ranked.index(cs.truth_index) < n)
            assert got == hits / len(sets)

    def test_bounds_checked(self):
        m = RnnLm(6, 4, V, seed=7)
        rng = np.random.default_rng(9)
        sets = self._sets(rng, m, 2)
        with pytest.raises(DataError):
            recall_at_n(m, sets, 0)
        with pytest.raises(DataError):
            recall_at_n(m, [], 1)


FIVE_PAIRS = [
    ("the cat sat on the mat".split(), "the cat sat on a mat".split()),
    ("a quick brown fox jumps high".split(), "the quick brown fox jumps high".split()),
    ("he reads a long book".split(), "he reads a long book slowly".split()),
    ("we ate fresh bread today".split(), "we ate fresh bread today".split()),
    ("she walks to the old town".split(), "she walks to the old town".split()),
]


class TestBleu:
    def test_identity(self):
        refs = [r for _, r in FIVE_PAIRS]
        assert corpus_bleu(refs, refs) == pytest.approx(1.0)

    def test_disjoint_unigrams_zero(self):
        assert corpus_bleu([["a", "b"]], [["c", "d"]]) == 0.0

    def test_matches_independent_implementation(self):
        hyps = [h for h, _ in FIVE_PAIRS]
        refs = [r for _, r in FIVE_PAIRS]
        got = corpus_bleu(hyps, refs)
        want = bleu_oracle(hyps, refs)
        assert abs(got - want) < 1e-4
        # and on corpora that trip the smoothing path
        hyps2 = [["x", "cat", "dog"], ["the", "the"]]
        refs2 = [["cat", "dog", "yes"], ["a", "the"]]
        assert abs(corpus_bleu(hyps2, refs2) - bleu_oracle(hyps2, refs2)) < 1e-4

    def test_corpus_permutation_symmetry(self):
        hyps = [h for h, _ in FIVE_PAIRS]
        refs = [r for _, r in FIVE_PAIRS]
        perm = [3, 1, 4, 0, 2]
        assert corpus_bleu(hyps, refs) == pytest.approx(
            corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm])
        )

    def test_one_iff_exact(self):
        hyps = [h for h, _ in FIVE_PAIRS]
        refs = [r for _, r in FIVE_PAIRS]
        assert corpus_bleu(hyps, refs) < 1.0
        assert corpus_bleu(refs, refs) == pytest.approx(1.0)

    def test_brevity_penalty(self):
        # shorter hypotheses are penalized even with perfect precision
        assert corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]]) == \
            pytest.approx(math.exp(1 - 4 / 2) * (2 / 2) ** 0.25 * (1 / 1) ** 0.25
                          * (1 / 1) ** 0.25 * (1 / 1) ** 0.25)

    def test_empty_inputs(self):
        with pytest.raises(DataError):
            corpus_bleu([], [])
        with pytest.raises(DataError):
            corpus_bleu([["a"]], [])
        assert corpus_bleu([[]], [["a"]]) == 0.0


def _per_order_bleu(hypotheses, references, max_n):
    """corpus_bleu as one loop per order, counting every pair's n-grams in
    each order: the form it had before it summed per-pair statistics."""
    def counts(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return 0.0
    log_prec = 0.0
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hc = counts(hyp, n)
            rc = counts(ref, n)
            total += max(len(hyp) - n + 1, 0)
            matched += sum(min(c, rc[g]) for g, c in hc.items())
        if total == 0:
            precision = 1.0
        elif matched == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (total + 1.0)
        else:
            precision = matched / total
        log_prec += math.log(precision) / max_n
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_prec)


_tokens = st.lists(st.integers(0, 4), max_size=7)


class TestBleuStatistics:
    """corpus_bleu sums per-pair statistics, then applies one formula; its
    values are those of the per-order loop, float for float."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=6),
           max_n=st.integers(1, 4))
    @example(pairs=[([], [1, 2])], max_n=4)  # empty hypotheses
    @example(pairs=[([1, 2, 3], []), ([4], [4])], max_n=2)  # an empty reference
    @example(pairs=[([1, 2], [3, 4])], max_n=1)  # no unigram matches
    @example(pairs=[([1, 2], [1, 2, 3]), ([3], [3])], max_n=4)  # no 3- or 4-grams
    @example(pairs=[([1, 2, 1], [2, 1, 1])], max_n=3)  # smoothed higher orders
    def test_equals_per_order_loop(self, pairs, max_n):
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        assert corpus_bleu(hyps, refs, max_n) == _per_order_bleu(hyps, refs, max_n)

    def test_statistics_of_one_pair(self):
        ref = [1, 2, 1, 2]
        stats = metrics.bleu_stats([1, 2, 2, 5], metrics.ngram_counts(ref, 3), len(ref))
        # lengths, then (clipped matches, n-grams) for n = 1, 2, 3
        assert stats == [4, 4, 3, 4, 1, 3, 0, 2]

    def test_corpus_value_is_the_formula_over_summed_statistics(self):
        hyps = [h for h, _ in FIVE_PAIRS]
        refs = [r for _, r in FIVE_PAIRS]
        stats = [metrics.bleu_stats(h, metrics.ngram_counts(r), len(r))
                 for h, r in zip(hyps, refs)]
        assert corpus_bleu(hyps, refs) == metrics.bleu_of_stats(stats)
        assert metrics.bleu_of_stats([[sum(f) for f in zip(*stats)]]) == metrics.bleu_of_stats(stats)


class TestDistinct1:
    def test_all_identical(self):
        assert distinct_1([["a", "a"], ["a"]]) == pytest.approx(1 / 3)

    def test_all_distinct(self):
        assert distinct_1([["a", "b"], ["c"]]) == 1.0

    def test_hand_count(self):
        assert distinct_1([["a", "b", "a"], ["c", "a"]]) == pytest.approx(3 / 5)

    def test_zero_tokens_rejected(self):
        with pytest.raises(DataError):
            distinct_1([[], []])


class TestJointEvaluation:
    def test_report_bounds(self):
        rng = np.random.default_rng(11)
        m = RnnLm(6, 4, V, seed=9)
        report = evaluate(m, random_dialogues(rng, 4))
        assert report.values["ppl"] >= 1.0
        assert 0.0 <= report.values["wer"] <= 1.0
        assert report.counts["dialogues"] == 4

    def test_serialization(self):
        import json

        rng = np.random.default_rng(12)
        m = RnnLm(6, 4, V, seed=10)
        report = evaluate(m, random_dialogues(rng, 3))
        tsv = report.to_tsv()
        for line in tsv.splitlines():
            key, value = line.split("\t")
            assert key in report.values
            assert float(value) == report.values[key]
        blob = json.loads(report.to_json())
        assert blob["values"] == report.values
        assert blob["counts"] == report.counts
