import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglm import corpus, metrics, synthetic
from dialoglm import topics as topics_module
from dialoglm.corpus import Dialogue, build_vocab
from dialoglm.errors import DataError
from dialoglm.generator import Candidate
from dialoglm.topics import (LOCKSTEP_MIN, RerankItem, TopicModel, _combine, _zscore,
                             dialogue_bow, format_grid, infer_theta, infer_thetas,
                             lda_train, rerank, topic_similarity, tune_rerank)


def _reference_lda_train(docs, K, V, eta, xi, sweeps, seed, weights_log=None):
    """The numpy sampler the list-based one replaced: per token, array
    weights, ``np.cumsum`` and ``np.searchsorted``, one ``rng.random()``.
    Each draw's weights go to ``weights_log`` when one is given."""
    kept = [np.asarray(d, dtype=np.int64) for d in docs if len(d)]
    rng = np.random.default_rng(seed)
    nkw, nk, ndk = np.zeros((K, V)), np.zeros(K), np.zeros((len(kept), K))
    assign = []
    for d, doc in enumerate(kept):
        z = rng.integers(0, K, size=doc.size)
        assign.append(z)
        for tok, k in zip(doc, z):
            nkw[k, tok] += 1
            nk[k] += 1
            ndk[d, k] += 1
    ll_history = []
    for _ in range(sweeps):
        for d, doc in enumerate(kept):
            z = assign[d]
            for j, w in enumerate(doc):
                k = z[j]
                nkw[k, w] -= 1
                nk[k] -= 1
                ndk[d, k] -= 1
                weights = (ndk[d] + xi) * (nkw[:, w] + eta) / (nk + V * eta)
                if weights_log is not None:
                    weights_log.append(weights.tolist())
                cum = np.cumsum(weights)
                k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                z[j] = k
                nkw[k, w] += 1
                nk[k] += 1
                ndk[d, k] += 1
        phi = (nkw + eta) / (nk + V * eta)[:, None]
        ll = 0.0
        for d, doc in enumerate(kept):
            theta_d = (ndk[d] + xi) / (doc.size + xi.sum())
            ll += float(np.log(theta_d @ phi[:, doc]).sum())
        ll_history.append(ll)
    return (nkw + eta) / (nk + V * eta)[:, None], ll_history


def _reference_infer_theta(model, doc, weights_log=None):
    doc = np.asarray(doc, dtype=np.int64)
    xi = model.xi
    if doc.size == 0:
        return xi / xi.sum()
    K = model.n_topics
    rng = np.random.default_rng([model.seed, 0x7EA])
    z = rng.integers(0, K, size=doc.size)
    mk = np.bincount(z, minlength=K).astype(np.float64)
    phi_doc = model.phi[:, doc]
    for _ in range(model.infer_sweeps):
        for j in range(doc.size):
            mk[z[j]] -= 1
            weights = (mk + xi) * phi_doc[:, j]
            if weights_log is not None:
                weights_log.append(weights.tolist())
            cum = np.cumsum(weights)
            k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            z[j] = k
            mk[k] += 1
    return (mk + xi) / (doc.size + xi.sum())


def _recording_draw(monkeypatch):
    """Route every ``topics._draw`` call through a recorder; returns the list
    that receives each draw's weights."""
    log, real = [], topics_module._draw

    def draw(weights, u):
        weights = list(weights)
        log.append(weights)
        return real(weights, u)

    monkeypatch.setattr(topics_module, "_draw", draw)
    return log


def _check_sampler_against_reference(monkeypatch, K, seed, eta, xi):
    # a weight one ulp off rarely moves a draw, so the weights themselves
    # are compared as well as phi, ll_history and theta
    V = 40
    rng = np.random.default_rng(100 + seed)
    special = [[7], [], [3, 3, 3, 3], [5, 9, 5, 9, 5]]
    docs = [list(rng.integers(0, V, size=int(n))) for n in rng.integers(2, 30, size=25)]
    docs += special
    weights, ref_weights = _recording_draw(monkeypatch), []
    model = lda_train(docs, K, V, eta=eta, xi=xi, sweeps=3, seed=seed, infer_sweeps=4)
    phi, ll_history = _reference_lda_train(docs, K, V, eta, model.xi, 3, seed, ref_weights)
    assert model.phi.tobytes() == phi.tobytes()
    assert model.ll_history == ll_history
    for doc in special + docs[:5]:
        theta = infer_theta(model, doc)
        assert theta.tobytes() == _reference_infer_theta(model, doc, ref_weights).tobytes()
    assert np.array(weights).tobytes() == np.array(ref_weights).tobytes()


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("K", [1, 3, 10, 20])
def test_sampler_matches_numpy_reference_bitwise(monkeypatch, K, seed):
    # the chain, not just its statistics: phi, ll_history and theta are the
    # reference's to the last bit, on single-token documents, repeated
    # words and an empty document
    _check_sampler_against_reference(monkeypatch, K, seed, 0.05, None)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("K", [1, 3, 10, 20])
def test_sampler_matches_reference_with_inexact_priors(monkeypatch, K, seed):
    # count + 0.1 and count + 0.03 round, so (c + eta) - 1 != (c - 1) + eta:
    # a cached sum stepped along with its count would drift off the weights
    _check_sampler_against_reference(monkeypatch, K, seed, 0.03, np.full(K, 0.1))


def test_one_xi_value_serves_every_topic():
    # lda --xi passes one value, which lda_train spreads over the K topics
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(0, 40, size=int(n))) for n in rng.integers(2, 30, size=10)]
    one, per_topic = (lda_train(docs, 3, 40, xi=xi, sweeps=2, seed=5, infer_sweeps=2)
                      for xi in (0.1, [0.1] * 3))
    assert one.xi.tobytes() == per_topic.xi.tobytes() == np.full(3, 0.1).tobytes()
    assert one.phi.tobytes() == per_topic.phi.tobytes()


def _random_model(K, V, seed, infer_sweeps, rng, xi=0.7):
    return TopicModel(n_topics=K, vocab_size=V, phi=rng.dirichlet(np.ones(V), size=K),
                      eta=0.01, xi=np.full(K, xi), seed=seed, train_sweeps=1,
                      infer_sweeps=infer_sweeps)


def test_infer_theta_chain_start_is_keyed_by_seed_k_length_and_sweeps():
    # interleaved calls whose documents share a length but not their words,
    # repeat a document, or go to models that differ in one part of the
    # chain-start key (seed, K, infer_sweeps) or in nothing but phi and xi
    V = 30
    rng = np.random.default_rng(8)
    models = [_random_model(3, V, 5, 4, rng), _random_model(3, V, 6, 4, rng),
              _random_model(4, V, 5, 4, rng), _random_model(3, V, 5, 7, rng),
              _random_model(3, V, 5, 4, rng, xi=0.3)]
    docs = [list(rng.integers(0, V, size=6)) for _ in range(3)]
    docs += [docs[0], list(rng.integers(0, V, size=1)), list(rng.integers(0, V, size=9))]
    for _ in range(2):
        for doc in docs:
            for model in models:
                assert (infer_theta(model, doc).tobytes()
                        == _reference_infer_theta(model, doc).tobytes())
    # a model changed in place is read afresh on the next call
    model = models[0]
    model.seed, model.infer_sweeps = 9, 3
    for doc in docs:
        assert infer_theta(model, doc).tobytes() == _reference_infer_theta(model, doc).tobytes()


@pytest.mark.parametrize("n_bags", [LOCKSTEP_MIN - 1, LOCKSTEP_MIN, 200])
@pytest.mark.parametrize("xi", [0.5, 0.1])
@pytest.mark.parametrize("K", [1, 3, 10, 20])
def test_infer_thetas_matches_reference_bitwise(monkeypatch, K, xi, n_bags):
    # each bag's theta is the one-document reference's to the last bit, over
    # mixed lengths from 1 to 40 and, in the large batch, empty, single-token
    # and repeated bags; count + 0.1 rounds where count + 0.5 does not
    V, sweeps = 60, 3
    rng = np.random.default_rng(1000 * K + n_bags)
    model = _random_model(K, V, 4, sweeps, rng, xi=xi)
    docs = [list(rng.integers(0, V, size=int(n))) for n in rng.integers(1, 41, size=n_bags)]
    if n_bags == 200:
        docs[::40] = [[], [7], [3, 3, 3, 3], [5, 9, 5, 9, 5], [11] * 40]
    draws = _recording_draw(monkeypatch)
    thetas = infer_thetas(model, docs)
    assert len(thetas) == len(docs)
    for doc, theta in zip(docs, thetas):
        assert theta.tobytes() == _reference_infer_theta(model, doc).tobytes()
    # below LOCKSTEP_MIN bags every update is a one-document draw; from it on,
    # the positions that LOCKSTEP_MIN bags reach step in lockstep instead
    ns = sorted((len(doc) for doc in docs), reverse=True)
    lockstep = ns[LOCKSTEP_MIN - 1] if n_bags >= LOCKSTEP_MIN else 0
    assert len(draws) == sweeps * sum(max(n - lockstep, 0) for n in ns)
    assert (len(draws) < sweeps * sum(ns)) == (n_bags >= LOCKSTEP_MIN)


def test_infer_thetas_checks_every_bag_before_any_chain_runs(monkeypatch):
    V = 30
    rng = np.random.default_rng(3)
    model = _random_model(3, V, 5, 4, rng)
    starts = []
    real = topics_module._chain_start
    monkeypatch.setattr(topics_module, "_chain_start",
                        lambda *key: starts.append(key) or real(*key))
    good = [list(rng.integers(0, V, size=5)) for _ in range(2 * LOCKSTEP_MIN)]
    for bad in ([0, V], [-1, 2]):
        with pytest.raises(DataError, match="out of vocabulary range"):
            infer_thetas(model, good + [bad])
    assert starts == []
    assert len(infer_thetas(model, good)) == len(good) and starts


def test_infer_thetas_reads_a_model_changed_in_place():
    # nothing is kept from one call to the next but the chain starts, keyed by
    # (seed, K, length, sweeps): new seed, sweeps, phi and xi all take effect
    V = 30
    rng = np.random.default_rng(9)
    model = _random_model(3, V, 5, 4, rng)
    docs = [list(rng.integers(0, V, size=int(n))) for n in rng.integers(1, 12, size=20)]
    before = infer_thetas(model, docs)
    model.seed, model.infer_sweeps = 6, 5
    model.phi[:] = rng.dirichlet(np.ones(V), size=3)
    model.xi[:] = 0.3
    after = infer_thetas(model, docs)
    for doc, old, new in zip(docs, before, after):
        assert new.tobytes() == _reference_infer_theta(model, doc).tobytes()
        assert new.tobytes() != old.tobytes()


@pytest.fixture(scope="module")
def separable():
    td = synthetic.topic_documents(200, seed=5, n_topics=2, words_per_topic=12,
                                   doc_len=18)
    vocab = build_vocab(td.docs, 100)
    docs = [vocab.encode(d) for d in td.docs]
    model = lda_train(docs, 2, vocab.size, xi=np.full(2, 0.5), sweeps=60, seed=1)
    word_sets = [set(vocab.encode(ws)) for ws in td.topic_words]
    return td, vocab, docs, model, word_sets


class TestLdaTrain:
    def test_two_topic_purity(self, separable):
        _, _, _, model, word_sets = separable
        for k in range(2):
            top = model.top_words(10)
            purity = max(sum(1 for w in top[k] if w in ws) for ws in word_sets) / 10
            assert purity >= 0.9

    def test_single_topic_collapses_to_unigram(self):
        rng = np.random.default_rng(2)
        docs = [list(rng.integers(0, 30, size=15)) for _ in range(40)]
        model = lda_train(docs, 1, 30, eta=0.01, sweeps=5, seed=0)
        counts = np.zeros(30)
        for d in docs:
            for w in d:
                counts[w] += 1
        expected = (counts + 0.01) / (counts.sum() + 30 * 0.01)
        np.testing.assert_allclose(model.phi[0], expected, atol=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        docs = [list(rng.integers(0, 20, size=10)) for _ in range(30)]
        a = lda_train(docs, 3, 20, sweeps=10, seed=7)
        b = lda_train(docs, 3, 20, sweeps=10, seed=7)
        np.testing.assert_array_equal(a.phi, b.phi)
        c = lda_train(docs, 3, 20, sweeps=10, seed=8)
        assert not np.array_equal(a.phi, c.phi)

    def test_phi_rows_normalized(self, separable):
        _, _, _, model, _ = separable
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_documents_skipped_with_count(self, caplog):
        rng = np.random.default_rng(4)
        docs = [list(rng.integers(0, 10, size=5)), [], [1, 2, 3]]
        with caplog.at_level(logging.WARNING, logger="dialoglm.topics"):
            model = lda_train(docs, 2, 10, sweeps=3, seed=0)
        assert model.skipped_empty == 1
        assert [r.getMessage() for r in caplog.records] == [
            "lda_train skipped 1 empty document(s)"]

    def test_log_likelihood_trend(self, separable):
        _, _, _, model, _ = separable
        ll = np.array(model.ll_history)
        window = 10
        smooth = np.convolve(ll, np.ones(window) / window, mode="valid")
        assert all(b >= a - 1e-9 for a, b in zip(smooth, smooth[1:])) or \
            smooth[-1] > smooth[0]
        # the trend over the run is upward
        assert ll[-1] > ll[0]

    def test_validation(self):
        with pytest.raises(DataError):
            lda_train([], 2, 10)
        with pytest.raises(DataError):
            lda_train([[1]], 0, 10)
        with pytest.raises(DataError):
            lda_train([[11]], 2, 10)  # out of range
        with pytest.raises(DataError):
            lda_train([[1]], 2, 10, eta=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"eta": math.nan}, {"eta": math.inf}, {"eta": -0.5},
        {"xi": [0.5, math.nan]}, {"xi": [math.inf, 0.5]}, {"xi": [0.0, 0.5]},
        {"sweeps": -1}, {"infer_sweeps": -1},
    ], ids=["eta_nan", "eta_inf", "eta_negative", "xi_nan", "xi_inf", "xi_zero",
            "negative_sweeps", "negative_infer_sweeps"])
    def test_hyperparameters_outside_what_load_accepts(self, kwargs):
        with pytest.raises(DataError):
            lda_train([[1, 2]], 2, 10, **kwargs)


class TestInferTheta:
    def test_empty_document_returns_prior_mean(self, separable, caplog):
        _, _, _, model, _ = separable
        with caplog.at_level(logging.DEBUG, logger="dialoglm.topics"):
            theta = infer_theta(model, [])
        np.testing.assert_allclose(theta, model.xi / model.xi.sum(), atol=1e-12)
        # callers that score many documents warn once for all of them
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]

    def test_separable_documents_concentrate(self, separable):
        td, vocab, docs, model, word_sets = separable
        top0 = set(model.top_words(10)[0])
        learned_of_true = {k: (0 if len(top0 & word_sets[k]) >= 5 else 1)
                           for k in range(2)}
        for i in range(40):
            theta = infer_theta(model, docs[i])
            assert theta[learned_of_true[td.topic_of[i]]] >= 0.8

    def test_sums_to_one(self, separable):
        _, _, _, model, _ = separable
        rng = np.random.default_rng(6)
        for _ in range(100):
            doc = list(rng.integers(0, model.vocab_size,
                                    size=int(rng.integers(1, 25))))
            theta = infer_theta(model, doc)
            assert abs(theta.sum() - 1.0) < 1e-9
            assert np.all(theta > 0)

    def test_deterministic(self, separable):
        _, _, docs, model, _ = separable
        np.testing.assert_array_equal(infer_theta(model, docs[0]),
                                      infer_theta(model, docs[0]))


class TestTopicSimilarity:
    def test_identity(self):
        a = np.array([0.2, 0.5, 0.3])
        assert topic_similarity(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert topic_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert topic_similarity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            topic_similarity([0.0, 0.0], [1.0, 0.0])

    def test_njsd_variant(self):
        a = np.array([0.9, 0.1])
        assert topic_similarity(a, a, metric="njsd") == pytest.approx(0.0, abs=1e-12)
        far = topic_similarity([1.0, 0.0], [0.0, 1.0], metric="njsd")
        assert far == pytest.approx(-math.log(2.0))


class TestRerank:
    def _candidates(self, lls):
        return [Candidate(tokens=[10 + i], loglik=ll, norm_score=ll)
                for i, ll in enumerate(lls)]

    def test_lambda_zero_keeps_likelihood_order(self, separable):
        _, _, docs, model, _ = separable
        history = Dialogue(((0, tuple(docs[0][:5])), (1, tuple(docs[0][5:8]))))
        cands = self._candidates([-1.0, -3.0, -0.5, -2.0])
        ranked = rerank([history], [cands], model, 0.0)[0]
        assert [r.original_index for r in ranked] == [2, 0, 3, 1]

    def test_lambda_one_keeps_similarity_order(self, separable):
        td, vocab, docs, model, _ = separable
        history = Dialogue(((0, tuple(docs[0][:6])),))
        cands = [
            Candidate(tokens=list(docs[0][6:12]), loglik=-9.0, norm_score=-9.0),
            Candidate(tokens=list(docs[1][:6]) if td.topic_of[1] != td.topic_of[0]
                      else list(docs[2][:6]), loglik=-1.0, norm_score=-1.0),
        ]
        ranked = rerank([history], [cands], model, 1.0)[0]
        h_theta = infer_theta(model, dialogue_bow(history))
        sims = [topic_similarity(h_theta, infer_theta(model, c.tokens))
                for c in cands]
        assert ranked[0].original_index == int(np.argmax(sims))

    def test_hand_constructed_mix(self):
        # three candidates, hand-computed combined scores
        h = np.array([1.0, 0.0])
        thetas = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([0.5, 0.5])]
        lls = [-4.0, -1.0, -2.5]
        lam = 0.6
        sims = [topic_similarity(h, th) for th in thetas]
        combined, order = _combine(sims, _zscore(lls), lam)
        z = (np.array(lls) - np.mean(lls)) / np.std(lls)
        expected = [lam * s + (1 - lam) * zz
                    for s, zz in zip([1.0, 0.0, 1 / math.sqrt(2)], z)]
        np.testing.assert_allclose(combined, expected, atol=1e-12)
        assert order == sorted(range(3), key=lambda i: -expected[i])

    def test_ties_keep_original_order(self):
        h = np.array([1.0, 0.0])
        thetas = [np.array([1.0, 0.0])] * 3
        sims = [topic_similarity(h, th) for th in thetas]
        _, order = _combine(sims, _zscore([-1.0, -1.0, -1.0]), 0.5)
        assert order == [0, 1, 2]

    def test_list_form_equals_each_history_alone(self, separable):
        # the candidates of every history share one infer_thetas call, with
        # enough bags for the lockstep positions
        _, _, docs, model, _ = separable
        histories = [Dialogue(((0, tuple(docs[i][:6])), (1, tuple(docs[i][6:9]))))
                     for i in range(4)]
        cand_lists = [[Candidate(tokens=list(docs[10 * i + j][:2 + 3 * j]), loglik=-1.0 - j,
                                 norm_score=-0.5 * (i + j) / (j + 1))
                       for j in range(i + 2)] for i in range(4)]
        assert sum(map(len, cand_lists)) >= LOCKSTEP_MIN
        for lam in (0.0, 0.45, 1.0):
            ranked = rerank(histories, cand_lists, model, lam)
            assert len(ranked) == len(histories)
            for got, h, cands in zip(ranked, histories, cand_lists):
                alone = rerank([h], [cands], model, lam)[0]
                assert [vars(r) for r in got] == [vars(r) for r in alone]
        with pytest.raises(DataError, match="empty candidate list"):
            rerank(histories, cand_lists[:3] + [[]], model, 0.5)

    def test_empty_documents_warned_once_with_count(self, separable, caplog):
        _, _, docs, model, _ = separable
        history = Dialogue(((0, tuple(docs[0][:4])),))
        cands = [Candidate(tokens=[corpus.EOU_ID], loglik=-1.0, norm_score=-1.0),
                 Candidate(tokens=list(docs[1][:3]), loglik=-2.0, norm_score=-2.0),
                 Candidate(tokens=[], loglik=-3.0, norm_score=-3.0)]
        with caplog.at_level(logging.DEBUG, logger="dialoglm.topics"):
            rerank([history], [cands], model, 0.5)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("2 document(s) ")

    def test_empty_candidates_rejected(self, separable):
        _, _, docs, model, _ = separable
        history = Dialogue(((0, tuple(docs[0][:4])),))
        with pytest.raises(DataError):
            rerank([history], [[]], model, 0.5)

    def test_lambda_bounds(self, separable):
        _, _, docs, model, _ = separable
        history = Dialogue(((0, tuple(docs[0][:4])),))
        cands = self._candidates([-1.0, -2.0])
        for lam in (1.5, -0.1, float("nan")):
            with pytest.raises(DataError, match="lambda"):
                rerank([history], [cands], model, lam)
        # the operating point used in the experiments is a valid weight
        assert len(rerank([history], [cands], model, 0.45)[0]) == 2


class TestTuneRerank:
    def _items(self, model, docs, td, n=8):
        items = []
        for i in range(n):
            history = Dialogue(((0, tuple(docs[i][:6])), (1, tuple(docs[i][6:12]))))
            cands = [
                Candidate(tokens=list(docs[i][12:17]), loglik=-5.0, norm_score=-1.0),
                Candidate(tokens=list(docs[(i + 1) % len(docs)][:5]),
                          loglik=-2.0, norm_score=-0.4),
            ]
            items.append(RerankItem(history=history, candidates=cands,
                                    reference=list(docs[i][12:17]),
                                    truth_index=0))
        return items

    def test_single_point_grid(self, separable):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=4)
        k, lam, table = tune_rerank(items, {2: model}, lambdas=[0.45])
        assert (k, lam) == (2, 0.45)
        assert len(table) == 1

    @pytest.mark.parametrize("lambdas", [[], [0.5, 1.5], [-0.1], [float("nan")]])
    def test_bad_lambda_grid_rejected(self, separable, lambdas):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=2)
        with pytest.raises(DataError, match="lambda"):
            tune_rerank(items, {2: model}, lambdas=lambdas)

    def test_spot_check_matches_re_evaluation(self, separable):
        from dialoglm.metrics import corpus_bleu

        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=6)
        _, _, table = tune_rerank(items, {2: model}, lambdas=[0.0, 0.5, 1.0])
        for k, lam, value in table:
            tops = []
            for item in items:
                ranked = rerank([item.history], [item.candidates], model, lam)[0]
                tops.append(ranked[0].original_index)
            hyps = [corpus.strip_reserved(items[i].candidates[t].tokens)
                    for i, t in enumerate(tops)]
            refs = [corpus.strip_reserved(item.reference) for item in items]
            assert value == corpus_bleu(hyps, refs)

    def test_recall_objective(self, separable):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=6)
        k, lam, table = tune_rerank(items, {2: model}, lambdas=[0.0, 1.0],
                                    objective="recall", recall_n=1)
        assert all(0.0 <= v <= 1.0 for _, _, v in table)

    def test_tie_breaks_to_smaller_k_and_lambda(self, separable):
        td, vocab, docs, model, _ = separable
        # degenerate single-candidate items make every grid point equal
        items = []
        for i in range(3):
            history = Dialogue(((0, tuple(docs[i][:5])),))
            cands = [Candidate(tokens=list(docs[i][5:9]), loglik=-1.0,
                               norm_score=-1.0)]
            items.append(RerankItem(history=history, candidates=cands,
                                    reference=list(docs[i][5:9])))
        other = TopicModel(
            n_topics=3, vocab_size=model.vocab_size,
            phi=np.full((3, model.vocab_size), 1.0 / model.vocab_size),
            eta=0.01, xi=np.full(3, 0.5), seed=0, train_sweeps=1,
        )
        k, lam, table = tune_rerank(items, {2: model, 3: other},
                                    lambdas=[0.0, 0.5])
        assert (k, lam) == (2, 0.0)

    @pytest.fixture(scope="class")
    def two_models(self, separable):
        _, vocab, docs, model, _ = separable
        return {2: model, 3: lda_train(docs, 3, vocab.size, xi=np.full(3, 0.5), sweeps=10,
                                       seed=2)}

    @pytest.mark.parametrize("objective", ["bleu", "recall"])
    def test_table_equals_re_evaluation_at_every_grid_point(self, separable, two_models,
                                                             objective):
        # the reference reranks every item afresh at every grid point and
        # calls corpus_bleu on the tops there, as tuning did before it summed
        # per-candidate statistics
        from dialoglm.metrics import corpus_bleu

        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=8)
        for i, item in enumerate(items):  # a third candidate, and tops that differ
            item.candidates.append(Candidate(tokens=list(docs[i + 9][:3]) + item.reference[:2],
                                             loglik=-3.0, norm_score=-0.7))
        lambdas = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
        _, _, table = tune_rerank(items, two_models, lambdas=lambdas, objective=objective)
        want = []
        for k in sorted(two_models):
            for lam in lambdas:
                tops = [rerank([item.history], [item.candidates], two_models[k], lam)[0][0]
                        .original_index for item in items]
                if objective == "bleu":
                    value = corpus_bleu(
                        [corpus.strip_reserved(item.candidates[t].tokens)
                         for item, t in zip(items, tops)],
                        [corpus.strip_reserved(item.reference) for item in items])
                else:
                    value = sum(t == item.truth_index for item, t in zip(items, tops)) / len(items)
                want.append((k, lam, value))
        assert len(table) == len(want) == 14
        for row, ref in zip(table, want):
            assert row == ref
        assert len({value for _, _, value in table}) > 1

    def test_ngrams_counted_once_per_candidate(self, separable, two_models, monkeypatch):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=5)
        counted = []
        real = metrics._ngram_counts

        def counting(tokens, n):
            counted.append(n)
            return real(tokens, n)

        monkeypatch.setattr(metrics, "_ngram_counts", counting)
        calls = []
        for lambdas in ([0.0, 1.0], [i / 20 for i in range(21)]):
            del counted[:]
            tune_rerank(items, two_models, lambdas=lambdas)
            calls.append(len(counted))
        # four orders for each candidate and for each item's reference
        assert calls == [4 * 5 * (2 + 1)] * 2

    def test_best_does_not_depend_on_the_order_of_lambdas(self, separable, two_models):
        td, vocab, docs, model, _ = separable
        # every grid point ties: each item's candidates are one token list
        items = []
        for i in range(3):
            history = Dialogue(((0, tuple(docs[i][:5])),))
            cands = [Candidate(tokens=list(docs[i][5:9]), loglik=-1.0, norm_score=s)
                     for s in (-1.0, -2.0)]
            items.append(RerankItem(history=history, candidates=cands,
                                    reference=list(docs[i][5:9])))
        models = {3: two_models[3], 2: two_models[2]}
        for lambdas in ([1.0, 0.5, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5, 1.0]):
            k, lam, table = tune_rerank(items, models, lambdas=lambdas)
            assert (k, lam) == (2, 0.0)
            assert [(k, lam) for k, lam, _ in table] == [(k, lam) for k in (2, 3)
                                                          for lam in lambdas]
        # and on a grid whose values differ, the best row is the same
        items = self._items(model, docs, td, n=6)
        results = {tune_rerank(items, two_models, lambdas=lambdas)[:2]
                   for lambdas in ([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.75, 0.5, 0.25, 0.0],
                                   [0.5, 1.0, 0.0, 0.75, 0.25])}
        assert len(results) == 1

    def test_empty_documents_warned_once_with_count(self, separable, caplog):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=3)
        for item in items:
            item.candidates.append(Candidate(tokens=[corpus.EOU_ID], loglik=-9.0,
                                             norm_score=-9.0))
        with caplog.at_level(logging.DEBUG, logger="dialoglm.topics"):
            tune_rerank(items, {2: model, 3: model}, lambdas=[0.0, 1.0])
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("3 document(s) ")

    def test_grid_table_format(self, separable):
        td, vocab, docs, model, _ = separable
        items = self._items(model, docs, td, n=3)
        _, _, table = tune_rerank(items, {2: model}, lambdas=[0.0, 1.0])
        text = format_grid(table)
        for line, row in zip(text.splitlines(), table):
            k, lam, value = line.split("\t")
            assert (int(k), float(lam), float(value)) == row


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, separable):
        _, _, docs, model, _ = separable
        path = tmp_path / "topics.bin"
        model.save(path, vocab_sha256="c" * 64)
        loaded = TopicModel.load(path, expect_vocab_sha256="c" * 64)
        np.testing.assert_array_equal(loaded.phi, model.phi)
        np.testing.assert_array_equal(loaded.xi, model.xi)
        assert loaded.n_topics == model.n_topics
        assert loaded.eta == model.eta
        # inference is identical after a round trip
        np.testing.assert_array_equal(infer_theta(loaded, docs[0]),
                                      infer_theta(model, docs[0]))

    def test_vocab_binding(self, tmp_path, separable):
        _, _, _, model, _ = separable
        path = tmp_path / "topics.bin"
        model.save(path, vocab_sha256="c" * 64)
        with pytest.raises(DataError):
            TopicModel.load(path, expect_vocab_sha256="d" * 64)
        model.save(path)  # bound to no vocabulary
        TopicModel.load(path)
        with pytest.raises(DataError, match="vocabulary"):
            TopicModel.load(path, expect_vocab_sha256="c" * 64)


def test_dialogue_bow_strips_reserved_and_stopwords():
    d = Dialogue(((0, (7, 8, 9)), (1, (9, 10))))
    assert dialogue_bow(d) == [7, 8, 9, 9, 10]
    assert dialogue_bow(d, stopword_ids=frozenset({9})) == [7, 8, 10]


@pytest.fixture(scope="module")
def topics_file(tmp_path_factory):
    """A small trained topics.bin: its bytes, a path to overwrite, and the vocabulary
    binding (hash and size) that the CLI passes to ``load``."""
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(0, 12, size=8)) for _ in range(10)]
    model = lda_train(docs, 2, 12, eta=0.03, xi=np.full(2, 0.1), sweeps=2, seed=4)
    path = tmp_path_factory.mktemp("topics") / "topics.bin"
    model.save(path, vocab_sha256="e" * 64)
    binding = {"expect_vocab_sha256": "e" * 64, "expect_vocab_size": 12}
    return path.read_bytes(), path, binding


class TestTopicsFileDamage:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_file_is_a_data_error(self, topics_file, cut):
        blob, path, binding = topics_file
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(DataError):
            TopicModel.load(path, **binding)

    @pytest.mark.parametrize("extra", [b"\0", b"\n", bytes(8)])
    def test_trailing_bytes_are_a_data_error(self, topics_file, extra):
        blob, path, binding = topics_file
        path.write_bytes(blob + extra)
        with pytest.raises(DataError, match="trailing"):
            TopicModel.load(path, **binding)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
    def test_corrupted_header_byte(self, topics_file, where, byte):
        # a header byte replaced by any other byte gives DataError, except
        # inside a number or in the whitespace between tokens, where the
        # result may still be a valid header: there it may load instead
        blob, path, binding = topics_file
        header = blob[:blob.index(b"\n")]
        i = min(int(where * len(header)), len(header) - 1)
        if byte == header[i]:
            byte ^= 0x20
        path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
        text = re.sub(r'"[^"]*"', lambda m: "_" * len(m.group()), header.decode())
        may_load = text[i] in " 0123456789.-+eE"
        if may_load:
            try:
                TopicModel.load(path, **binding)
            except DataError:
                pass
        else:
            with pytest.raises(DataError):
                TopicModel.load(path, **binding)
