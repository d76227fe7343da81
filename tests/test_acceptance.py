"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional
experiments (criteria 5, 6 and 11) train small models from scratch over
five seeds each, so the whole module takes on the order of ten minutes.
"""

import math
import time

import numpy as np
import pytest
from conftest import bleu_oracle, forced_score, grad_check, with_params

from dialoglm import corpus, generator, metrics, synthetic, topics, trainer
from dialoglm.corpus import Dialogue, build_vocab, dialogue_from_words
from dialoglm.models import AttentionRnnLm, RnnLm, make_model
from dialoglm.models.base import Example, SequenceScore


def report(num, message):
    print(f"\nACCEPTANCE {num:2d}: PASS - {message}")


def id_dialogues(words_corpus, vocab):
    return [dialogue_from_words(d, vocab) for d in words_corpus.dialogues]


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    d, d_e, V, K = 8, 6, 20, 4
    n_seeds = 20
    worst = {}
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed + 100)
        tokens = [int(t) for t in rng.integers(0, V, size=5)]
        theta = rng.dirichlet(np.ones(K))
        src = [int(t) for t in rng.integers(0, V, size=6)]
        tgt = [int(t) for t in rng.integers(0, V, size=4)]
        for kind in ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn"):
            m = make_model(kind, d, d_e, V, n_topics=K, seed=seed)
            # generic parameter point: 5x the training init scale keeps
            # every sampled gradient above the finite-difference noise floor
            for k in m.params:
                m.params[k] *= 5.0
            if kind.startswith("seq2seq"):
                loss_fn = lambda: m.loss_and_grads(src, tgt)[0]
                _, grads = m.loss_and_grads(src, tgt)
            else:
                kw = {"theta": theta} if kind == "tarnn" else {}
                loss_fn = lambda: m.loss_and_grads(tokens, **kw)[0]
                _, grads = m.loss_and_grads(tokens, **kw)
            err = grad_check(loss_fn, m.params, grads, eps=3e-4,
                             samples_per_array=10,
                             rng=np.random.default_rng(seed))
            worst[kind] = max(worst.get(kind, 0.0), err)
    elapsed = time.time() - t0
    assert all(e < 1e-4 for e in worst.values()), worst
    assert elapsed < 60.0
    report(1, f"max rel err {max(worst.values()):.2e} over {n_seeds} seeds x "
              f"5 variants in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. uniform-model closed forms


def test_criterion_02_uniform_closed_forms():
    V = 20
    rng = np.random.default_rng(0)
    dialogues = []
    for i in range(12):
        turns = tuple(
            (j % 2, tuple(int(t) for t in rng.integers(6, V, size=rng.integers(2, 5))))
            for j in range(2 + i % 2)
        )
        dialogues.append(Dialogue(turns))
    for cls in (RnnLm, AttentionRnnLm):
        m = cls(8, 6, V, seed=1)
        m.params["O"][:] = 0.0
        ppl = metrics.evaluate(m, dialogues).values["ppl"]
        assert abs(ppl - V) <= V * 1e-6
        s = forced_score(m, corpus.flatten(dialogues[0]))
        np.testing.assert_allclose(s.per_token, -math.log(V), atol=1e-9)
        sets = [corpus.sample_candidates(dialogues, d, seed=[2, i])
                for i, d in enumerate(dialogues)]
        assert metrics.recall_at_n(m, sets, 10) == 1.0
    report(2, f"zero-output PPL = V = {V}, per-token logp = -ln V, recall@10 = 1")


# ---------------------------------------------------------------------------
# 3. dynamic scope


def test_criterion_03_dynamic_scope():
    V = 20
    rng = np.random.default_rng(3)
    history_len = None
    m = AttentionRnnLm(8, 6, V, seed=4)
    history = Dialogue(((0, (7, 8, 9)), (1, (10, 11))))
    prefix = corpus.continuation_prefix(history)
    cont = [int(t) for t in rng.integers(6, V, size=6)]
    trace = generator.trace_attention(
        m, history, cont, vocab=_label_vocab(V))
    for t, row in enumerate(trace.rows):
        assert len(row) == len(prefix) + t
        assert abs(row.sum() - 1.0) < 1e-6
    s2s = make_model("seq2seq_attn", 8, 6, V, seed=5)
    src = [int(t) for t in rng.integers(0, V, size=7)]
    tgt = [int(t) for t in rng.integers(0, V, size=5)]
    score = forced_score(s2s, tgt, source=src)
    assert score.A.shape == (len(tgt), len(src))
    for a in score.A:
        assert abs(a.sum() - 1.0) < 1e-6
    report(3, f"attention row t spans history+t tokens; seq2seq rows fixed at "
              f"M+1 = {len(src)}")


def _label_vocab(V):
    return corpus.Vocabulary([f"w{i}" for i in range(V - corpus.N_RESERVED)])


# ---------------------------------------------------------------------------
# 4. ablation equivalence


def test_criterion_04_ablation_equivalence():
    V = 20
    rng = np.random.default_rng(6)
    arnn = AttentionRnnLm(8, 6, V, seed=7)
    arnn.params["Oz"][:] = 0.0
    arnn.params["Oh"][:] = np.eye(8)
    rnn = with_params(RnnLm(8, 6, V, seed=7), {k: arnn.params[k] for k in ("H", "P", "E", "O")})
    worst = 0.0
    for _ in range(100):
        tokens = [int(t) for t in rng.integers(0, V, size=rng.integers(1, 12))]
        sa = arnn.begin([])
        sr = rnn.begin([])
        for tok in tokens:
            [(pa, _)] = arnn.step_dist([sa])
            [(pr, _)] = rnn.step_dist([sr])
            worst = max(worst, float(np.max(np.abs(pa - pr))))
            [sa] = arnn.advance([sa], [[tok]], [[0]])
            [sr] = rnn.advance([sr], [[tok]], [[0]])
    assert worst < 1e-9
    report(4, f"Oz=0 ablation matches the plain LM within {worst:.1e} "
              f"across 100 random sequences")


# ---------------------------------------------------------------------------
# 5. directional replication: language model vs seq2seq


def test_criterion_05_lm_beats_seq2seq():
    t0 = time.time()
    n_seeds = 5
    wins = 0
    details = []
    for seed in range(n_seeds):
        tc = synthetic.topical(2000, seed=200 + seed, n_topics=4)
        vocab = build_vocab((t for d in tc.dialogues for t in d), 200)
        dlgs = id_dialogues(tc, vocab)
        train_d, dev_d = dlgs[:1800], dlgs[1800:]
        vals = {}
        for kind in ("rnn", "seq2seq"):
            cfg = trainer.TrainConfig(lr=3e-3, max_epochs=8, patience=3, seed=seed)
            res = trainer.train(make_model(kind, 16, 12, vocab.size, seed=cfg.seed),
                                train_d, dev_d, cfg)
            # the final utterance is the only span both models score, so
            # the comparison is made there (PPL@L for the language model)
            vals[kind] = metrics.evaluate(res.model, dev_d).values[
                "ppl_at_l" if kind == "rnn" else "ppl"]
        wins += vals["rnn"] < vals["seq2seq"]
        details.append(f"{vals['rnn']:.2f}<{vals['seq2seq']:.2f}")
    elapsed = time.time() - t0
    assert wins >= 4, details
    assert elapsed < 1800.0
    report(5, f"LM beats seq2seq on dev PPL in {wins}/{n_seeds} seeds "
              f"({', '.join(details)}) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6/7. copy task: dynamic attention vs plain recurrence


@pytest.fixture(scope="module")
def copy_task_runs():
    runs = []
    for seed in range(5):
        ct = synthetic.copy_task(1400, seed=100 + seed)
        vocab = build_vocab((t for d in ct.dialogues for t in d), 200)
        dlgs = id_dialogues(ct, vocab)
        train_d, dev_d, test_d = dlgs[:1200], dlgs[1200:1300], dlgs[1300:]
        run = {"corpus": ct, "vocab": vocab, "test": test_d,
               "test_offset": 1300, "elapsed": 0.0}
        t0 = time.time()
        for kind in ("rnn", "arnn"):
            cfg = trainer.TrainConfig(lr=5e-3, max_epochs=16, patience=5, seed=seed)
            res = trainer.train(make_model(kind, 24, 16, vocab.size, seed=cfg.seed),
                                train_d, dev_d, cfg)
            run[kind] = res.model
            run[f"{kind}_report"] = metrics.evaluate(res.model, dev_d)
            run[f"{kind}_dev_ppl"] = res.best_dev_ppl
        run["elapsed"] = time.time() - t0
        runs.append(run)
    return runs


def test_criterion_06_attention_beats_recurrence(copy_task_runs):
    wins = 0
    gap_wins = 0
    details = []
    total = sum(r["elapsed"] for r in copy_task_runs)
    for run in copy_task_runs:
        r = run["rnn_report"].values
        a = run["arnn_report"].values
        wins += a["ppl"] < r["ppl"]
        gap_wins += (r["ppl_at_l"] / a["ppl_at_l"]) > (r["ppl"] / a["ppl"])
        details.append(f"{a['ppl']:.2f}<{r['ppl']:.2f} "
                       f"@L {a['ppl_at_l']:.2f}<{r['ppl_at_l']:.2f}")
    assert wins >= 4, details
    assert gap_wins >= 4, details
    assert total < 1800.0
    report(6, f"attention LM wins PPL in {wins}/5 seeds and widens the "
              f"final-utterance gap in {gap_wins}/5 ({total:.0f}s)")


def test_criterion_07_attention_lands_on_source(copy_task_runs):
    best = min(copy_task_runs, key=lambda r: r["arnn_dev_ppl"])
    model = best["arnn"]
    ct = best["corpus"]
    vocab = best["vocab"]
    hits = 0
    n = len(best["test"])
    for i, d in enumerate(best["test"]):
        cont = list(d.last_utterance()) + [corpus.EOU_ID]
        trace = generator.trace_attention(model, d.history(), cont, vocab)
        recall_row = trace.rows[2]  # the recalled payload is the 3rd token
        if int(np.argmax(recall_row)) == ct.payload_flat_index[best["test_offset"] + i]:
            hits += 1
    assert hits / n >= 0.70
    report(7, f"attention argmax on the planted source token in "
              f"{hits}/{n} test dialogues")


# ---------------------------------------------------------------------------
# 8. metric oracles


def test_criterion_08_metric_oracles():
    # BLEU vs the independent implementation, 4 decimals, 5-pair corpus
    pairs = [
        ("the cat sat on the mat".split(), "the cat sat on a mat".split()),
        ("a quick brown fox jumps high".split(),
         "the quick brown fox jumps high".split()),
        ("he reads a long book".split(), "he reads a long book slowly".split()),
        ("we ate fresh bread today".split(), "we ate fresh bread today".split()),
        ("she walks to the old town".split(), "she walks to the old town".split()),
    ]
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    bleu = metrics.corpus_bleu(hyps, refs)
    assert abs(bleu - bleu_oracle(hyps, refs)) < 1e-4

    # recall@N vs brute-force ranking over 50 candidate sets
    V = 20
    rng = np.random.default_rng(8)
    model = AttentionRnnLm(6, 4, V, seed=9)
    dialogues = []
    for _ in range(60):
        turns = tuple(
            (j % 2, tuple(int(t) for t in rng.integers(6, V, size=rng.integers(1, 5))))
            for j in range(2)
        )
        dialogues.append(Dialogue(turns))
    sets = [corpus.sample_candidates(dialogues, d, seed=[11, i])
            for i, d in enumerate(dialogues[:50])]
    for n in (1, 2, 5):
        got = metrics.recall_at_n(model, sets, n)
        hits = 0
        for cs in sets:
            scores = []
            for cand in cs.candidates:
                seq = list(cand) + [corpus.EOU_ID]
                lp = generator.continuation_log_likelihood(model, cs.history, seq)
                scores.append(lp / len(seq))
            ranked = sorted(range(10), key=lambda i: (-scores[i], i))
            hits += int(ranked.index(cs.truth_index) < n)
        assert got == hits / 50

    # Distinct-1 hand counts
    assert metrics.distinct_1([["a", "b", "a"], ["c", "a"]]) == 3 / 5
    assert metrics.distinct_1([["a", "a"], ["a"]]) == 1 / 3
    assert metrics.distinct_1([["a", "b"], ["c"]]) == 1.0

    # WER of the oracle and adversarial predictors
    class _Stub:
        d = 1  # with V, the size of the scoring work

        def __init__(self, shift):
            self.shift = shift
            self.V = V

        def make_example(self, dialogue):
            return Example(corpus.flatten(dialogue),
                           slice(*corpus.last_utterance_span(dialogue)))

        def example_score(self, ex):
            refs = np.array(ex.target)
            return SequenceScore(np.full(len(refs), -1.0), (refs + self.shift) % V)

    assert metrics.evaluate(_Stub(0), dialogues).values["wer"] == 0.0
    assert metrics.evaluate(_Stub(1), dialogues).values["wer"] == 1.0
    report(8, "BLEU matches the independent implementation to 4 decimals; "
              "recall@N, Distinct-1 and WER oracles exact")


# ---------------------------------------------------------------------------
# 9. LDA recovery


def test_criterion_09_lda_recovery():
    t0 = time.time()
    td = synthetic.topic_documents(500, seed=42, n_topics=2,
                                   words_per_topic=15, doc_len=20)
    vocab = build_vocab(td.docs, 200)
    docs = [vocab.encode(doc) for doc in td.docs]
    model = topics.lda_train(docs, 2, vocab.size, xi=np.full(2, 0.5),
                             sweeps=80, seed=0)
    word_sets = [set(vocab.encode(ws)) for ws in td.topic_words]
    top = model.top_words(10)
    purities = [max(sum(1 for w in top[k] if w in ws) for ws in word_sets) / 10
                for k in range(2)]
    assert min(purities) >= 0.9
    top0 = set(top[0])
    learned_of_true = {k: (0 if len(top0 & word_sets[k]) >= 5 else 1)
                       for k in range(2)}
    hits = sum(
        topics.infer_theta(model, docs[i])[learned_of_true[td.topic_of[i]]] >= 0.8
        for i in range(100)
    )
    elapsed = time.time() - t0
    assert hits == 100
    assert elapsed < 120.0
    report(9, f"topic purity {purities}, theta >= 0.8 on {hits}/100 "
              f"single-topic docs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. reranker degeneracy


def test_criterion_10_reranker_degeneracy():
    td = synthetic.topic_documents(120, seed=33, n_topics=2,
                                   words_per_topic=12, doc_len=16)
    vocab = build_vocab(td.docs, 200)
    docs = [vocab.encode(d) for d in td.docs]
    model = topics.lda_train(docs, 2, vocab.size, xi=np.full(2, 0.5),
                             sweeps=40, seed=2)
    rng = np.random.default_rng(12)
    history = Dialogue(((0, tuple(docs[0][:6])), (1, tuple(docs[0][6:12]))))
    cands = [generator.Candidate(tokens=list(docs[i][:5]),
                                 loglik=float(-rng.uniform(1, 6)),
                                 norm_score=float(-rng.uniform(0.2, 1.5)))
             for i in range(1, 9)]

    ranked0 = topics.rerank([history], [cands], model, 0.0)[0]
    likelihood_top = max(range(len(cands)),
                         key=lambda i: (cands[i].norm_score, -i))
    assert ranked0[0].original_index == likelihood_top

    ranked1 = topics.rerank([history], [cands], model, 1.0)[0]
    h_theta = topics.infer_theta(model, topics.dialogue_bow(history))
    sims = [topics.topic_similarity(h_theta, topics.infer_theta(model, c.tokens))
            for c in cands]
    sim_top = max(range(len(cands)), key=lambda i: (sims[i], -i))
    assert ranked1[0].original_index == sim_top

    # tuner table spot checks reproduce exactly under re-evaluation
    items = []
    for i in range(6):
        h = Dialogue(((0, tuple(docs[i][:6])), (1, tuple(docs[i][6:12]))))
        cs = [generator.Candidate(tokens=list(docs[i][12:16]), loglik=-4.0,
                                  norm_score=-1.0),
              generator.Candidate(tokens=list(docs[(i + 7) % 120][:4]),
                                  loglik=-2.0, norm_score=-0.5)]
        items.append(topics.RerankItem(history=h, candidates=cs,
                                       reference=list(docs[i][12:16])))
    _, _, table = topics.tune_rerank(items, {2: model},
                                     lambdas=[0.0, 0.45, 1.0])
    for k, lam, value in table:
        tops = []
        for item in items:
            rr = topics.rerank([item.history], [item.candidates], model, lam)[0]
            tops.append(rr[0].original_index)
        hyps = [corpus.strip_reserved(items[i].candidates[t].tokens)
                for i, t in enumerate(tops)]
        refs = [corpus.strip_reserved(item.reference) for item in items]
        assert value == metrics.corpus_bleu(hyps, refs)
    report(10, "lambda=0 and lambda=1 reproduce the degenerate orderings "
               "exactly; grid values match re-evaluation")


# ---------------------------------------------------------------------------
# 11. reranker benefit


def test_criterion_11_reranker_benefit():
    t0 = time.time()
    n_seeds = 5
    wins = 0
    details = []
    for seed in range(n_seeds):
        tc = synthetic.topical(1000, seed=300 + seed, n_topics=3,
                               generic_prob=0.45, templates_per_topic=6)
        vocab = build_vocab((t for d in tc.dialogues for t in d), 200)
        dlgs = id_dialogues(tc, vocab)
        train_d = dlgs[:800]
        stop_ids = frozenset(vocab.encode(tc.function_words))
        dev_idx = [i for i in range(800, 1000)
                   if not tc.is_generic_response[i]][:50]
        cfg = trainer.TrainConfig(lr=5e-3, max_epochs=8, patience=3, seed=seed)
        res = trainer.train(make_model("arnn", 16, 12, vocab.size, seed=cfg.seed),
                            train_d, [dlgs[i] for i in dev_idx[:20]], cfg)
        docs = [topics.dialogue_bow(d, stop_ids) for d in train_d]
        tms = {k: topics.lda_train(docs, k, vocab.size, xi=np.full(k, 0.5),
                                   sweeps=50, seed=seed, infer_sweeps=30)
               for k in (3, 5)}
        items = []
        for i in dev_idx:
            d = dlgs[i]
            cands = generator.generate(res.model, d.history(), vocab,
                                       beam_width=12, n_best=10, max_len=10)
            items.append(topics.RerankItem(history=d.history(),
                                           candidates=cands,
                                           reference=list(d.last_utterance())))
        best_k, best_lam, table = topics.tune_rerank(
            items, tms, [round(0.05 * i, 2) for i in range(21)], objective="bleu",
            stopword_ids=stop_ids)
        lam0 = max(v for k, lam, v in table if lam == 0.0)
        best_val = max(v for _, _, v in table)
        wins += best_val > lam0
        details.append(f"{lam0:.3f}->{best_val:.3f}@(K={best_k},l={best_lam})")
    elapsed = time.time() - t0
    assert wins >= 4, details
    report(11, f"tuned reranking strictly improves dev BLEU in "
               f"{wins}/{n_seeds} seeds ({'; '.join(details)}) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 12. overfit sanity


def test_criterion_12_overfit_sanity():
    d1 = Dialogue(((0, (8, 9, 10, 11)), (1, (12, 13, 14, 9, 15))))
    ppls = {}
    for kind in ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn"):
        cfg = trainer.TrainConfig(lr=0.01, max_epochs=200, patience=200, seed=0)
        res = trainer.train(make_model(kind, 12, 8, 20, n_topics=3, seed=cfg.seed),
                            [d1], [d1], cfg)
        ppls[kind] = metrics.evaluate(res.model, [d1]).values["ppl"]
        assert ppls[kind] < 1.5, (kind, ppls[kind])
    report(12, "single-dialogue memorization PPL " +
               ", ".join(f"{k}={v:.3f}" for k, v in ppls.items()))
