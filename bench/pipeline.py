"""The benchmark's workloads: inputs, the timed CLI pipeline, metrics and checks.

Every run executes the whole pipeline through ``dialoglm.cli.main``:

    prepare -> train arnn -> train seq2seq-attn -> eval          (train group)
    generate -> eval --recall-n 1                                (decode group)
    lda K=10 -> lda K=20 -> rerank -> tune -> eval --hyp/--ref   (topics group)

The workload picks which group runs at full size in a timed pass; the
other two run at smoke size, so every end-to-end metric exists on every
workload while the named group does most of the work. A quality pass
scores larger evaluation sets once, for the quality metrics.

All inputs come from ``dialoglm.synthetic.topical`` at the run's seed; the
program only ever sees the files written here.
"""

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from dialoglm import cli, corpus, fileio, generator, metrics, synthetic, topics, trainer
from dialoglm.models import AttentionRnnLm, Seq2Seq, load_checkpoint

import spans

# About 2,000 vocabulary types over long multi-turn dialogues (about 78
# flattened tokens each); the train split is large enough that nearly no
# test word falls outside the vocabulary. Nearly every final turn is one of four generic
# sentences, so recall@1 measures whether a model learned the reply
# distribution, and it stays steady across seeds.
CORPUS = dict(n_dialogues=800, n_topics=20, words_per_topic=100, n_function=10,
              n_turns=10, min_len=4, max_len=8, generic_prob=0.95)
RATIOS = "0.8,0.1,0.1"
D = 64
SETUP_CKPT = dict(n_train=30, n_dev=10, epochs=1, lr="0.01")
SETUP_REPEATS = 3
TOPICS_K = (10, 20)
INFER_SWEEPS = 10
N_LAMBDAS = 21  # the CLI's default grid 0.0:1.0:0.05
BEAM = dict(beam_width=10, max_len=30, n_best=10)
# Most references are two- or three-word replies, so 4-gram precision rests
# on the few longer ones and swings with the seed; bigram BLEU does not.
BLEU_MAX_N = 2
TRACED_PASSES = 5  # traced passes, each after an untraced one

# Other tenants of a shared host slow this machine by up to 1.9x for tens of
# seconds at a time, interpreter-bound code more than numpy-bound code. A
# probe that mixes both kinds of work runs before every CLI call; it is the
# benchmark's own code, so no change to the program can move it. A CLI
# call's time is scaled by PROBE_REF_S over the mean of the probes just
# before and after it, the harness's own work by PROBE_REF_S over the median
# probe, so every reported time is in seconds on a host where the probe
# takes PROBE_REF_S. Raw times stay in the result file.
PROBE_REF_S = 0.004
_PROBE_A = np.random.default_rng(0).random((64, 2000))
_PROBE_W = np.random.default_rng(1).random(20)

# Work per timed pass: the workload's own group at full size, the other two
# at smoke size. Passes are short so that each stage is timed many times in
# a run; a shared host changes speed every few seconds.
SIZES = {
    "train": {"full": {"n_train": 16, "n_dev": 4, "n_test": 8, "epochs": 2},
              "smoke": {"n_train": 3, "n_dev": 2, "n_test": 4, "epochs": 1}},
    "decode": {"full": {"n_hist": 20, "n_recall": 10},
               "smoke": {"n_hist": 2, "n_recall": 4}},
    "topics": {"full": {"n_lda": 140, "sweeps": 4, "n_rerank": 10, "n_tune": 12},
               "smoke": {"n_lda": 10, "sweeps": 1, "n_rerank": 6, "n_tune": 2}},
}
# The quality pass runs the same pipeline once on larger evaluation sets, so
# test_ppl, recall_at_1 and rerank_bleu are steady across seeds.
QUALITY_SETS = {"train": {"n_test": 80}, "decode": {"n_recall": 80},
                "topics": {"n_rerank": 80}}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "train_tok_s": "tok/s", "eval_tok_s": "tok/s", "test_ppl": "ppl",
    "generate_hist_s": "hist/s", "recall_set_s": "sets/s", "recall_at_1": "ratio",
    "lda_tok_s": "updates/s", "rerank_hist_s": "hist/s", "tune_s": "s",
    "rerank_bleu": "BLEU",
}

OUT_FILES = {
    "prepare": ["vocab.txt", "train.txt", "dev.txt", "test.txt"],
    "train": ["model.ckpt", "train_log.txt"],
    "eval": ["report.tsv", "report.json"],
    "generate": ["generations.txt"],
    "lda": ["topics.bin", "topwords.txt"],
    "rerank": ["rerank_top1.txt"],
    "tune": ["grid.tsv", "best.json"],
}


def probe():
    """Seconds taken by a fixed mix of numpy and interpreter-bound work."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    total = 0.0
    for i in range(40):
        x = _PROBE_A[:, i % 64] @ _PROBE_A
        total += float(np.exp(x - x.max()).sum())
    for i in range(400):
        c = np.cumsum(_PROBE_W * (i + 1))
        total += int(np.searchsorted(c, rng.random() * c[-1], side="right"))
    return time.perf_counter() - t0


def sizes_for(workload, quality=False):
    sizes = {g: dict(SIZES[g]["full" if g == workload else "smoke"]) for g in SIZES}
    if quality:
        for g, sets in QUALITY_SETS.items():
            sizes[g].update(sets)
    return sizes


def flat_len(utterances):
    """Length of a word-level dialogue once flattened (markers, </u>, </d>)."""
    return sum(len(u) + 2 for u in utterances) + 1


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def _write_dialogues(path, dialogues):
    _write_lines(path, [corpus.format_dialogue_line(d) for d in dialogues])


def tree_digest(root, skip=("manifest.json", "cli.log")):
    """sha256 over every file below ``root`` except run manifests (timestamps)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


class Run:
    """One benchmark run: CLI calls, output checks and their failure counts."""

    def __init__(self, workdir, seed, cli_main=None):
        self.seed = seed
        self.calls = []
        self.checks = []
        self.probe_s = []
        self.tracer = None  # set while a traced pass runs
        self._cli_main = cli_main or cli.main
        self._log_path = os.path.join(workdir, "cli.log")

    @property
    def attempted(self):
        return len(self.calls) + len(self.checks)

    @property
    def failed(self):
        return (sum(not c["ok"] for c in self.calls)
                + sum(not c["ok"] for c in self.checks))

    def cli(self, argv, expect=()):
        """Run one CLI command in process; returns its wall time in seconds.

        The call counts as failed when it returns non-zero, raises, or leaves
        any documented output file missing.
        """
        argv = [str(a) for a in argv]
        out = argv[argv.index("--out") + 1]
        error = None
        self.probe_s.append(probe())
        rec = self.tracer.open(f"cli.{argv[0]}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with open(self._log_path, "a", encoding="utf-8") as log, \
                    redirect_stdout(log), redirect_stderr(log):
                rc = self._cli_main(argv)
        except Exception as e:  # a crash is one failed call; the run goes on
            rc, error = None, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if rec is not None:
            self.tracer.close(rec)
        missing = [f for f in list(expect) + ["manifest.json"]
                   if not os.path.exists(os.path.join(out, f))]
        ok = rc == 0 and not missing
        self.calls.append({"argv": argv, "rc": rc, "ok": ok, "seconds": seconds,
                           "missing": missing, "error": error})
        return seconds

    def timed(self, fn):
        """Run ``fn`` and scale its time to the reference host speed.

        Returns fn's result, its raw seconds without the probes, the scaled
        seconds, and the scaled seconds of each CLI call it made. Call i ran
        between probe i and probe i + 1, so it is scaled by their mean; the
        harness's own work between calls by the median probe.
        """
        i0, c0 = len(self.probe_s), len(self.calls)
        t0 = time.perf_counter()
        out = fn()
        self.probe_s.append(probe())
        probes = self.probe_s[i0:]
        raw = time.perf_counter() - t0 - sum(probes)
        calls = [c["seconds"] for c in self.calls[c0:]]
        scaled_calls = [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
                        for i, t in enumerate(calls)]
        rest = (raw - sum(calls)) * PROBE_REF_S / statistics.median(probes)
        return out, raw, sum(scaled_calls) + rest, scaled_calls

    def check(self, name, fn):
        """Record one output check; an exception inside it is a failure."""
        try:
            ok, detail = fn()
        except Exception as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok


# ---------------------------------------------------------------------------
# set-up: corpus, prepare, derived input files, candidate dumps, checkpoint


def pass_files(sz):
    """Input file names of a pass with sizes ``sz``."""
    t, d, p = sz["train"], sz["decode"], sz["topics"]
    return {
        "train": f"train_{t['n_train']}.txt",
        "dev": f"dev_{t['n_dev']}.txt",
        "test": f"test_{t['n_test']}.txt",
        "histories": f"histories_{d['n_hist']}.txt",
        "recall": f"recall_{d['n_recall']}.txt",
        "lda": f"lda_{p['n_lda']}.txt",
        "rerank_hist": f"rerank_hist_{p['n_rerank']}.txt",
        "rerank_ref": f"rerank_ref_{p['n_rerank']}.txt",
        "tune": f"tune_{p['n_tune']}.txt",
    }


def setup(run, sdir, all_sizes):
    """Build the inputs of passes with each of ``all_sizes`` under ``sdir``.

    Returns per pass sizes the token counts the rate metrics divide by.
    """
    shutil.rmtree(sdir, ignore_errors=True)
    os.makedirs(sdir)
    seed = run.seed
    params = dict(CORPUS)
    tc = synthetic.topical(params.pop("n_dialogues"), seed, **params)
    raw = os.path.join(sdir, "raw.txt")
    _write_dialogues(raw, tc.dialogues)
    prep = os.path.join(sdir, "prep")
    run.cli(["prepare", "--corpus", raw, "--out", prep, "--ratios", RATIOS,
             "--seed", seed], OUT_FILES["prepare"])
    vocab = corpus.Vocabulary.load(os.path.join(prep, "vocab.txt"))
    train_w, dev_w, test_w = (corpus.read_corpus_words(os.path.join(prep, f"{n}.txt"))
                              for n in ("train", "dev", "test"))

    counts = []
    for sz in all_sizes:
        t, d, p = sz["train"], sz["decode"], sz["topics"]
        files = pass_files(sz)
        dialogues = {
            "train": train_w[: t["n_train"]],
            "dev": dev_w[: t["n_dev"]],
            "test": test_w[: t["n_test"]],
            "histories": [dlg[:-1] for dlg in test_w[: d["n_hist"]]],
            "recall": test_w[: d["n_recall"]],
            "lda": train_w[: p["n_lda"]],
            "rerank_hist": [dlg[:-1] for dlg in test_w[: p["n_rerank"]]],
            "tune": dev_w[: p["n_tune"]],
        }
        for key, dlgs in dialogues.items():
            _write_dialogues(os.path.join(sdir, files[key]), dlgs)
        _write_lines(os.path.join(sdir, files["rerank_ref"]),
                     [" ".join(dlg[-1]) for dlg in test_w[: p["n_rerank"]]])
        counts.append({
            "train_tokens": sum(flat_len(dlg) for dlg in dialogues["train"]),
            "test_tokens": sum(flat_len(dlg) for dlg in dialogues["test"]),
            "lda_tokens": sum(w in vocab for dlg in dialogues["lda"] for u in dlg for w in u),
        })

    # Candidate dumps: each history's true reply plus 9 replies drawn from
    # other dialogues, scored by a unigram model of the train split. Dump i
    # does not depend on how many dumps a pass reads.
    lp = _unigram_logp(train_w, vocab)
    test_d = [corpus.dialogue_from_words(dlg, vocab) for dlg in test_w]
    dev_d = [corpus.dialogue_from_words(dlg, vocab) for dlg in dev_w]
    n_rerank = max(sz["topics"]["n_rerank"] for sz in all_sizes)
    n_tune = max(sz["topics"]["n_tune"] for sz in all_sizes)
    _write_dumps(os.path.join(sdir, "rerank_cands"), test_d[:n_rerank], test_d, vocab, lp,
                 [seed, 1])
    _write_dumps(os.path.join(sdir, "tune_cands"), dev_d[:n_tune], dev_d, vocab, lp,
                 [seed, 2])

    _write_dialogues(os.path.join(sdir, "ckpt_train.txt"), train_w[: SETUP_CKPT["n_train"]])
    _write_dialogues(os.path.join(sdir, "ckpt_dev.txt"), dev_w[: SETUP_CKPT["n_dev"]])
    run.cli(["train", "--train", os.path.join(sdir, "ckpt_train.txt"),
             "--dev", os.path.join(sdir, "ckpt_dev.txt"),
             "--vocab", os.path.join(prep, "vocab.txt"), "--out", os.path.join(sdir, "ckpt"),
             "--kind", "arnn", "--d", D, "--lr", SETUP_CKPT["lr"],
             "--epochs", SETUP_CKPT["epochs"], "--patience", SETUP_CKPT["epochs"],
             "--seed", seed], OUT_FILES["train"])
    return counts


def _unigram_logp(dialogues_w, vocab):
    counts = np.ones(vocab.size)
    for d in dialogues_w:
        for tok in corpus.flatten(corpus.dialogue_from_words(d, vocab)):
            counts[tok] += 1
    return np.log(counts / counts.sum())


def _write_dumps(dirpath, dialogues, pool, vocab, logp, seed):
    os.makedirs(dirpath)
    for i, dlg in enumerate(dialogues):
        cs = corpus.sample_candidates(pool, dlg, seed + [i])
        cands = []
        for toks in cs.candidates:
            seq = list(toks) + [corpus.EOU_ID]
            ll = float(sum(logp[tok] for tok in seq))
            cands.append(generator.Candidate(tokens=list(toks), loglik=ll,
                                             norm_score=ll / len(seq)))
        cands.sort(key=lambda c: -c.norm_score)
        with open(os.path.join(dirpath, f"candidates_{i:04d}.txt"), "w",
                  encoding="utf-8") as f:
            f.write(generator.format_candidates(cands, vocab))


# ---------------------------------------------------------------------------
# one pass of the pipeline


def run_pass(run, sdir, it, sz):
    """One pass of the pipeline with sizes ``sz`` into ``it``; wall seconds per stage."""
    shutil.rmtree(it, ignore_errors=True)
    os.makedirs(it)
    seed = run.seed
    files = pass_files(sz)
    S = lambda *p: os.path.join(sdir, *p)
    I = lambda *p: os.path.join(it, *p)
    vocab = S("prep", "vocab.txt")
    st = {}

    st["prepare"] = run.cli(["prepare", "--corpus", S("raw.txt"), "--out", I("prep"),
                             "--ratios", RATIOS, "--seed", seed], OUT_FILES["prepare"])
    epochs = sz["train"]["epochs"]
    for kind in ("arnn", "seq2seq-attn"):
        st[f"train_{kind}"] = run.cli(
            ["train", "--train", S(files["train"]), "--dev", S(files["dev"]),
             "--vocab", vocab, "--out", I(f"train_{kind}"), "--kind", kind, "--d", D,
             "--epochs", epochs, "--patience", epochs, "--seed", seed], OUT_FILES["train"])
    st["eval"] = run.cli(["eval", "--checkpoint", I("train_arnn", "model.ckpt"),
                          "--vocab", vocab, "--corpus", S(files["test"]), "--out", I("eval")],
                         OUT_FILES["eval"])

    n_hist = sz["decode"]["n_hist"]
    st["generate"] = run.cli(
        ["generate", "--checkpoint", S("ckpt", "model.ckpt"), "--vocab", vocab,
         "--histories", S(files["histories"]), "--out", I("gen"),
         "--beam-width", BEAM["beam_width"], "--max-len", BEAM["max_len"],
         "--n-best", BEAM["n_best"]],
        OUT_FILES["generate"] + [f"candidates_{i:04d}.txt" for i in range(n_hist)])
    st["eval_recall"] = run.cli(
        ["eval", "--checkpoint", S("ckpt", "model.ckpt"), "--vocab", vocab,
         "--corpus", S(files["recall"]), "--out", I("eval_recall"), "--recall-n", 1],
        OUT_FILES["eval"])

    for k in TOPICS_K:
        st[f"lda{k}"] = run.cli(
            ["lda", "--corpus", S(files["lda"]), "--vocab", vocab, "--out", I(f"lda{k}"),
             "--topics-k", k, "--sweeps", sz["topics"]["sweeps"],
             "--infer-sweeps", INFER_SWEEPS, "--seed", seed], OUT_FILES["lda"])
    n_rerank = sz["topics"]["n_rerank"]
    st["rerank"] = run.cli(
        ["rerank", "--histories", S(files["rerank_hist"]),
         "--candidates-dir", S("rerank_cands"),
         "--topic-model", I(f"lda{TOPICS_K[0]}", "topics.bin"), "--vocab", vocab,
         "--out", I("rerank")],
        OUT_FILES["rerank"] + [f"reranked_{i:04d}.txt" for i in range(n_rerank)])
    st["tune"] = run.cli(
        ["tune", "--histories", S(files["tune"]), "--candidates-dir", S("tune_cands"),
         "--topic-models", ",".join(I(f"lda{k}", "topics.bin") for k in TOPICS_K),
         "--vocab", vocab, "--out", I("tune"), "--objective", "bleu"], OUT_FILES["tune"])
    st["eval_bleu"] = run.cli(["eval", "--hyp", I("rerank", "rerank_top1.txt"),
                               "--ref", S(files["rerank_ref"]), "--out", I("eval_bleu"),
                               "--max-n", BLEU_MAX_N], OUT_FILES["eval"])
    return st


def _report(it, name):
    path = os.path.join(it, name, "report.json")
    if not os.path.exists(path):
        return {"values": {}, "counts": {}}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _ratio(num, den):
    return num / den if den else 0.0


def timing_metrics(sz, counts, st, wall):
    """Timing metrics of one timed pass."""
    epochs, sweeps = sz["train"]["epochs"], sz["topics"]["sweeps"]
    train_s = st["train_arnn"] + st["train_seq2seq-attn"]
    lda_s = sum(st[f"lda{k}"] for k in TOPICS_K)
    return {
        "wall_s": wall,
        "train_tok_s": _ratio(2 * counts["train_tokens"] * epochs, train_s),
        "eval_tok_s": _ratio(counts["test_tokens"], st["eval"]),
        "generate_hist_s": _ratio(sz["decode"]["n_hist"], st["generate"]),
        "recall_set_s": _ratio(sz["decode"]["n_recall"], st["eval_recall"]),
        "lda_tok_s": _ratio(len(TOPICS_K) * sweeps * counts["lda_tokens"], lda_s),
        "rerank_hist_s": _ratio(sz["topics"]["n_rerank"], st["rerank"]),
        "tune_s": st["tune"],
    }


def quality_metrics(it):
    """Quality metrics from the reports a pass wrote."""
    return {
        "test_ppl": _report(it, "eval")["values"].get("ppl", 0.0),
        "recall_at_1": _report(it, "eval_recall")["values"].get("recall_at_1", 0.0),
        "rerank_bleu": _report(it, "eval_bleu")["values"].get("bleu", 0.0),
    }


# ---------------------------------------------------------------------------
# output checks


def run_checks(run, sdir, it, sz, counts, label):
    """Check the outputs one pass left in ``it``."""
    S = lambda *p: os.path.join(sdir, *p)
    I = lambda *p: os.path.join(it, *p)
    files = pass_files(sz)
    vocab = corpus.Vocabulary.load(S("prep", "vocab.txt"))

    run.check(f"{label}:prepare_matches_setup",
              lambda: (tree_digest(I("prep")) == tree_digest(S("prep")), "prep/ outputs"))

    def candidates_loglik():
        model = load_checkpoint(S("ckpt", "model.ckpt"), expect_vocab_sha256=vocab.sha256())
        hists = corpus.load_corpus(S(files["histories"]), vocab, min_turns=1)
        worst = 0.0
        for i in sorted({0, len(hists) - 1}):
            cands = generator.generate(model, hists[i], vocab, **BEAM)
            with open(I("gen", f"candidates_{i:04d}.txt"), encoding="utf-8") as f:
                if f.read() != generator.format_candidates(cands, vocab):
                    return False, f"candidates_{i:04d}.txt differs from a fresh beam search"
            for c in cands:
                lp = generator.continuation_log_likelihood(model, hists[i], c.tokens)
                worst = max(worst, abs(lp - c.loglik) / abs(c.loglik))
        return worst <= 1e-9, f"max relative error {worst:.3g}"

    def eval_ppl():
        model = load_checkpoint(I("train_arnn", "model.ckpt"),
                                expect_vocab_sha256=vocab.sha256())
        total, n = 0.0, 0
        for d in corpus.load_corpus(S(files["test"]), vocab, min_turns=2):
            s = model.score_dialogue(d)
            total += float(s.per_token.sum())
            n += len(s.per_token)
        report = _report(it, "eval")
        ppl = report["values"]["ppl"]
        rel = abs(math.exp(-total / n) - ppl) / ppl
        ok = rel <= 1e-9 and n == counts["test_tokens"] == report["counts"]["tokens"]
        return ok, f"relative error {rel:.3g}, {n} tokens"

    def grid_rows():
        with open(I("tune", "grid.tsv"), encoding="utf-8") as f:
            rows = sum(1 for line in f if line.strip())
        want = len(TOPICS_K) * N_LAMBDAS
        return rows == want, f"{rows} rows, {want} expected"

    def rerank_lines():
        want = sz["topics"]["n_rerank"]
        with open(I("rerank", "rerank_top1.txt"), encoding="utf-8") as f:
            lines = f.read().count("\n")
        return lines == want, f"{lines} lines, {want} histories"

    run.check(f"{label}:candidates_loglik", candidates_loglik)
    run.check(f"{label}:eval_ppl", eval_ppl)
    run.check(f"{label}:grid_rows", grid_rows)
    run.check(f"{label}:rerank_top1_lines", rerank_lines)


# ---------------------------------------------------------------------------
# tracing


def _kind(args):
    return args[0].kind


def _tokens(index):
    def counts(tracer, args, kwargs):
        return {"tokens": len(args[index])}
    return counts


def _example_tokens(tracer, args, kwargs):
    ex = args[1]
    return {"tokens": len(ex.target if hasattr(ex, "target") else ex.tokens)}


def _lda_updates(tracer, args, kwargs):
    return {"token_updates": kwargs["sweeps"] * sum(len(d) for d in args[0])}


def _infer_counts(tracer, args, kwargs):
    model, doc = args[0], args[1]
    key = (model.n_topics, model.seed, model.train_sweeps, tuple(doc))
    repeat = key in tracer.seen
    tracer.seen.add(key)
    return {"token_updates": model.infer_sweeps * len(doc), "repeats": int(repeat)}


def instrument(inst):
    """Wrap each layer's public functions at the names their callers use."""
    fixed = lambda name: (lambda args: name)
    for cls, attr, counts in ((AttentionRnnLm, "loss_and_grads", _tokens(1)),
                              (Seq2Seq, "loss_and_grads", _tokens(2)),
                              (AttentionRnnLm, "example_score", _example_tokens),
                              (Seq2Seq, "example_score", _example_tokens),
                              (AttentionRnnLm, "step_dist", None),
                              (AttentionRnnLm, "advance", None),
                              (AttentionRnnLm, "begin", None)):
        inst.wrap(cls, attr, lambda args, a=attr: f"models.{_kind(args)}.{a}", counts)
    inst.wrap(cli, "save_checkpoint", fixed("models.io.save_checkpoint"))
    inst.wrap(cli, "load_checkpoint", fixed("models.io.load_checkpoint"))
    inst.wrap(corpus, "load_corpus", fixed("corpus.load_corpus"))
    inst.wrap(fileio, "write_text_atomic", fixed("fileio.write_text_atomic"))
    inst.wrap(trainer, "train", fixed("trainer.train"))
    inst.wrap(trainer, "adam_update", fixed("trainer.adam_update"))
    inst.wrap(trainer, "clip_global_norm", fixed("numeric.clip_global_norm"))
    inst.wrap(generator, "generate", fixed("generator.generate"))
    inst.wrap(metrics, "evaluate", fixed("metrics.evaluate"))
    inst.wrap(metrics, "recall_at_n", fixed("metrics.recall_at_n"))
    inst.wrap(metrics, "continuation_logp_from", fixed("metrics.continuation_logp_from"))
    inst.wrap(topics, "lda_train", fixed("topics.lda_train"), _lda_updates)
    inst.wrap(topics, "infer_theta", fixed("topics.infer_theta"), _infer_counts)
    inst.wrap(topics, "rerank", fixed("topics.rerank"))
    inst.wrap(topics, "tune_rerank", fixed("topics.tune_rerank"))


CLI_COMMANDS = ("prepare", "train", "eval", "generate", "lda", "rerank", "tune")

# Self time of these layers should carry each workload (share of the root).
DOMINANT = {
    "train": ("models.arnn.loss_and_grads", "models.seq2seq_attn.loss_and_grads"),
    "decode": ("models.arnn.step_dist", "models.arnn.advance", "generator.generate"),
    "topics": ("topics.lda_train", "topics.infer_theta"),
}


def layer_metrics(agg):
    """Per-layer metrics of one traced pass, from aggregated spans."""
    g = lambda name: agg.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = g(f"cli.{cmd}")["s"]
    m["trainer.train.self_s"] = g("trainer.train")["self_s"]
    m["trainer.adam_update.s"] = g("trainer.adam_update")["s"]
    m["trainer.adam_update.calls"] = g("trainer.adam_update")["calls"]
    m["numeric.clip_global_norm.s"] = g("numeric.clip_global_norm")["s"]
    for kind in ("arnn", "seq2seq_attn"):
        a = g(f"models.{kind}.loss_and_grads")
        m[f"models.{kind}.loss_and_grads.s"] = a["s"]
        m[f"models.{kind}.loss_and_grads.calls"] = a["calls"]
        m[f"models.{kind}.loss_and_grads.tokens"] = a.get("tokens", 0)
        m[f"models.{kind}.loss_and_grads.us_per_tok"] = 1e6 * _ratio(a["s"], a.get("tokens", 0))
        a = g(f"models.{kind}.example_score")
        m[f"models.{kind}.example_score.s"] = a["s"]
        m[f"models.{kind}.example_score.us_per_tok"] = 1e6 * _ratio(a["s"], a.get("tokens", 0))
    for op in ("step_dist", "advance"):
        a = g(f"models.arnn.{op}")
        m[f"models.arnn.{op}.s"] = a["self_s"]
        m[f"models.arnn.{op}.calls"] = a["calls"]
        m[f"models.arnn.{op}.us_per_call"] = 1e6 * _ratio(a["self_s"], a["calls"])
    m["models.arnn.begin.s"] = g("models.arnn.begin")["s"]
    m["models.io.save_checkpoint.s"] = g("models.io.save_checkpoint")["s"]
    m["models.io.load_checkpoint.s"] = g("models.io.load_checkpoint")["s"]
    m["generator.generate.self_s"] = g("generator.generate")["self_s"]
    m["metrics.evaluate.self_s"] = g("metrics.evaluate")["self_s"]
    m["metrics.recall_at_n.self_s"] = g("metrics.recall_at_n")["self_s"]
    m["metrics.continuation_logp_from.calls"] = g("metrics.continuation_logp_from")["calls"]
    a = g("topics.lda_train")
    m["topics.lda_train.s"] = a["s"]
    m["topics.lda_train.token_updates"] = a.get("token_updates", 0)
    m["topics.lda_train.us_per_update"] = 1e6 * _ratio(a["s"], a.get("token_updates", 0))
    a = g("topics.infer_theta")
    m["topics.infer_theta.s"] = a["s"]
    m["topics.infer_theta.calls"] = a["calls"]
    m["topics.infer_theta.token_updates"] = a.get("token_updates", 0)
    m["topics.infer_theta.us_per_update"] = 1e6 * _ratio(a["s"], a.get("token_updates", 0))
    m["topics.infer_theta.repeat_frac"] = _ratio(a.get("repeats", 0), a["calls"])
    m["topics.rerank.self_s"] = g("topics.rerank")["self_s"]
    m["topics.tune_rerank.self_s"] = g("topics.tune_rerank")["self_s"]
    m["corpus.load_corpus.s"] = g("corpus.load_corpus")["s"]
    m["fileio.write_text_atomic.s"] = g("fileio.write_text_atomic")["s"]
    m["fileio.write_text_atomic.calls"] = g("fileio.write_text_atomic")["calls"]
    return m


def unit_of(name):
    """Unit of a metric; a per-layer metric's unit follows its name's last part."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "calls": "count", "tokens": "count",
            "token_updates": "count", "n": "count", "us_per_tok": "us",
            "us_per_call": "us", "us_per_update": "us", "p50_ms": "ms",
            "p90_ms": "ms", "repeat_frac": "ratio", "overhead_frac": "ratio"}[last]


def dominant_shares(agg, root_s):
    return {w: _ratio(sum(agg[n]["self_s"] for n in names if n in agg), root_s)
            for w, names in DOMINANT.items()}


# ---------------------------------------------------------------------------
# a whole run


def execute(workdir, workload, seed, seconds, traced):
    """Set up, run the quality pass and the timed passes, check the outputs.

    Untraced, timed passes repeat until the next one would overrun
    ``seconds``. Traced, untraced and traced passes alternate, a fixed
    number of each, so every count repeats exactly for a seed.
    """
    run = Run(workdir, seed)
    timed_sz, quality_sz = sizes_for(workload), sizes_for(workload, quality=True)
    sdir, qdir, it = (os.path.join(workdir, d) for d in ("setup", "quality", "pass"))

    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        (timed_counts, quality_counts), raw, scaled, _ = run.timed(
            lambda: setup(run, sdir, [timed_sz, quality_sz]))
        setup_times.append({"raw_s": raw, "s": scaled})
        setup_digests.append(tree_digest(sdir))
    run.check("setup_reproducible",
              lambda: (len(set(setup_digests)) == 1, f"{len(setup_digests)} set-ups"))

    run_pass(run, sdir, qdir, quality_sz)
    run_checks(run, sdir, qdir, quality_sz, quality_counts, "quality")

    tracer = spans.Tracer() if traced else None
    passes, digests = [], []
    t_start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        run_id = f"{workload}-{seed}-pass{len(passes)}" if trace_this else None
        if trace_this:
            tracer.start_run(run_id)
            run.tracer = tracer
            inst = spans.Instrumentation(tracer)
            instrument(inst)
            root = tracer.open("pipeline")
        try:
            st, wall, scaled_wall, scaled_calls = run.timed(
                lambda: run_pass(run, sdir, it, timed_sz))
        finally:
            if trace_this:
                tracer.close(root)
                inst.restore()
                run.tracer = None
        scaled = dict(zip(st, scaled_calls))  # one CLI call per stage, in order
        passes.append({"traced": trace_this, "run_id": run_id, "raw_stages": st,
                       "raw_wall_s": wall, "factor": scaled_wall / wall,
                       "metrics": timing_metrics(timed_sz, timed_counts, scaled,
                                                 scaled_wall)})
        digests.append(tree_digest(it))
        if traced:
            if len(passes) == 2 * TRACED_PASSES:
                break
        elif time.perf_counter() - t_start + wall > seconds:
            break
    run.check("passes_reproducible",
              lambda: (len(set(digests)) == 1, f"{len(digests)} passes"))
    run_checks(run, sdir, it, timed_sz, timed_counts, "timed")

    untraced = [p["metrics"] for p in passes if not p["traced"]]
    values = {name: statistics.median(m[name] for m in untraced) for name in untraced[0]}
    values.update(quality_metrics(qdir))
    values["setup_s"] = statistics.median(t["s"] for t in setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "sizes": {"timed": timed_sz, "quality": quality_sz},
        "counts": {"timed": timed_counts, "quality": quality_counts},
        "setup_times": setup_times, "passes": passes,
        "end_to_end": {name: values[name] for name in END_TO_END_UNITS},
    }
    if traced:
        result.update(traced_metrics(run, tracer, passes))
    result.update(calls=run.calls, checks=run.checks, attempted=run.attempted,
                  failed=run.failed, ops_failed_frac=_ratio(run.failed, run.attempted),
                  tracer=tracer)
    return result


def traced_metrics(run, tracer, passes):
    per_pass, shares, latencies = [], [], []
    for p in passes:
        if not p["traced"]:
            continue
        sp = tracer.run_spans(p["run_id"])
        agg = spans.aggregate(sp)
        root_s = agg["pipeline"]["s"]
        self_sum = sum(a["self_s"] for a in agg.values())
        run.check(f"self_times_sum_to_root[{p['run_id']}]",
                  lambda: (abs(self_sum - root_s) <= 1e-6 * root_s,
                           f"self sum {self_sum!r} vs root {root_s!r}"))
        f = p["factor"]
        per_pass.append({k: v * f if unit_of(k) in ("s", "us") else v
                         for k, v in layer_metrics(agg).items()})
        shares.append(dominant_shares(agg, root_s))
        latencies += [d * f for d in agg.get("generator.generate", {"durations": []})["durations"]]
    layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    lat = spans.latency_summary(latencies)
    layers.update({f"generator.generate.{k}": v for k, v in lat.items()})
    traced_wall = statistics.median(p["metrics"]["wall_s"] for p in passes if p["traced"])
    plain_wall = statistics.median(p["metrics"]["wall_s"] for p in passes if not p["traced"])
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    share = {w: statistics.median(s[w] for s in shares) for w in DOMINANT}
    return {"per_layer": layers, "dominant_share": share}


# ---------------------------------------------------------------------------
# environment record


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": tree_digest(os.path.join(root, "src"), skip=()),
        "seed": seed,
    }
