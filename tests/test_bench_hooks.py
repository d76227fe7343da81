"""The traced benchmark (``bench/run.py --trace 1``) wraps program functions
by the names their callers look up. These tests run its ``instrument`` over
the real modules, so a refactor that drops or bypasses one of those names
fails here instead of silently zeroing a per-layer metric."""

import importlib.util
import os
import sys
import threading
import time

import pytest

from dialoglm import corpus, numeric, synthetic
from dialoglm.cli import main
from dialoglm.models import make_model, seq2seq_pair
from dialoglm.models.base import Model

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# private names, so that no later ``import spans`` or ``import pipeline``
# resolves to the benchmark's files; pipeline.py imports spans by its plain
# name, which is bound only while pipeline.py loads
spans = _load("_bench_spans", "spans.py")
_saved = sys.modules.get("spans")
sys.modules["spans"] = spans
try:
    pipeline = _load("_bench_pipeline", "pipeline.py")
finally:
    if _saved is None:
        del sys.modules["spans"]
    else:
        sys.modules["spans"] = _saved


class RecordingInstrumentation(spans.Instrumentation):
    """Remembers each wrapped attribute as it was before the wrap."""

    def __init__(self, tracer):
        super().__init__(tracer)
        self.targets = []

    def wrap(self, owner, attr, name_of, counts_of=None):
        self.targets.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        super().wrap(owner, attr, name_of, counts_of)


def test_wraps_resolve_and_are_restored():
    inst = RecordingInstrumentation(spans.Tracer())
    with inst:
        pipeline.instrument(inst)
        assert inst.targets
        for owner, attr, _, original in inst.targets:
            wrapper = getattr(owner, attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original, f"{owner.__name__}.{attr}"
    for owner, attr, had_own, original in inst.targets:
        assert (attr in vars(owner)) == had_own, f"{owner.__name__}.{attr}"
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def _traced_run(root, tracer):
    """A tiny traced run of every stage the benchmark times, under ``root``;
    generate, rerank and tune read 3 histories."""
    tc = synthetic.topical(30, seed=3, n_topics=2, generic_prob=0.5)
    corpus.write_corpus_words(root / "raw.txt", tc.dialogues)
    P = lambda *parts: str(root.joinpath(*parts))
    vocab = P("prep", "vocab.txt")
    tracer.start_run(0)
    with spans.Instrumentation(tracer) as inst:
        pipeline.instrument(inst)
        assert main(["prepare", "--corpus", P("raw.txt"), "--out", P("prep"),
                     "--ratios", "0.6,0.2,0.2", "--seed", "1"]) == 0
        for kind in ("arnn", "seq2seq-attn"):
            assert main(["train", "--train", P("prep", "train.txt"),
                         "--dev", P("prep", "dev.txt"), "--vocab", vocab,
                         "--out", P(f"train_{kind}"), "--kind", kind, "--d", "4",
                         "--epochs", "1", "--seed", "1"]) == 0
        ckpt = P("train_arnn", "model.ckpt")
        test = P("prep", "test.txt")
        assert main(["eval", "--checkpoint", ckpt, "--vocab", vocab, "--corpus", test,
                     "--out", P("eval"), "--recall-n", "1"]) == 0
        with open(test, encoding="utf-8") as f:
            (root / "hist.txt").write_text("".join(f.readlines()[:3]), encoding="utf-8")
        test = P("hist.txt")
        assert main(["generate", "--checkpoint", ckpt, "--vocab", vocab,
                     "--histories", test, "--out", P("gen"), "--beam-width", "2",
                     "--n-best", "2", "--max-len", "3"]) == 0
        assert main(["lda", "--corpus", P("prep", "train.txt"), "--vocab", vocab,
                     "--out", P("lda"), "--topics-k", "2", "--sweeps", "1",
                     "--infer-sweeps", "1"]) == 0
        assert main(["rerank", "--histories", test, "--candidates-dir", P("gen"),
                     "--topic-model", P("lda", "topics.bin"), "--vocab", vocab,
                     "--out", P("rerank")]) == 0
        assert main(["tune", "--histories", test, "--candidates-dir", P("gen"),
                     "--topic-models", P("lda", "topics.bin"), "--vocab", vocab,
                     "--out", P("tune"), "--lambdas", "0.0,1.0"]) == 0


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory):
    """Span aggregates of a tiny traced run of every stage the benchmark
    times, and the run's directory."""
    root = tmp_path_factory.mktemp("hooks")
    tracer = spans.Tracer()
    _traced_run(root, tracer)
    return spans.aggregate(tracer.run_spans(0)), root


def test_traced_calls_stay_on_the_calling_thread(tmp_path, monkeypatch, two_cpus):
    # the tracer keeps one span stack: a traced function called from the
    # worker of numeric.lanes (say step_dist from a decode piece) would
    # interleave its spans with the calling thread's
    monkeypatch.setattr(numeric, "LANE_MIN", 0)
    opened, pieces, scores, caller = [], [], [], threading.current_thread()
    real_open, real_step, real_score = spans.Tracer.open, Model._step_dist, Model._score

    def open_(self, name):
        opened.append((name, threading.current_thread()))
        return real_open(self, name)

    def step(self, *operands):
        pieces.append(threading.current_thread())
        if pieces[-1] is caller:  # a tiny piece: give the worker time to take the next one
            time.sleep(0.002)
        return real_step(self, *operands)

    def score(self, ex, lane):  # an eval or dev piece, and example_score inside
        scores.append(threading.current_thread())
        if scores[-1] is caller:
            time.sleep(0.002)
        return real_score(self, ex, lane)

    monkeypatch.setattr(spans.Tracer, "open", open_)
    monkeypatch.setattr(Model, "_step_dist", step)
    monkeypatch.setattr(Model, "_score", score)
    _traced_run(tmp_path, spans.Tracer())
    assert {"models.arnn.step_dist", "models.arnn.example_score"} <= {name for name, _ in opened}
    assert [(name, t.name) for name, t in opened if t is not caller] == []
    assert two_cpus, "numeric.lanes never handed off"
    assert any(t is not caller for t in pieces), "no decode piece ran on the worker"
    assert any(t is not caller for t in scores), "no scoring piece ran on the worker"


def test_every_traced_layer_is_called(traced_pipeline):
    traced, root = traced_pipeline
    # every span name that bench/pipeline.py::layer_metrics reads, except the
    # cli.* spans the harness opens itself
    names = ["models.arnn.loss_and_grads", "models.seq2seq_attn.loss_and_grads",
             "models.arnn.example_score", "models.seq2seq_attn.example_score",
             "models.arnn.step_dist", "models.arnn.advance", "models.arnn.begin",
             "models.io.save_checkpoint", "models.io.load_checkpoint",
             "corpus.load_corpus", "fileio.write_text_atomic", "trainer.train",
             "trainer.adam_update", "numeric.clip_global_norm", "generator.generate",
             "metrics.evaluate", "metrics.recall_at_n", "metrics.continuation_logp_from",
             "topics.lda_train", "topics.infer_theta", "topics.rerank",
             "topics.tune_rerank"]
    missing = [n for n in names if traced.get(n, {}).get("calls", 0) == 0]
    assert missing == []
    # one epoch trains once on each of the kind's train-split Examples; the
    # counters read the tokens from loss_and_grads' positional arguments
    vocab = corpus.Vocabulary.load(str(root / "prep" / "vocab.txt"))
    train_split = corpus.load_corpus(str(root / "prep" / "train.txt"), vocab, min_turns=2)
    for kind in ("arnn", "seq2seq_attn"):
        model = make_model(kind, 4, 4, vocab.size)
        traced_kind = traced[f"models.{kind}.loss_and_grads"]
        assert traced_kind["calls"] == len(train_split)
        assert traced_kind["tokens"] == sum(len(model.make_example(d).target)
                                            for d in train_split)
    assert traced["topics.infer_theta"]["token_updates"] > 0
    # the counter reads ``sweeps=`` from cmd_lda's keyword arguments
    assert traced["topics.lda_train"]["token_updates"] > 0


@pytest.mark.parametrize("kind", ["arnn", "seq2seq_attn"])
def test_example_token_counts(kind):
    # models.*.example_score.us_per_tok divides by these counts: every token
    # of the flattened dialogue for an LM, the reply plus </u> for seq2seq
    d = corpus.Dialogue(((0, (6, 7, 8)), (1, (9, 10)), (0, (11,))))
    m = make_model(kind, 4, 3, 12, seed=0)
    want = len(corpus.flatten(d)) if kind == "arnn" else len(seq2seq_pair(d)[1])
    assert pipeline._example_tokens(None, (m, m.make_example(d)), {}) == {"tokens": want}
