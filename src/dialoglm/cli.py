"""Command-line entry point.

One binary, eight subcommands: prepare, train, generate, eval, lda,
rerank, tune, attviz. Every run writes a manifest.json next to its
outputs with the resolved configuration, enough to reproduce the run.
Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
Environment variables are never consulted.
"""

import argparse
import functools
import math
import os
import sys
from datetime import datetime, timezone

from . import corpus, fileio, generator, metrics, topics, trainer
from .errors import DataError, ToolkitError
from .models import MODEL_KINDS, load_checkpoint, make_model, save_checkpoint


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ToolkitError(message)


def _utcnow():
    return datetime.now(timezone.utc).isoformat()


def _load_vocab(args):
    """The vocabulary of ``--vocab`` and the ids of the ``--stopwords`` in it."""
    if not os.path.exists(args.vocab):
        raise DataError(f"vocabulary file not found: {args.vocab}")
    vocab = corpus.Vocabulary.load(args.vocab)
    if args.stopwords is None:
        return vocab, frozenset()
    with open(args.stopwords, encoding="utf-8") as f:
        words = [line.strip() for line in f if line.strip()]
    return vocab, frozenset(vocab.id_of(w) for w in words if w in vocab)


def _load_topics(path, vocab):
    """The topic model at ``path``; DataError unless it was trained on ``vocab``."""
    return topics.TopicModel.load(path, expect_vocab_sha256=vocab.sha256(),
                                  expect_vocab_size=len(vocab))


def _with_topics(args, vocab, stopword_ids, kind, model_of_K):
    """``model_of_K(K)``, a new or loaded model of ``kind``; a tarnn gets K and its
    theta_provider from --topic-model, and DataError without one or on another K."""
    if kind != "tarnn":
        return model_of_K(None)
    if args.topic_model is None:
        raise DataError("a tarnn model needs --topic-model for its topic features")
    tm = _load_topics(args.topic_model, vocab)
    model = model_of_K(tm.n_topics)
    if tm.n_topics != model.K:
        raise DataError(f"{args.topic_model}: topic model has K={tm.n_topics}, "
                        f"but the tarnn checkpoint {args.checkpoint} has K={model.K}")
    model.theta_provider = lambda dialogue: topics.infer_theta(
        tm, topics.dialogue_bow(dialogue, stopword_ids))
    return model


def _load_model(args, vocab, stopword_ids):
    model = load_checkpoint(args.checkpoint, expect_vocab_sha256=vocab.sha256(),
                            expect_vocab_size=len(vocab))
    return _with_topics(args, vocab, stopword_ids, model.kind, lambda K: model)


def _write(args, name, text):
    """``text`` written atomically as ``name`` in the output directory; its path."""
    path = os.path.join(args.out, name)
    fileio.write_text_atomic(path, text)
    return path


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args):
    dialogues = corpus.read_corpus_words(args.corpus, min_turns=2)
    train_w, dev_w, test_w = corpus.split_corpus(dialogues, args.ratios, args.seed)
    if not train_w:
        raise DataError("train split is empty; adjust ratios")
    vocab = corpus.build_vocab(
        (turn for dlg in train_w for turn in dlg), args.vocab_size
    )
    vocab.save(os.path.join(args.out, "vocab.txt"))
    for name, split in (("train", train_w), ("dev", dev_w), ("test", test_w)):
        corpus.write_corpus_words(os.path.join(args.out, f"{name}.txt"), split)
        if split:
            rate = corpus.unk_rate(split, vocab)
            print(f"{name}: {len(split)} dialogues, unk rate {rate:.4f}")
        else:
            print(f"{name}: 0 dialogues")
    return {
        "vocab": os.path.join(args.out, "vocab.txt"),
        "splits": [os.path.join(args.out, f"{n}.txt") for n in ("train", "dev", "test")],
    }


# ---------------------------------------------------------------------------
# train


KIND_FLAGS = {k.replace("_", "-"): k for k in MODEL_KINDS}


def cmd_train(args):
    vocab, stop_ids = _load_vocab(args)
    kind = KIND_FLAGS[args.kind]
    config = trainer.TrainConfig(
        lr=args.lr, max_epochs=args.epochs, patience=args.patience, clip=args.clip,
        seed=args.seed, eval_interval=args.eval_interval,
    )
    model = _with_topics(args, vocab, stop_ids, kind, lambda K: make_model(
        kind, args.d, args.d if args.d_e is None else args.d_e, vocab.size, n_topics=K,
        seed=args.seed))
    train_dlg = corpus.load_corpus(args.train, vocab, min_turns=2)
    dev_dlg = corpus.load_corpus(args.dev, vocab, min_turns=2)
    log_lines = []
    pretrain = ([], [])
    if args.pretrain:
        pre_train = corpus.load_corpus(args.pretrain, vocab, min_turns=2)
        pre_dev = corpus.load_corpus(args.pretrain_dev, vocab, min_turns=2) \
            if args.pretrain_dev else dev_dlg
        pretrain = (pre_train, pre_dev)
    result = trainer.pretrain_finetune(model, pretrain, (train_dlg, dev_dlg), config,
                                       log_lines=log_lines)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_checkpoint(ckpt, result.model, vocab.sha256())
    log = _write(args, "train_log.txt", "".join(line + "\n" for line in log_lines))
    print(f"best dev ppl {result.best_dev_ppl:.4f} after {len(result.log)} evaluations")
    return {"checkpoint": ckpt, "log": log}


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args):
    vocab, stop_ids = _load_vocab(args)
    model = _load_model(args, vocab, stop_ids)
    histories = corpus.load_corpus(args.histories, vocab, min_turns=1)
    top_lines = []
    outputs = []
    for j in range(0, len(histories), generator.LOCKSTEP):
        group = generator.generate(
            model, histories[j:j + generator.LOCKSTEP], vocab, beam_width=args.beam_width,
            max_len=args.max_len, n_best=args.n_best, len_norm=args.len_norm,
            record_trace=args.trace,
        )
        for i, cands in enumerate(group, start=j):
            outputs.append(_write(args, f"candidates_{i:04d}.txt",
                                  generator.format_candidates(cands, vocab)))
            top_lines.append(cands[0].text(vocab))
            if args.trace:
                outputs.append(_write(args, f"trace_{i:04d}.txt",
                                      generator.format_trace(cands[0].trace)))
    gen_path = _write(args, "generations.txt", "".join(line + "\n" for line in top_lines))
    return {"generations": gen_path, "candidates": outputs}


def _parse_candidate_file(path, vocab):
    cands = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            head, _, text = line.partition("\t")
            try:
                _, norm_score, loglik = head.split(" ")
                norm_score, loglik = float(norm_score), float(loglik)
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: malformed candidate line: {e}") from e
            if not (norm_score < math.inf and loglik < math.inf):  # -inf is an underflow
                raise DataError(f"{path}: line {lineno}: score is nan or inf: {head!r}")
            cands.append(
                generator.Candidate(
                    tokens=vocab.encode(text.split()),
                    loglik=loglik,
                    norm_score=norm_score,
                )
            )
    if not cands:
        raise DataError(f"{path}: no candidates")
    return cands


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    if args.hyp or args.ref:
        if not (args.hyp and args.ref):
            raise DataError("text evaluation needs both --hyp and --ref")
        with open(args.hyp, encoding="utf-8") as f:
            hyps = [line.split() for line in f]
        with open(args.ref, encoding="utf-8") as f:
            refs = [line.split() for line in f]
        report = metrics.EvalReport(
            values={
                "bleu": metrics.corpus_bleu(hyps, refs, max_n=args.max_n),
                "distinct_1": metrics.distinct_1(hyps),
            },
            counts={"pairs": len(hyps), "tokens": sum(len(h) for h in hyps)},
        )
    else:
        if not (args.checkpoint and args.vocab and args.corpus):
            raise DataError("model evaluation needs --checkpoint, --vocab and --corpus")
        vocab, stop_ids = _load_vocab(args)
        model = _load_model(args, vocab, stop_ids)
        dialogues = corpus.load_corpus(args.corpus, vocab, min_turns=2)
        report = metrics.evaluate(model, dialogues)
        if args.recall_n is not None:
            sets = [
                corpus.sample_candidates(dialogues, d, [args.recall_seed, i])
                for i, d in enumerate(dialogues)
            ]
            report.values[f"recall_at_{args.recall_n}"] = metrics.recall_at_n(
                model, sets, args.recall_n, len_norm=args.len_norm)
            report.counts["candidate_sets"] = len(sets)
    tsv = _write(args, "report.tsv", report.to_tsv())
    _write(args, "report.json", report.to_json())
    print(report.to_tsv(), end="")
    return {"report": tsv}


# ---------------------------------------------------------------------------
# lda


def cmd_lda(args):
    vocab, stop_ids = _load_vocab(args)
    dialogues = corpus.load_corpus(args.corpus, vocab, min_turns=1)
    docs = [topics.dialogue_bow(d, stop_ids) for d in dialogues]
    xi = None if args.xi is None else [args.xi] * args.topics_k
    tm = topics.lda_train(
        docs, args.topics_k, vocab.size, eta=args.eta, xi=xi,
        sweeps=args.sweeps, seed=args.seed, infer_sweeps=args.infer_sweeps,
    )
    path = os.path.join(args.out, "topics.bin")
    tm.save(path, vocab_sha256=vocab.sha256())
    top = tm.top_words(10, vocab)
    top_path = _write(args, "topwords.txt",
                      "".join(f"topic {k}: " + " ".join(ws) + "\n" for k, ws in enumerate(top)))
    log_path = _write(args, "lda_log.txt", topics.format_lda_log(tm))
    return {"topic_model": path, "top_words": top_path, "log": log_path}


# ---------------------------------------------------------------------------
# rerank


def _iter_candidate_files(cand_dir, n):
    for i in range(n):
        path = os.path.join(cand_dir, f"candidates_{i:04d}.txt")
        if not os.path.exists(path):
            raise DataError(f"missing candidate dump {path}")
        yield i, path


def cmd_rerank(args):
    topics.check_lambdas([args.lam], "--lambda")
    vocab, stop_ids = _load_vocab(args)
    tm = _load_topics(args.topic_model, vocab)
    histories = corpus.load_corpus(args.histories, vocab, min_turns=1)
    # every dump is read and every bag inferred before the first file is written
    cand_lists = [_parse_candidate_file(path, vocab)
                  for _, path in _iter_candidate_files(args.candidates_dir, len(histories))]
    top_lines = []
    for i, ranked in enumerate(topics.rerank(histories, cand_lists, tm, args.lam, args.metric,
                                             stop_ids)):
        lines = []
        for rank, rc in enumerate(ranked, start=1):
            text = rc.candidate.text(vocab)
            lines.append(
                f"{rank} {rc.combined!r} {rc.similarity!r} {rc.ll_z!r}\t{text}"
            )
        _write(args, f"reranked_{i:04d}.txt", "\n".join(lines) + "\n")
        top_lines.append(ranked[0].candidate.text(vocab))
    return {"top1": _write(args, "rerank_top1.txt", "".join(line + "\n" for line in top_lines))}


# ---------------------------------------------------------------------------
# tune


# A lo:hi:step grid with more points is refused before it is built; 0:1:0.0001 fits.
MAX_LAMBDAS = 10_001


def _parse_lambdas(grid):
    """The lambda grid of 'lo:hi:step' or 'a,b,...'; DataError unless valid."""
    try:
        if ":" in grid:
            lo, hi, step = (float(x) for x in grid.split(":"))
            if not step > 0:
                raise DataError(f"--lambdas {grid!r}: the step must be positive")
            n = int(round((hi - lo) / step))
            if n + 1 > MAX_LAMBDAS:
                raise DataError(f"--lambdas {grid!r}: {n + 1} grid points, "
                                f"more than the limit of {MAX_LAMBDAS}")
            lambdas = [round(lo + i * step, 10) for i in range(n + 1)]
        else:
            lambdas = [float(x) for x in grid.split(",")]
    except (ValueError, OverflowError) as e:
        raise DataError(f"--lambdas {grid!r}: {e}") from e
    topics.check_lambdas(lambdas)
    return lambdas


def cmd_tune(args):
    lambdas = _parse_lambdas(args.lambdas)
    vocab, stop_ids = _load_vocab(args)
    dev = corpus.load_corpus(args.histories, vocab, min_turns=2)
    topic_models = {}
    for path in args.topic_models.split(","):
        tm = _load_topics(path, vocab)
        if tm.n_topics in topic_models:
            raise DataError(f"--topic-models: two models with K={tm.n_topics}")
        topic_models[tm.n_topics] = tm
    model = None
    if args.objective == "recall":
        if args.checkpoint is None:
            raise DataError("the recall objective needs --checkpoint to score references")
        model = _load_model(args, vocab, stop_ids)
    cand_lists = [_parse_candidate_file(path, vocab)
                  for _, path in _iter_candidate_files(args.candidates_dir, len(dev))]
    histories = [d.history() for d in dev]
    references = [list(d.last_utterance()) for d in dev]
    truth_indices = [None] * len(dev)
    if args.objective == "recall":
        # the reference joins its history's candidates as the true one; the
        # references are scored LOCKSTEP histories at a time, as recall@N
        # scores candidate sets
        for j in range(0, len(dev), generator.LOCKSTEP):
            group = range(j, min(j + generator.LOCKSTEP, len(dev)))
            seqs = [references[i] + [corpus.EOU_ID] for i in group]
            logps = generator.continuation_logp_from(
                model, [model.start(histories[i]) for i in group], [[seq] for seq in seqs])
            for i, seq, [lp] in zip(group, seqs, logps):
                cand_lists[i].append(generator.Candidate(
                    tokens=references[i], loglik=lp,
                    norm_score=generator.norm_score(lp, len(seq), args.len_norm)))
                truth_indices[i] = len(cand_lists[i]) - 1
    items = [topics.RerankItem(history=h, candidates=c, reference=r, truth_index=t)
             for h, c, r, t in zip(histories, cand_lists, references, truth_indices)]
    best_k, best_lam, table = topics.tune_rerank(
        items, topic_models, lambdas=lambdas, objective=args.objective,
        recall_n=args.recall_n, metric=args.metric, stopword_ids=stop_ids,
    )
    grid = _write(args, "grid.tsv", topics.format_grid(table))
    best = os.path.join(args.out, "best.json")
    fileio.write_json_atomic(best, {"K": best_k, "lambda": best_lam})
    print(f"best K={best_k} lambda={best_lam}")
    return {"grid": grid, "best": best}


# ---------------------------------------------------------------------------
# attviz


# A heatmap raster with more pixels is refused before it is built; the
# default cell of 12 over 31 rows and 2,000 positions fits.
MAX_HEATMAP_PIXELS = 10_000_000


def render_heatmap_pgm(trace, cell_size=12):
    """Grayscale PGM raster of an attention trace.

    Rows are generated tokens, columns are history positions; darker cells
    mean larger attention weight. The exact weight rows are embedded as
    comment lines, so the image is self-describing.
    """
    if cell_size < 1:
        raise DataError(f"cell size {cell_size} must be at least 1")
    n_rows = len(trace.rows)
    width = max(len(row) for row in trace.rows)
    if n_rows * width * cell_size**2 > MAX_HEATMAP_PIXELS:
        raise DataError(f"--cell-size {cell_size}: a {n_rows}x{width} trace would need more "
                        f"than the limit of {MAX_HEATMAP_PIXELS} pixels")
    lines = [f"# row {i}: " + " ".join(repr(float(w)) for w in row)
             for i, row in enumerate(trace.rows)]
    pixels = []
    for row in trace.rows:
        vals = [255 - int(round(255 * min(max(float(w), 0.0), 1.0))) for w in row]
        vals += [255] * (width - len(vals))
        scaled = []
        for v in vals:
            scaled.extend([v] * cell_size)
        for _ in range(cell_size):
            pixels.append(" ".join(str(v) for v in scaled))
    header = ["P2"] + lines + [f"{width * cell_size} {n_rows * cell_size}", "255"]
    return "\n".join(header + pixels) + "\n"


def cmd_attviz(args):
    vocab, stop_ids = _load_vocab(args)
    model = _load_model(args, vocab, stop_ids)
    if not model.attends:
        raise DataError(f"checkpoint kind {model.kind!r} has no attention to visualize")
    histories = corpus.load_corpus(args.history, vocab, min_turns=1)
    if not (0 <= args.history_index < len(histories)):
        raise DataError(f"--history-index {args.history_index} out of range")
    history = histories[args.history_index]
    if args.continuation is not None:
        tokens = vocab.encode(args.continuation.split())
        trace = generator.trace_attention(model, history, tokens, vocab)
    else:
        cands = generator.generate(
            model, history, vocab, beam_width=args.beam_width, max_len=args.max_len,
            n_best=1, len_norm=args.len_norm, record_trace=True,
        )
        trace = cands[0].trace
    heatmap = render_heatmap_pgm(trace, args.cell_size)
    return {"trace": _write(args, "trace.txt", generator.format_trace(trace)),
            "heatmap": _write(args, "heatmap.pgm", heatmap)}


# ---------------------------------------------------------------------------
# parser


def _ratios(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated numbers")
    return parts


def _seed(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return int(text)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


# Flags that several subcommands take, each declared once. A subcommand names
# the ones it takes and states only where it departs from this spec.
SHARED = {
    "--vocab": {"required": True},
    "--out": {"required": True},
    "--checkpoint": {"required": True},
    "--histories": {"required": True},
    "--seed": {"type": _seed, "default": 0},
    "--len-norm": {"type": _finite, "default": 1.0},
    "--beam-width": {"type": int, "default": 10},
    "--max-len": {"type": int, "default": 30},
    "--metric": {"choices": ("cosine", "njsd"), "default": "cosine"},
    "--topic-model": {},
    "--stopwords": {},
}


def _flag(name, **spec):
    """A subcommand's flag: its own spec, or a SHARED flag's departures."""
    return name, spec


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process (parse_args
    keeps no state in it)."""
    parser = _Parser(prog="dialoglm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            name, spec = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(name, **{**SHARED.get(name, {}), **spec})
        p.set_defaults(func=func)
        return p

    command("prepare", cmd_prepare, "split a corpus and build its vocabulary",
            _flag("--corpus", required=True), "--out",
            _flag("--vocab-size", type=int, default=10000),
            _flag("--ratios", type=_ratios, default=(0.8, 0.1, 0.1)), "--seed")
    train = command("train", cmd_train, "train a model variant",
            _flag("--train", required=True),
            _flag("--dev", required=True), "--vocab", "--out",
            _flag("--kind", choices=sorted(KIND_FLAGS), default="arnn"),
            _flag("--d", type=int, default=300),
            _flag("--d-e", type=int, default=None),
            _flag("--lr", type=float, default=1e-3),
            _flag("--epochs", type=int, default=50),
            _flag("--patience", type=int, default=5),
            _flag("--clip", type=float, default=5.0), "--seed",
            _flag("--eval-interval", type=int, default=1), "--topic-model", "--stopwords",
            _flag("--pretrain", default=None),
            _flag("--pretrain-dev", default=None),
            _flag("--config", default=None,
                  help="key=value file; flags given on the command line win"))
    parser.train_required = [a.option_strings[0] for a in train._actions if a.required]
    command("generate", cmd_generate, "beam-search continuations for histories",
            "--checkpoint", "--vocab", "--histories", "--out", "--beam-width",
            _flag("--n-best", type=int, default=10), "--max-len", "--len-norm",
            _flag("--trace", action="store_true"), "--topic-model", "--stopwords")
    command("eval", cmd_eval, "evaluate a model on a corpus, or score generations",
            _flag("--checkpoint", required=False),
            _flag("--vocab", required=False),
            _flag("--corpus", default=None), "--out",
            _flag("--recall-n", type=int, default=None),
            _flag("--recall-seed", type=_seed, default=0), "--len-norm",
            _flag("--hyp", default=None),
            _flag("--ref", default=None),
            _flag("--max-n", type=int, default=4), "--topic-model", "--stopwords")
    command("lda", cmd_lda, "train the LDA topic structure",
            _flag("--corpus", required=True), "--vocab", "--out",
            _flag("--topics-k", type=int, default=10),
            _flag("--eta", type=float, default=0.01),
            _flag("--xi", type=float, default=None,
                  help="scalar document-topic prior; default 50/K"),
            _flag("--sweeps", type=int, default=100),
            _flag("--infer-sweeps", type=int, default=50), "--seed", "--stopwords")
    command("rerank", cmd_rerank, "reorder generated candidates by topic match",
            "--histories",
            _flag("--candidates-dir", required=True),
            _flag("--topic-model", required=True), "--vocab", "--out",
            _flag("--lambda", dest="lam", type=float, default=0.45), "--metric", "--stopwords")
    command("tune", cmd_tune, "grid-search (K, lambda) for the reranker",
            _flag("--histories", help="dev corpus with reference responses as final turns"),
            _flag("--candidates-dir", required=True),
            _flag("--topic-models", required=True,
                  help="comma-separated topic model paths (one per K)"), "--vocab", "--out",
            _flag("--lambdas", default="0.0:1.0:0.05"),
            _flag("--objective", choices=("bleu", "recall"), default="bleu"),
            _flag("--recall-n", type=int, default=1),
            _flag("--checkpoint", required=False,
                  help="needed by the recall objective to score references"),
            "--topic-model", "--len-norm", "--metric", "--stopwords")
    command("attviz", cmd_attviz, "emit an attention trace and heatmap",
            "--checkpoint", "--vocab",
            _flag("--history", required=True),
            _flag("--history-index", type=int, default=0), "--out",
            _flag("--beam-width", default=1), "--max-len", "--len-norm",
            _flag("--continuation", default=None,
                  help="trace this whitespace-tokenized continuation instead of decoding"),
            _flag("--cell-size", type=int, default=12), "--topic-model", "--stopwords")
    return parser


def _parse_args(argv):
    """``argv`` parsed; train's --config pairs go before the user's flags, which win."""
    parser = build_parser()
    if argv[:1] != ["train"]:
        return parser.parse_args(argv)
    # --config as argparse reads it (--config=f, a prefix); the file may give
    # the flags train requires, so they get placeholders that it overrides
    fill = [s for flag in parser.train_required for s in (flag, "")]
    path = parser.parse_args(argv[:1] + fill + argv[1:]).config
    if path is None:
        return parser.parse_args(argv)
    flags = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            flags.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    return parser.parse_args(argv[:1] + flags + argv[1:])


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    started = _utcnow()
    try:
        args = _parse_args(list(argv))
        os.makedirs(args.out, exist_ok=True)
        outputs = args.func(args)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        inputs = {k: v for k, v in config.items()
                  if k != "out" and isinstance(v, str) and os.path.exists(v)}
        fileio.write_manifest(args.out, args.command, config, inputs=inputs, outputs=outputs,
                              seed=getattr(args, "seed", None), started=started,
                              ended=_utcnow())
        return 0
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (OSError, UnicodeDecodeError) as e:  # a missing, unreadable or non-UTF-8 file
        print(f"error: {e}", file=sys.stderr)
        return DataError.exit_code
    except SystemExit as e:  # argparse --help
        return 0 if e.code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
