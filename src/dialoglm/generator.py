"""Continuation generation: beam search over next-token distributions,
n-best candidate extraction, and attention-trace capture.

A hypothesis completes when it emits the end-of-utterance marker or
reaches ``max_len``. Completed hypotheses are ranked by length-normalized
log-likelihood, score / len**len_norm (len_norm = 1.0 is the plain
average); ``beam_width=1`` is exact greedy decoding. A candidate's token
sequence includes the terminal </u> when the hypothesis ended on it, so
its log-likelihood always equals an independent teacher-forced rescoring
of exactly those tokens after the history prefix.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import corpus
from .errors import DataError
from .models.base import check_tokens
from .numeric import lanes

# Histories that the CLI's generate decodes in lockstep: one per lane of
# numeric.lanes.
LOCKSTEP = 2


@dataclass
class AttentionTrace:
    """One weight row per generated token, over the history at that step.

    For the dynamic-scope language models row t has length
    (history length + t); for fixed-scope seq2seq attention every row has
    the source length.
    """

    rows: list
    prefix_labels: list
    generated_labels: list


@dataclass
class Candidate:
    tokens: list
    loglik: float
    norm_score: float
    trace: AttentionTrace = None

    def text(self, vocab):
        return " ".join(vocab.decode(corpus.strip_reserved(self.tokens)))


def norm_score(logp, length, len_norm):
    """Length-normalized log-likelihood, logp / length**len_norm; DataError
    when a len_norm of large magnitude takes it out of the float range."""
    try:
        score = logp / (length ** len_norm)
    except (OverflowError, ZeroDivisionError):
        score = math.inf
    if math.isinf(score) and math.isfinite(logp):
        raise DataError(f"len_norm {len_norm!r} takes length**len_norm out of the float range")
    return score


def generate(model, history, vocab, beam_width=10, max_len=30, n_best=10,
             len_norm=1.0, record_trace=False):
    """n-best continuations of ``history`` under ``model``, or given a list
    of histories, one list of them per history.

    Each history's beam is one decode state of B rows, stepped as a batch.
    The beams of a list step in lockstep (``Model.step_dist`` and
    ``Model.advance`` over the list of their states), each beam's
    distributions and its top-k selection a piece of ``numeric.lanes``;
    a beam leaves the group when it empties. Each beam's output is bitwise
    what it gets decoded alone. Returns Candidates in non-increasing
    normalized-score order.
    """
    if not isinstance(history, list):
        return generate(model, [history], vocab, beam_width, max_len, n_best, len_norm,
                        record_trace)[0]
    if beam_width < 1 or max_len < 1 or not (1 <= n_best <= beam_width):
        raise DataError("need beam_width >= 1, max_len >= 1, 1 <= n_best <= beam_width")
    if not math.isfinite(len_norm):
        raise DataError(f"len_norm must be finite, got {len_norm}")
    if record_trace and not model.attends:
        raise DataError(f"model kind {model.kind!r} has no attention to trace")
    beams = [_Beam(model.start(h)) for h in history]
    live = beams
    k = min(beam_width, model.V)
    for step in range(max_len):
        if step:
            states = model.advance([b.state for b in live], [b.tok for b in live],
                                   [b.parent for b in live])
            for b, state in zip(live, states):
                b.state = state
        dists = model.step_dist([b.state for b in live])
        tops = lanes(lambda i, lane: _top_tokens(dists[i][0], k), len(live),
                     sum(probs.size for probs, _ in dists))
        live = [b for b, (_, alpha), (cost, top) in zip(live, dists, tops)
                if b.extend(cost, top, alpha, beam_width, record_trace)]
        dists = tops = None  # free the probability rows before the next step's
        if not live:
            break
    for b in live:  # hypotheses cut off at max_len
        b.finished.extend(zip(b.tokens.tolist(), b.logp.tolist(), b.rows))
    return [b.candidates(h, vocab, n_best, len_norm, record_trace)
            for b, h in zip(beams, history)]


def _top_tokens(probs, k):
    """-log p of every token (in ``probs``) and each row's k best tokens,
    most probable first."""
    with np.errstate(divide="ignore"):  # underflowed probs rank last
        cost = np.negative(np.log(probs, out=probs), out=probs)
    by_row = np.arange(len(cost))[:, None]
    top = np.argpartition(cost, k - 1, axis=1)[:, :k]
    return cost, top[by_row, np.argsort(cost[by_row, top], axis=1, kind="stable")]


class _Beam:
    """One history's beam search: its decode state, row b of ``tokens``,
    ``logp`` and ``rows`` for hypothesis b (``rows``: its attention rows,
    when recorded), the ``finished`` hypotheses as (tokens, logp, rows), and
    the ``tok`` and ``parent`` of each row of the next advance."""

    def __init__(self, state):
        self.state = state
        self.tokens = np.zeros((1, 0), dtype=np.intp)
        self.logp = np.zeros(1)
        self.rows = [[]]
        self.finished = []
        self.tok = self.parent = None

    def extend(self, cost, top, alpha, beam_width, record_trace):
        """Extend each hypothesis by its ``top`` tokens, finish those that end
        on </u> and keep the best ``beam_width`` others, by (-logp, tokens);
        False when none is left."""
        by_row = np.arange(len(top))[:, None]
        ext = self.logp[:, None] - cost[by_row, top]  # the extended hypotheses' log-likelihoods
        if record_trace:
            self.rows = [r + [a] for r, a in zip(self.rows, alpha)]
        for b, i in zip(*np.nonzero(top == corpus.EOU_ID)):
            self.finished.append((self.tokens[b].tolist() + [corpus.EOU_ID], float(ext[b, i]),
                                  self.rows[b]))
        parent, col = np.nonzero(top != corpus.EOU_ID)
        if not len(parent):
            return False
        tok, ext = top[parent, col], ext[parent, col]
        keep = np.lexsort((tok, *self.tokens[parent].T[::-1], -ext))[:beam_width]
        self.parent, self.tok, self.logp = parent[keep], tok[keep], ext[keep]
        self.tokens = np.concatenate([self.tokens[self.parent], self.tok[:, None]], axis=1)
        self.rows = [self.rows[b] for b in self.parent]
        return True

    def candidates(self, history, vocab, n_best, len_norm, record_trace):
        """The ``n_best`` finished hypotheses as Candidates, best first."""
        ranked = sorted(
            self.finished,
            key=lambda f: (-norm_score(f[1], len(f[0]), len_norm), f[0]),
        )
        prefix_labels = vocab.decode(corpus.continuation_prefix(history))
        out = []
        for toks, lp, trace_rows in ranked[:n_best]:
            trace = None
            if record_trace:
                trace = AttentionTrace(
                    rows=trace_rows,
                    prefix_labels=prefix_labels,
                    generated_labels=vocab.decode(toks),
                )
            out.append(
                Candidate(
                    tokens=toks,
                    loglik=lp,
                    norm_score=norm_score(lp, len(toks), len_norm),
                    trace=trace,
                )
            )
        return out


def continuation_log_likelihood(model, history, tokens):
    """Teacher-forced conditional log-likelihood of ``tokens`` given the history."""
    return continuation_logp_from(model, model.start(history), [tokens])[0]


def continuation_logp_from(model, state, sequences):
    """Sum of per-token log-probs of each of ``sequences``, continued from
    the one-hypothesis decode state ``state`` and scored as one batch.

    Consumes ``state``. A sequence leaves the batch after its last token.
    DataError, before any step, when a token lies outside the vocabulary.
    """
    for seq in sequences:
        check_tokens(seq, model.V)
    totals = [0.0] * len(sequences)
    live = [i for i, seq in enumerate(sequences) if seq]  # sequences still scoring
    rows = [0] * len(live)  # the state row each live sequence continues
    for j in itertools.count():
        [(probs, _)] = model.step_dist([state])
        for i, r in zip(live, rows):
            p = float(probs[r, sequences[i][j]])
            totals[i] += math.log(p) if p > 0.0 else -math.inf
        rows = [r for i, r in zip(live, rows) if len(sequences[i]) > j + 1]
        live = [i for i in live if len(sequences[i]) > j + 1]
        if not live:
            return totals
        [state] = model.advance([state], [[sequences[i][j] for i in live]], [rows])
        rows = range(len(live))


def trace_attention(model, history, continuation, vocab):
    """Teacher-force ``continuation`` and record each step's attention row.

    The scope at each step covers the full history so far, including the
    continuation tokens already consumed.
    """
    if not model.attends:
        raise DataError(f"model kind {model.kind!r} has no attention to trace")
    if not continuation:
        raise DataError("cannot trace an empty continuation")
    states = [model.start(history)]
    rows = []
    for tok in continuation:
        [(_, alpha)] = model.step_dist(states)
        rows.append(alpha[0])
        states = model.advance(states, [[tok]], [[0]])
    return AttentionTrace(
        rows=rows,
        prefix_labels=vocab.decode(corpus.continuation_prefix(history)),
        generated_labels=vocab.decode(continuation),
    )


TRACE_FORMAT_VERSION = 1


def format_trace(trace):
    """Trace export: documented line-oriented schema (docs/FORMATS.md)."""
    lines = [f"attention-trace {TRACE_FORMAT_VERSION}"]
    lines.append("prefix: " + " ".join(trace.prefix_labels))
    lines.append("generated: " + " ".join(trace.generated_labels))
    for i, row in enumerate(trace.rows):
        weights = " ".join(repr(float(w)) for w in row)
        lines.append(f"{i}\t{trace.generated_labels[i]}\t{weights}")
    return "\n".join(lines) + "\n"


def format_candidates(candidates, vocab):
    """Candidate dump: 'rank norm_score loglik<TAB>text', one per line."""
    lines = []
    for rank, c in enumerate(candidates, start=1):
        lines.append(f"{rank} {c.norm_score!r} {c.loglik!r}\t{c.text(vocab)}")
    return "\n".join(lines) + "\n"
