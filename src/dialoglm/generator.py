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

import math
from dataclasses import dataclass

import numpy as np

from . import corpus
from .errors import DataError


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


@dataclass
class _Hyp:
    state: object
    tokens: list
    logp: float
    rows: list


def norm_score(logp, length, len_norm):
    """Length-normalized log-likelihood, logp / length**len_norm."""
    return logp / (length ** len_norm)


def generate(model, history, vocab, beam_width=10, max_len=30, n_best=10,
             len_norm=1.0, record_trace=False):
    """n-best continuations of ``history`` under ``model``.

    Returns Candidates in non-increasing normalized-score order.
    """
    if beam_width < 1 or max_len < 1 or not (1 <= n_best <= beam_width):
        raise DataError("need beam_width >= 1, max_len >= 1, 1 <= n_best <= beam_width")
    if record_trace and not getattr(model, "attends", False):
        raise DataError(f"model kind {model.kind!r} has no attention to trace")
    beams = [_Hyp(state=model.start(history), tokens=[], logp=0.0, rows=[])]
    finished = []
    for _ in range(max_len):
        pool = []
        for hyp in beams:
            probs, alpha = model.step_dist(hyp.state)
            with np.errstate(divide="ignore"):  # underflowed probs rank last
                logps = np.log(probs)
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
            _Hyp(model.advance(h.state, h.tokens[-1]), h.tokens, h.logp, h.rows)
            for h in pool[:beam_width]
        ]
        if not beams:
            break
    finished.extend(beams)  # hypotheses cut off at max_len
    ranked = sorted(
        finished,
        key=lambda h: (-norm_score(h.logp, len(h.tokens), len_norm), h.tokens),
    )
    prefix_labels = vocab.decode(corpus.continuation_prefix(history))
    out = []
    for h in ranked[:n_best]:
        trace = None
        if record_trace:
            trace = AttentionTrace(
                rows=h.rows,
                prefix_labels=prefix_labels,
                generated_labels=vocab.decode(h.tokens),
            )
        out.append(
            Candidate(
                tokens=h.tokens,
                loglik=h.logp,
                norm_score=norm_score(h.logp, len(h.tokens), len_norm),
                trace=trace,
            )
        )
    return out


def continuation_log_likelihood(model, history, tokens):
    """Teacher-forced conditional log-likelihood of ``tokens`` given the history."""
    return continuation_logp_from(model, model.start(history), tokens)


def continuation_logp_from(model, state, tokens):
    """Sum of per-token log-probs of ``tokens`` continued from a decode state."""
    total = 0.0
    for tok in tokens:
        probs, _ = model.step_dist(state)
        p = float(probs[tok])
        total += math.log(p) if p > 0.0 else -math.inf
        state = model.advance(state, tok)
    return total


def trace_attention(model, history, continuation, vocab):
    """Teacher-force ``continuation`` and record each step's attention row.

    The scope at each step covers the full history so far, including the
    continuation tokens already consumed.
    """
    if not getattr(model, "attends", False):
        raise DataError(f"model kind {model.kind!r} has no attention to trace")
    if not continuation:
        raise DataError("cannot trace an empty continuation")
    state = model.start(history)
    rows = []
    for tok in continuation:
        _, alpha = model.step_dist(state)
        rows.append(alpha)
        state = model.advance(state, tok)
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
