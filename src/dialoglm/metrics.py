"""Evaluation suite: perplexity (full dialogue and last utterance), word
error rate, recall@N over 10-candidate sets, corpus BLEU, and Distinct-1.

Word error rate here is the teacher-forced top-1 token error: the fraction
of scored positions where the model's argmax differs from the reference
token. recall@N ranks candidates by length-normalized conditional
log-likelihood; ties break by candidate index.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import corpus
from .errors import DataError
from .generator import continuation_logp_from, norm_score


@dataclass
class EvalReport:
    """Metric values plus the counts that back them."""

    values: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def to_tsv(self):
        lines = [f"{k}\t{self.values[k]!r}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def to_json(self):
        import json

        return json.dumps({"values": self.values, "counts": self.counts},
                          indent=2, sort_keys=True) + "\n"


@dataclass
class Tally:
    """Running totals behind perplexity and word error rate."""

    logp: float = 0.0
    tokens: int = 0
    errors: int = 0

    def add(self, per_token, argmax, refs):
        """Count scored positions and those whose ``argmax`` misses ``refs``."""
        self.logp += float(per_token.sum())
        self.tokens += len(per_token)
        self.errors += int(np.sum(argmax != refs))

    def rates(self):
        """(perplexity, word error rate): exp(-sum log P / tokens), errors / tokens."""
        if self.tokens == 0:
            raise DataError("evaluation span contains zero tokens")
        return float(np.exp(-self.logp / self.tokens)), self.errors / self.tokens


def tallies(model, examples):
    """(full, last-utterance) tallies from one scoring pass over ``examples``
    (``model.make_example`` of each dialogue): over each whole target, and
    over its ``last`` span."""
    full, last = Tally(), Tally()
    for ex in examples:
        s, refs = model.example_score(ex), np.asarray(ex.target)
        full.add(s.per_token, s.argmax, refs)
        last.add(s.per_token[ex.last], s.argmax[ex.last], refs[ex.last])
    return full, last


def evaluate(model, dialogues):
    """PPL, PPL@L, WER and WER@L in one pass over the dialogues."""
    if not dialogues:
        raise DataError("empty evaluation set")
    full, last = tallies(model, [model.make_example(d) for d in dialogues])
    (ppl, wer), (ppl_at_l, wer_at_l) = full.rates(), last.rates()
    return EvalReport(
        values={"ppl": ppl, "ppl_at_l": ppl_at_l, "wer": wer, "wer_at_l": wer_at_l},
        counts={"dialogues": len(dialogues), "tokens": full.tokens, "tokens_at_l": last.tokens},
    )


def recall_at_n(model, candidate_sets, n, len_norm=1.0):
    """Fraction of sets whose true continuation ranks in the top n of 10.

    Candidates are scored as teacher-forced continuations (with a closing
    </u>) of the history, one batch per set, normalized by length**len_norm.
    """
    if not candidate_sets:
        raise DataError("no candidate sets")
    if not (1 <= n <= 10):
        raise DataError("recall@N needs 1 <= N <= 10")
    hits = 0
    for cs in candidate_sets:
        seqs = [list(cand) + [corpus.EOU_ID] for cand in cs.candidates]
        logps = continuation_logp_from(model, model.start(cs.history), seqs)
        scores = [norm_score(lp, len(seq), len_norm) for lp, seq in zip(logps, seqs)]
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        if order.index(cs.truth_index) < n:
            hits += 1
    return hits / len(candidate_sets)


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_counts(tokens, max_n=4):
    """The n-gram Counters of ``tokens``, one per order n = 1..max_n."""
    return [_ngram_counts(tokens, n) for n in range(1, max_n + 1)]


def bleu_stats(hyp, ref_counts, ref_len):
    """BLEU's statistics of one hypothesis against one reference whose
    ``ngram_counts`` and length are given: [hyp length, ref length, then per
    order n its clipped match count and its hypothesis n-gram count]."""
    stats = [len(hyp), ref_len]
    for n, rc in enumerate(ref_counts, start=1):
        hc = _ngram_counts(hyp, n)
        stats += [sum(min(c, rc[g]) for g, c in hc.items()), max(len(hyp) - n + 1, 0)]
    return stats


def bleu_of_stats(pair_stats):
    """Corpus BLEU from the ``bleu_stats`` of every pair, summed per field.

    Modified n-gram precisions for n = 1..max_n enter a uniform geometric
    mean. Add-one smoothing applies to an order-n precision (n >= 2) only
    when its clipped match count is zero; order 1 is never smoothed, so
    fully disjoint unigrams give BLEU = 0. An order with no hypothesis
    n-grams at all contributes precision 1.
    """
    hyp_len, ref_len, *counts = (sum(field) for field in zip(*pair_stats))
    if hyp_len == 0:
        return 0.0
    max_n = len(counts) // 2
    log_prec = 0.0
    for n in range(1, max_n + 1):
        matched, total = counts[2 * n - 2], counts[2 * n - 1]
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


def corpus_bleu(hypotheses, references, max_n=4):
    """Corpus-level BLEU with brevity penalty, one reference per hypothesis
    (see ``bleu_of_stats``)."""
    if len(hypotheses) != len(references):
        raise DataError("hypotheses and references must align one-to-one")
    if not hypotheses:
        raise DataError("empty corpus for BLEU")
    if max_n < 1:
        raise DataError(f"BLEU needs max_n >= 1, got {max_n}")
    return bleu_of_stats([bleu_stats(hyp, ngram_counts(ref, max_n), len(ref))
                          for hyp, ref in zip(hypotheses, references)])


def distinct_1(generations):
    """Distinct unigrams across all generations over total generated tokens."""
    total = sum(len(g) for g in generations)
    if total == 0:
        raise DataError("no generated tokens")
    distinct = len({tok for g in generations for tok in g})
    return distinct / total
