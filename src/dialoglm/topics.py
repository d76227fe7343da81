"""LDA topic modeling by collapsed Gibbs sampling, topic-proportion
inference for unseen documents, topic-match scoring, and the weighted
candidate reranker.

The reranker combines a topic-similarity score S with the candidate's
conditional log-likelihood l as lambda * S + (1 - lambda) * l_z, where l_z
is l standardized to zero mean / unit variance within the candidate set
(S lives in [0, 1] while raw log-likelihoods are unbounded, so mixing raw
values would make lambda scale-dependent). l is the same length-normalized
conditional log-likelihood the generator ranks by, so lambda = 0 reproduces
the generation order exactly.
"""

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, truediv

import numpy as np

from . import corpus
from .errors import DataError
from .fileio import check_fields, float64s, is_int, is_positive, read_binary, write_binary
from .metrics import bleu_of_stats, bleu_stats, ngram_counts

log = logging.getLogger(__name__)

TOPIC_FORMAT_VERSION = 1
LDA_LOG_VERSION = 1


@dataclass
class TopicModel:
    """Learned topic-word structure with Dirichlet hyperparameters.

    ``phi`` is the (K, V) matrix of per-topic word distributions estimated
    from the smoothed Gibbs counts; inference for new documents runs Gibbs
    with phi frozen.
    """

    n_topics: int
    vocab_size: int
    phi: np.ndarray
    eta: float
    xi: np.ndarray
    seed: int
    train_sweeps: int
    infer_sweeps: int = 50
    ll_history: list = field(default_factory=list)
    skipped_empty: int = 0

    def top_words(self, n, vocab=None):
        """Per topic, the n highest-probability word ids (or strings)."""
        out = []
        for k in range(self.n_topics):
            ids = np.argsort(-self.phi[k])[:n]
            out.append([vocab.token_of(int(i)) if vocab else int(i) for i in ids])
        return out

    def save(self, path, vocab_sha256=None):
        header = {
            "format": TOPIC_FORMAT_VERSION,
            "K": self.n_topics,
            "V": self.vocab_size,
            "eta": self.eta,
            "xi": [float(x) for x in self.xi],
            "seed": self.seed,
            "train_sweeps": self.train_sweeps,
            "infer_sweeps": self.infer_sweeps,
            "vocab_sha256": vocab_sha256,
        }
        write_binary(path, header, self.phi)

    @classmethod
    def load(cls, path, expect_vocab_sha256=None, expect_vocab_size=None):
        """Read ``topics.bin``; a caller that passes a vocabulary's hash and
        size gets a DataError unless the file is bound to that vocabulary."""
        header, payload = read_binary(path, "topic model", TOPIC_FORMAT_VERSION,
                                      expect_vocab_sha256)
        check_fields(header, path, {
            "K": is_int(1), "V": is_int(1), "eta": is_positive, "seed": is_int(0),
            "train_sweeps": is_int(0), "infer_sweeps": is_int(0),
            "xi": lambda xi: type(xi) is list and all(map(is_positive, xi)),
        })
        K, V = header["K"], header["V"]
        if expect_vocab_size not in (None, V):
            raise DataError(f"{path}: topic model has V={V}, not {expect_vocab_size}")
        if len(header["xi"]) != K:
            raise DataError(f"{path}: header field 'xi' must hold K={K} values")
        phi = float64s(payload, K * V, path, "phi").astype(np.float64).reshape(K, V)
        # NaN fails > 0, and an inf entry makes its row's sum miss 1
        if not (np.all(phi > 0) and np.all(np.abs(phi.sum(axis=1) - 1.0) <= 1e-9)):
            raise DataError(f"{path}: phi must hold finite positive rows that sum to 1")
        return cls(
            n_topics=K,
            vocab_size=V,
            phi=phi,
            eta=header["eta"],
            xi=np.array(header["xi"]),
            seed=header["seed"],
            train_sweeps=header["train_sweeps"],
            infer_sweeps=header["infer_sweeps"],
        )


def _draw(weights, u):
    """Index drawn in proportion to the iterable ``weights`` by the uniform ``u``.

    The running sum and the search are those of ``np.cumsum`` and
    ``np.searchsorted(side="right")``, on Python floats: bit for bit the
    same index.
    """
    cum = list(accumulate(weights))
    return bisect_right(cum, u * cum[-1])


def _topic_word(nkw, nk, V, eta):
    """phi from the topic counts; ``nkw`` maps each corpus word to its K counts."""
    counts = np.zeros((len(nk), V))
    counts[:, list(nkw)] = np.array(list(nkw.values())).T
    return (counts + eta) / (np.array(nk) + V * eta)[:, None]


def lda_train(docs, n_topics, vocab_size, eta=0.01, xi=None, sweeps=100, seed=0,
              infer_sweeps=50):
    """Collapsed Gibbs sampling over token-topic assignments.

    ``docs`` are bags of in-vocabulary token ids (reserved markers and any
    stopwords already removed). Empty documents are skipped with a counted
    warning. Deterministic under ``seed``. The per-sweep corpus
    log-likelihood under the current phi/theta estimates is recorded in
    ``ll_history``.
    """
    if n_topics < 1:
        raise DataError("need at least one topic")
    if not docs:
        raise DataError("empty corpus for LDA")
    K, V = n_topics, vocab_size
    if xi is None:
        xi = np.full(K, 50.0 / K)
    else:
        xi = np.asarray(xi, dtype=np.float64)
        if xi.shape != (K,):
            raise DataError(f"xi must have length K={K}")
    if not (0 < eta < np.inf and np.all((0 < xi) & (xi < np.inf))):
        raise DataError("Dirichlet hyperparameters must be finite and positive")
    if sweeps < 0 or infer_sweeps < 0:
        raise DataError("sweep counts must not be negative")
    _uniforms(infer_sweeps, 1)  # refuse a count that no inference chain can allocate

    kept = []
    skipped = 0
    for doc in docs:
        arr = np.asarray(doc, dtype=np.int64)
        if arr.size == 0:
            skipped += 1
            continue
        if arr.min() < 0 or arr.max() >= V:
            raise DataError("document token id out of vocabulary range")
        kept.append(arr)
    if skipped:
        log.warning("lda_train skipped %d empty document(s)", skipped)
    if not kept:
        raise DataError("all documents are empty")

    # counts as lists of floats (float + float is Python's fast path); nkw
    # holds only the words that occur, each with its K per-topic counts
    rng = np.random.default_rng(seed)
    nkw = {}
    nk = [0.0] * K
    ndk = [[0.0] * K for _ in kept]
    words = [doc.tolist() for doc in kept]
    assign = []
    for doc, nd in zip(words, ndk):
        z = rng.integers(0, K, size=len(doc)).tolist()
        assign.append(z)
        for w, k in zip(doc, z):
            nkw.setdefault(w, [0.0] * K)[k] += 1
            nk[k] += 1
            nd[k] += 1

    xs = xi.tolist()
    v_eta = V * eta
    # sums recomputed from their counts, never stepped: (c + eta) - 1 != (c - 1) + eta
    ndx = [list(map(add, nd, xs)) for nd in ndk]
    cwe = {w: [c + eta for c in cw] for w, cw in nkw.items()}
    nkv = [n + v_eta for n in nk]
    n_tokens = sum(map(len, words))
    ll_history = []
    for _ in range(sweeps):
        # one call gives the same stream as one rng.random() per token
        us = iter(rng.random(n_tokens).tolist())
        for doc, z, nd, dx in zip(words, assign, ndk, ndx):
            for j, (w, u) in enumerate(zip(doc, us)):
                k = z[j]
                cw, ce = nkw[w], cwe[w]
                cw[k] -= 1
                ce[k] = cw[k] + eta
                nk[k] -= 1
                nkv[k] = nk[k] + v_eta
                nd[k] -= 1
                dx[k] = nd[k] + xs[k]
                k = _draw(map(truediv, map(mul, dx, ce), nkv), u)
                z[j] = k
                cw[k] += 1
                ce[k] = cw[k] + eta
                nk[k] += 1
                nkv[k] = nk[k] + v_eta
                nd[k] += 1
                dx[k] = nd[k] + xs[k]
        phi = _topic_word(nkw, nk, V, eta)
        ndk_arr = np.array(ndk)
        ll = 0.0
        for d, doc in enumerate(kept):
            theta_d = (ndk_arr[d] + xi) / (doc.size + xi.sum())
            ll += float(np.log(theta_d @ phi[:, doc]).sum())
        ll_history.append(ll)

    return TopicModel(
        n_topics=K,
        vocab_size=V,
        phi=_topic_word(nkw, nk, V, eta),
        eta=eta,
        xi=xi,
        seed=seed,
        train_sweeps=sweeps,
        infer_sweeps=infer_sweeps,
        ll_history=ll_history,
        skipped_empty=skipped,
    )


def infer_theta(model, doc):
    """Topic proportions of a (possibly unseen) document, phi frozen.

    A document with no in-vocabulary tokens falls back to the prior mean
    xi / sum(xi), logged at DEBUG (callers that score many documents report
    the count once). Deterministic: the Gibbs chain is seeded from the model
    seed.
    """
    return infer_thetas(model, [doc])[0]


# A position of infer_thetas with fewer active bags than this runs the
# one-document update on each of them. Lockstep broke even with one chain
# per bag at about 8 bags of 8 tokens for K 10 and 6 for K 20 (10 sweeps;
# 2-core x86_64 host, numpy 2.4, one BLAS thread): one lockstep step costs
# about as much as 7 one-token updates.
LOCKSTEP_MIN = 7


def infer_thetas(model, docs):
    """``infer_theta`` of each of ``docs``, in one call and bitwise the same.

    The chains step in lockstep, longest bag first: at each (sweep,
    position) one numpy step redraws that position's token in every bag
    that long. It forms the weights (mk + xi) * phi[:, w] as arrays and
    draws by the same ``np.cumsum`` order and count of cumulative weights
    <= u * total as ``_draw``. Positions that fewer than ``LOCKSTEP_MIN``
    bags reach run the one-document update on each. Every bag is checked,
    and every chain start drawn, before any chain runs; bags of one length
    share their chain start, uniforms included.
    """
    docs = [np.asarray(doc, dtype=np.int64) for doc in docs]
    if any(doc.size and (doc.min() < 0 or doc.max() >= model.vocab_size) for doc in docs):
        raise DataError("document token id out of vocabulary range")
    xi, xs, K, sweeps = model.xi, model.xi.tolist(), model.n_topics, model.infer_sweeps
    order = sorted((i for i, doc in enumerate(docs) if doc.size), key=lambda i: -docs[i].size)
    thetas = [None if doc.size else xi / xi.sum() for doc in docs]
    if len(order) < len(docs):
        log.debug("%d empty document(s) get the prior mean", len(docs) - len(order))
    if not order:
        return thetas
    ns = np.array([docs[i].size for i in order])
    lengths = sorted(set(ns.tolist()), reverse=True)
    starts = {n: _chain_start(model.seed, K, n, sweeps) for n in lengths}
    us = {n: np.frombuffer(starts[n][2]).reshape(sweeps, n) for n in lengths}
    counts = np.array([starts[n][1] for n in ns])  # per bag in ``order``, its mk
    # positions 0..J-1 step in lockstep; the bags longer than J go on alone
    J = int(ns[LOCKSTEP_MIN - 1]) if len(ns) >= LOCKSTEP_MIN else 0
    tails = [(list(starts[n][0][J:]), list(starts[n][1]), model.phi[:, docs[i][J:]].T.tolist(),
              us[n][:, J:]) for i, n in zip(order, ns.tolist()) if n > J]
    if J:
        # position-major lockstep state: z, cols and u hold position j's
        # m[j] bags (those longer than j, in ``order``) at at[j]:at[j + 1]
        lens = np.minimum(ns, J)
        pos = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        perm = np.argsort(pos, kind="stable")
        m = np.bincount(pos, minlength=J).tolist()
        at = [0, *accumulate(m)]
        z = np.concatenate([starts[n][0][:J] for n in ns.tolist()])[perm]
        cols = model.phi.T[np.concatenate([docs[i][:J] for i in order])[perm]]
        # where each u of a sweep sits in the concatenated streams of the lengths
        offsets = np.cumsum([0] + [min(n, J) for n in lengths])[:-1]
        group = np.searchsorted(-np.array(lengths), -ns)
        u_at = (np.repeat(offsets[group], lens) + pos)[perm]
        rows, flat_counts = np.arange(len(ns)) * K, counts.reshape(-1)
    for s in range(sweeps):
        if J:
            u = np.concatenate([us[n][s, :J] for n in lengths])[u_at]
            for j in range(J):
                sl, r = slice(at[j], at[j + 1]), rows[:m[j]]
                flat_counts[r + z[sl]] -= 1
                cum = ((counts[:m[j]] + xi) * cols[sl]).cumsum(axis=1)
                z[sl] = (cum <= (u[sl] * cum[:, -1])[:, None]).sum(axis=1)
                flat_counts[r + z[sl]] += 1
        for b, (zt, mk, tcols, tus) in enumerate(tails):
            if J:  # the lockstep positions moved its counts
                mk[:] = counts[b].tolist()
            _gibbs_sweep(zt, mk, xs, tcols, tus[s].tolist())
            counts[b] = mk
    for b, i in enumerate(order):
        thetas[i] = (counts[b] + xi) / (docs[i].size + xi.sum())
    return thetas


def _gibbs_sweep(z, mk, xs, cols, us):
    """One inference sweep of one document, in place: token j, topic z[j],
    its word's K topic weights cols[j], is redrawn by the uniform us[j] from
    the topic counts mk."""
    mx = list(map(add, mk, xs))  # mk + xi, recomputed from mk as in lda_train
    for j, (col, u) in enumerate(zip(cols, us)):
        k = z[j]
        mk[k] -= 1
        mx[k] = mk[k] + xs[k]
        k = _draw(map(mul, mx, col), u)
        z[j] = k
        mk[k] += 1
        mx[k] = mk[k] + xs[k]


@lru_cache(maxsize=256)
def _chain_start(seed, K, n, sweeps):
    """infer_theta's chain start for an n-token document, immutable: callers share it."""
    rng = np.random.default_rng([seed, 0x7EA])
    z = rng.integers(0, K, size=n)
    mk = np.bincount(z, minlength=K).astype(np.float64)
    return tuple(z.tolist()), tuple(mk.tolist()), rng.random(out=_uniforms(sweeps, n)).tobytes()


def _uniforms(sweeps, n):
    """An unfilled vector for the uniforms of ``sweeps`` inference sweeps over
    n tokens; np.empty touches no page, so a count that fits costs nothing."""
    try:
        return np.empty(sweeps * n)
    except (MemoryError, ValueError) as e:  # ValueError: more than numpy can index
        raise DataError(f"{sweeps} inference sweeps over {n} token{'s' * (n != 1)} "
                        "do not fit in memory") from e


def dialogue_bow(dialogue, stopword_ids=frozenset()):
    """Bag of content token ids for LDA: reserved markers and stopwords removed."""
    return [t for t in corpus.strip_reserved(corpus.flatten(dialogue))
            if t not in stopword_ids]


def topic_similarity(a, b, metric="cosine"):
    """Similarity between two topic-proportion vectors.

    ``cosine`` (default) lies in [0, 1] for probability vectors; ``njsd``
    is the negative Jensen-Shannon divergence, in [-ln 2, 0].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("topic vectors must have the same length")
    if metric == "cosine":
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise DataError("cosine similarity of a zero vector")
        return float(a @ b / (na * nb))
    if metric == "njsd":
        m = 0.5 * (a + b)
        def kl(p, q):
            mask = p > 0
            return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
        return -0.5 * (kl(a, m) + kl(b, m))
    raise DataError(f"unknown similarity metric {metric!r}")


def check_lambdas(lambdas, name=None):
    """DataError unless ``lambdas`` is a non-empty list of values in [0, 1];
    ``name``, when given, is what the message calls its one weight."""
    if not lambdas or not all(0.0 <= lam <= 1.0 for lam in lambdas):
        raise DataError(f"{name} must lie in [0, 1], got {lambdas[0]}" if name else
                        f"lambda values must form a non-empty list in [0, 1], got {lambdas}")


@dataclass
class RerankedCandidate:
    candidate: object
    combined: float
    similarity: float
    ll_z: float
    original_index: int


def _zscore(values):
    v = np.asarray(values, dtype=np.float64)
    std = v.std()
    if std == 0.0:
        return np.zeros_like(v)
    return (v - v.mean()) / std


def _combine(sims, llz, lam):
    """Combined scores and the candidate order they give; ties keep index order."""
    combined = [lam * s + (1.0 - lam) * z for s, z in zip(sims, llz.tolist())]
    return combined, sorted(range(len(combined)), key=lambda i: (-combined[i], i))


def _content_bows(history, candidates, stopword_ids):
    """Content-token bags of a history and of each candidate, history first."""
    return [dialogue_bow(history, stopword_ids)] + [
        [t for t in corpus.strip_reserved(c.tokens) if t not in stopword_ids]
        for c in candidates
    ]


def _warn_empty(bows):
    """One warning for all the bags that fall back to the prior mean."""
    n = sum(1 for bow in bows if not bow)
    if n:
        log.warning("%d document(s) with no content tokens get the prior mean "
                    "as topic proportions", n)


def _scores(model, item_bows, candidate_lists, metric):
    """Per item, each candidate's topic similarity to its history and the
    z-scores of the candidates' ``norm_score``s; ``item_bows`` as
    ``_content_bows`` gives them. Each history bag has its own
    ``infer_theta`` chain, and every candidate bag goes through one
    ``infer_thetas`` call."""
    h_thetas = [infer_theta(model, bows[0]) for bows in item_bows]
    thetas = iter(infer_thetas(model, [bow for bows in item_bows for bow in bows[1:]]))
    return [([topic_similarity(h_theta, next(thetas), metric) for _ in candidates],
             _zscore([c.norm_score for c in candidates]))
            for h_theta, candidates in zip(h_thetas, candidate_lists)]


def rerank(history, candidates, model, lam, metric="cosine", stopword_ids=frozenset()):
    """Reorder generated candidates by the weighted topic/likelihood score.

    Candidates carry their length-normalized conditional log-likelihoods
    (``norm_score``); ``lam`` in [0, 1] weighs the topic similarity against
    their z-scores, and ties in the combined score keep the original order.

    Given a list of histories and one candidate list per history, returns
    one reranked list per history, each what that history gets alone; the
    candidates of all of them share one ``infer_thetas`` call.
    """
    if not isinstance(history, list):
        return rerank([history], [candidates], model, lam, metric, stopword_ids)[0]
    check_lambdas([lam], "lambda")
    if not all(candidates):
        raise DataError("empty candidate list")
    item_bows = [_content_bows(h, cands, stopword_ids) for h, cands in zip(history, candidates)]
    _warn_empty([bow for bows in item_bows for bow in bows])
    ranked = []
    for cands, (sims, llz) in zip(candidates, _scores(model, item_bows, candidates, metric)):
        combined, order = _combine(sims, llz, lam)
        ranked.append([
            RerankedCandidate(
                candidate=cands[i],
                combined=combined[i],
                similarity=sims[i],
                ll_z=float(llz[i]),
                original_index=i,
            )
            for i in order
        ])
    return ranked


@dataclass
class RerankItem:
    """One tuning/eval instance: a history, its candidates, and the target."""

    history: object
    candidates: list
    reference: list = None  # reference continuation token ids (BLEU objective)
    truth_index: int = None  # index of the true continuation (recall objective)


def _candidate_bleu_stats(item):
    """``bleu_stats`` of each of the item's candidates against its reference,
    whose n-grams are counted once."""
    ref = corpus.strip_reserved(item.reference)
    ref_counts = ngram_counts(ref)
    return [bleu_stats(corpus.strip_reserved(c.tokens), ref_counts, len(ref))
            for c in item.candidates]


def tune_rerank(items, topic_models, lambdas, objective="bleu", recall_n=1,
                metric="cosine", stopword_ids=frozenset()):
    """Exhaustive (K, lambda) grid search against the dev objective.

    ``topic_models`` maps K to a trained TopicModel. Returns (best_k,
    best_lambda, table) where table rows are (K, lambda, value) in visit
    order; the best row has the highest value, ties going to the
    smaller K, then the smaller lambda, whatever the order of ``lambdas``.
    Topic proportions are computed once per K and shared across the lambda
    sweep, every item's candidates in one ``infer_thetas`` call, and each
    candidate's BLEU statistics once per call, so a grid point only sums
    those of each item's top candidate.
    """
    if not items:
        raise DataError("empty dev set for tuning")
    check_lambdas(lambdas)
    if objective not in ("bleu", "recall"):
        raise DataError(f"unknown tuning objective {objective!r}")
    if recall_n < 1:
        raise DataError(f"recall@N needs N >= 1, got {recall_n}")
    if objective == "bleu" and any(item.reference is None for item in items):
        raise DataError("BLEU tuning needs a reference per item")
    if objective == "recall" and any(item.truth_index is None for item in items):
        raise DataError("recall tuning needs a truth index per item")
    item_bows = [_content_bows(item.history, item.candidates, stopword_ids)
                 for item in items]
    _warn_empty([bow for bows in item_bows for bow in bows])
    if objective == "bleu":
        stats = [_candidate_bleu_stats(item) for item in items]
    table = []
    for k in sorted(topic_models):
        per_item = _scores(topic_models[k], item_bows, [item.candidates for item in items],
                           metric)
        for lam in lambdas:
            orders = [_combine(sims, llz, lam)[1] for sims, llz in per_item]
            if objective == "bleu":
                value = bleu_of_stats([s[order[0]] for s, order in zip(stats, orders)])
            else:
                hits = [order.index(item.truth_index) < recall_n
                        for order, item in zip(orders, items)]
                value = sum(hits) / len(hits)
            table.append((k, lam, value))
    best_k, best_lam, _ = max(table, key=lambda row: (row[2], -row[0], -row[1]))
    return best_k, best_lam, table


def format_grid(table):
    """Grid-search table export: 'K<TAB>lambda<TAB>objective' per row."""
    return "".join(f"{k}\t{lam}\t{value!r}\n" for k, lam, value in table)


def format_lda_log(model):
    """Convergence log export: a version line, the skipped-document count,
    then 'sweep<TAB>log-likelihood' per sweep, sweeps counted from 1."""
    lines = [f"lda-log {LDA_LOG_VERSION}", f"skipped_empty {model.skipped_empty}"]
    lines += [f"{i}\t{ll!r}" for i, ll in enumerate(model.ll_history, start=1)]
    return "".join(line + "\n" for line in lines)
