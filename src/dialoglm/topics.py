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

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import corpus
from .errors import DataError
from .fileio import read_json_header, write_bytes_atomic
from .metrics import corpus_bleu

log = logging.getLogger(__name__)

TOPIC_FORMAT_VERSION = 1


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
        blob = json.dumps(header).encode("utf-8") + b"\n"
        blob += np.ascontiguousarray(self.phi, dtype="<f8").tobytes()
        write_bytes_atomic(path, blob)

    @classmethod
    def load(cls, path, expect_vocab_sha256=None):
        with open(path, "rb") as f:
            header = read_json_header(f, path)
            if header.get("format") != TOPIC_FORMAT_VERSION:
                raise DataError(f"{path}: unsupported topic model format")
            if (expect_vocab_sha256 is not None
                    and header.get("vocab_sha256") not in (None, expect_vocab_sha256)):
                raise DataError(f"{path}: topic model bound to a different vocabulary")
            K, V = header["K"], header["V"]
            raw = f.read(K * V * 8)
            if len(raw) != K * V * 8:
                raise DataError(f"{path}: truncated topic model")
            phi = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(K, V)
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


def _sample_index(weights, rng):
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


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
    if eta <= 0 or np.any(xi <= 0):
        raise DataError("Dirichlet hyperparameters must be positive")

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

    rng = np.random.default_rng(seed)
    nkw = np.zeros((K, V))
    nk = np.zeros(K)
    ndk = np.zeros((len(kept), K))
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
                k = _sample_index(weights, rng)
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

    phi = (nkw + eta) / (nk + V * eta)[:, None]
    return TopicModel(
        n_topics=K,
        vocab_size=V,
        phi=phi,
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
    xi / sum(xi), with a logged warning. Deterministic: the Gibbs chain is
    seeded from the model seed.
    """
    doc = np.asarray(doc, dtype=np.int64)
    xi = model.xi
    if doc.size == 0:
        log.warning("infer_theta on an empty document: returning the prior mean")
        return xi / xi.sum()
    if doc.min() < 0 or doc.max() >= model.vocab_size:
        raise DataError("document token id out of vocabulary range")
    K = model.n_topics
    rng = np.random.default_rng([model.seed, 0x7EA])
    z = rng.integers(0, K, size=doc.size)
    mk = np.bincount(z, minlength=K).astype(np.float64)
    phi_doc = model.phi[:, doc]  # (K, n)
    for _ in range(model.infer_sweeps):
        for j in range(doc.size):
            mk[z[j]] -= 1
            weights = (mk + xi) * phi_doc[:, j]
            k = _sample_index(weights, rng)
            z[j] = k
            mk[k] += 1
    return (mk + xi) / (doc.size + xi.sum())


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


@dataclass
class RerankConfig:
    lam: float = 0.45
    metric: str = "cosine"

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise DataError("lambda must lie in [0, 1]")


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
    combined = [lam * s + (1.0 - lam) * z for s, z in zip(sims, llz)]
    return combined, sorted(range(len(combined)), key=lambda i: (-combined[i], i))


def rerank_scored(history_theta, cand_thetas, llviews, lam, metric="cosine"):
    """Core mixing rule on precomputed topic vectors and log-likelihoods."""
    sims = [topic_similarity(history_theta, th, metric) for th in cand_thetas]
    llz = _zscore(llviews)
    combined, order = _combine(sims, llz, lam)
    return order, sims, llz, combined


def _thetas(model, history, candidates, stopword_ids):
    """Topic proportions of the history and of each candidate's content tokens."""
    h_theta = infer_theta(model, dialogue_bow(history, stopword_ids))
    return h_theta, [
        infer_theta(model, [t for t in corpus.strip_reserved(c.tokens)
                            if t not in stopword_ids])
        for c in candidates
    ]


def rerank(history, candidates, model, config, stopword_ids=frozenset()):
    """Reorder generated candidates by the weighted topic/likelihood score.

    Candidates carry their length-normalized conditional log-likelihoods
    (``norm_score``); ties in the combined score keep the original order.
    """
    if not candidates:
        raise DataError("empty candidate list")
    h_theta, cand_thetas = _thetas(model, history, candidates, stopword_ids)
    lls = [c.norm_score for c in candidates]
    order, sims, llz, combined = rerank_scored(
        h_theta, cand_thetas, lls, config.lam, config.metric
    )
    return [
        RerankedCandidate(
            candidate=candidates[i],
            combined=combined[i],
            similarity=sims[i],
            ll_z=float(llz[i]),
            original_index=i,
        )
        for i in order
    ]


@dataclass
class RerankItem:
    """One tuning/eval instance: a history, its candidates, and the target."""

    history: object
    candidates: list
    reference: list = None  # reference continuation token ids (BLEU objective)
    truth_index: int = None  # index of the true continuation (recall objective)


def _bleu_of_tops(tops, items):
    hyps = [corpus.strip_reserved(items[i].candidates[t].tokens)
            for i, t in enumerate(tops)]
    refs = [corpus.strip_reserved(item.reference) for item in items]
    return corpus_bleu(hyps, refs)


def tune_rerank(items, topic_models, lambdas=None, objective="bleu", recall_n=1,
                metric="cosine", stopword_ids=frozenset()):
    """Exhaustive (K, lambda) grid search against the dev objective.

    ``topic_models`` maps K to a trained TopicModel. Returns
    (best_k, best_lambda, table) where table rows are (K, lambda, value);
    ties prefer smaller K, then smaller lambda. Topic proportions are
    computed once per K and shared across the lambda sweep.
    """
    if not items:
        raise DataError("empty dev set for tuning")
    if lambdas is None:
        lambdas = [round(0.05 * i, 2) for i in range(21)]
    if objective not in ("bleu", "recall"):
        raise DataError(f"unknown tuning objective {objective!r}")
    if objective == "bleu" and any(item.reference is None for item in items):
        raise DataError("BLEU tuning needs a reference per item")
    if objective == "recall" and any(item.truth_index is None for item in items):
        raise DataError("recall tuning needs a truth index per item")
    table = []
    best = None
    for k in sorted(topic_models):
        tm = topic_models[k]
        per_item = []
        for item in items:
            h_theta, thetas = _thetas(tm, item.history, item.candidates, stopword_ids)
            sims = [topic_similarity(h_theta, th, metric) for th in thetas]
            per_item.append((sims, _zscore([c.norm_score for c in item.candidates])))
        for lam in lambdas:
            orders = [_combine(sims, llz, lam)[1] for sims, llz in per_item]
            if objective == "bleu":
                value = _bleu_of_tops([order[0] for order in orders], items)
            else:
                hits = [order.index(item.truth_index) < recall_n
                        for order, item in zip(orders, items)]
                value = sum(hits) / len(hits)
            table.append((k, lam, value))
            # grids are visited in ascending (K, lambda) order, so keeping
            # only strict improvements leaves ties at the smallest pair
            if best is None or value > best[2]:
                best = (k, lam, value)
    return best[0], best[1], table


def format_grid(table):
    """Grid-search table export: 'K<TAB>lambda<TAB>objective' per row."""
    return "".join(f"{k}\t{lam}\t{value!r}\n" for k, lam, value in table)
