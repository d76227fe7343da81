"""Dense numeric kernel shared by every model.

All arrays are float64 numpy arrays: matrices are 2-d row-major, vectors
are 1-d. Gradients travel in plain dicts keyed by parameter name, with one
buffer per parameter array; a fresh dict from :func:`zero_grads` plays the
role of a gradient tape for a single training step.
"""

import numpy as np

from .errors import NumericalError

INIT_HALF_WIDTH = 0.08


def softmax(scores):
    """Probability distribution over ``scores``, stabilized by max subtraction."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise NumericalError("softmax of an empty score vector")
    if not np.isfinite(s).all():
        raise NumericalError("softmax input contains non-finite entries")
    e = np.exp(s - s.max())
    return e / e.sum()


def log_softmax(scores):
    """log(softmax(scores)) without forming small intermediate probabilities.

    A matrix is normalized row by row.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise NumericalError("log_softmax of an empty score vector")
    if not np.isfinite(s).all():
        raise NumericalError("log_softmax input contains non-finite entries")
    shifted = s - s.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def affine_tanh(Hm, h, Pm, e):
    """tanh(Hm @ h + Pm @ e), the shared recurrence nonlinearity."""
    Hm, h, Pm, e = (np.asarray(a) for a in (Hm, h, Pm, e))
    if Hm.ndim != 2 or Pm.ndim != 2 or h.ndim != 1 or e.ndim != 1:
        raise NumericalError("affine_tanh expects two matrices and two vectors")
    if Hm.shape[1] != h.shape[0] or Pm.shape[1] != e.shape[0] or Hm.shape[0] != Pm.shape[0]:
        raise NumericalError(
            f"affine_tanh shape mismatch: {Hm.shape}@{h.shape} + {Pm.shape}@{e.shape}"
        )
    return recur(Hm, h, Pm, e)


def recur(Hm, h, Pm, e):
    """:func:`affine_tanh` without the shape checks, for the models' own arrays."""
    return np.tanh(Hm @ h + Pm @ e)


def matvecs(A, X):
    """``A @ x`` for every row ``x`` of ``X``, in one call.

    matmul hands each stacked product to the BLAS matrix-vector routine
    that ``A @ x`` uses for a contiguous ``x``, so the rows are bit-identical
    to that loop; ``X @ A.T``, one matrix-matrix product, rounds otherwise.
    """
    return np.matmul(A, X[:, :, None])[:, :, 0]


def unroll(Hm, Pm, Em, tokens, h0):
    """Recurrent states over ``tokens``, one row more than there are tokens.

    Row 0 is ``h0``; row t is affine_tanh(Hm, row t-1, Pm, Em[:, tokens[t-1]]),
    the state that has consumed tokens 0..t-1.
    """
    states = np.empty((len(tokens) + 1, h0.shape[0]))
    states[0] = h0
    for t, tok in enumerate(tokens, start=1):
        states[t] = recur(Hm, states[t - 1], Pm, Em[:, tok])
    return states


def bptt(Hm, Pm, Em, tokens, states, dstates, gH, gP, gE):
    """Backward pass of :func:`unroll` through time.

    ``dstates`` holds dL/dstates on entry and is updated in place, so that
    row 0 ends up holding dL/dh0; parameter gradients are added into
    ``gH``, ``gP`` and ``gE``.
    """
    n = len(tokens)
    dtanh = 1.0 - states[1:] * states[1:]
    das = np.empty((n, dstates.shape[1]))  # row t-1 holds dL/d(pre-activation t)
    for t in range(n, 0, -1):
        da = das[t - 1] = dstates[t] * dtanh[t - 1]
        dstates[t - 1] += Hm.T @ da
    # the loop ran from the last step to the first; the sums keep that order
    rev = das[::-1]
    np.add.at(gE.T, np.asarray(tokens[::-1], dtype=np.intp), matvecs(Pm.T, rev))
    add_outers(gH, rev, states[:n][::-1])
    add_outers(gP, rev, Em[:, tokens[::-1]].T)


def add_outers(g, A, B):
    """g += outer(A[0], B[0]); g += outer(A[1], B[1]); ... in row order."""
    for a, b in zip(A, B):
        g += a[:, None] * b


def attention(wq, b, R, UR):
    """Additive attention of one query over the rows of ``R``.

    ``wq`` is the query's projection W q and ``UR`` caches R @ U^T; the
    caller owns both projections, so it can batch them over positions.
    Returns (pre, alpha, z) with pre = tanh(W q + U r_i) row-wise,
    alpha = softmax(pre b), z = alpha R.
    """
    pre = np.tanh(wq + UR)
    alpha = softmax(pre @ b)
    return pre, alpha, alpha @ R


def attention_backward(Um, b, R, pre, alpha, dz, gU, gb):
    """Backward pass of :func:`attention` for one query, given dL/dz.

    Adds into the gradients ``gU`` and ``gb``; returns (dwq, dR), where
    dwq = dL/d(W q): the W gradient and dL/dq are the caller's, like the
    projection itself.
    """
    dalpha = R @ dz
    dbeta = alpha * (dalpha - alpha @ dalpha)
    gb += pre.T @ dbeta
    dpre = dbeta[:, None] * b * (1.0 - pre * pre)
    gU += dpre.T @ R
    return dpre.sum(axis=0), alpha[:, None] * dz + dpre @ Um


def nll_backward(logps, targets):
    """Summed negative log-likelihood of ``targets`` under per-position
    log-distributions (the rows of ``logps``), and its gradient wrt the
    logits, one row per position."""
    rows = np.arange(len(targets))
    loss = 0.0
    for lp in logps[rows, targets].tolist():
        loss -= lp
    dlogits = np.exp(logps)
    dlogits[rows, targets] -= 1.0
    return loss, dlogits


def uniform_init(shape, rng):
    """Uniform init in [-0.08, 0.08], the toolkit-wide parameter scheme."""
    return rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=shape)


def zero_grads(params):
    """One zeroed gradient buffer per parameter array, same shapes."""
    return {name: np.zeros_like(p) for name, p in params.items()}


def global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return np.sqrt(total)


def clip_global_norm(grads, max_norm):
    """Scale all gradients in place so the global norm is at most ``max_norm``.

    Only the magnitude changes; the direction is preserved. Returns the
    pre-clip norm.
    """
    norm = global_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def grad_check(loss_fn, params, analytic, eps=1e-5, samples_per_array=24, rng=None):
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` re-evaluates the scalar loss at the current (temporarily
    perturbed) parameter values; ``analytic`` holds gradient buffers computed
    at the unperturbed point. For each parameter array a random coordinate
    subset of size ``samples_per_array`` is probed. The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = analytic[name].reshape(-1)
        if flat.size <= samples_per_array:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=samples_per_array, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while probing '{name}'")
            numeric = (up - down) / (2.0 * eps)
            rel = abs(g[i] - numeric) / max(1e-8, abs(g[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst
