"""Dense numeric kernel shared by every model.

All arrays are float64 numpy arrays: matrices are 2-d row-major, vectors
are 1-d. A model's parameters, and the gradients of a training step, live
in an :class:`Arena`: one vector holding every array back to back, with a
named view per array. A training run zero-fills one gradient arena per
step (:func:`zero_grads`) instead of allocating a new one, and a model's
teacher-forced output layer keeps its (n, V) rows in buffers it reuses:
glibc hands freed blocks of that size back to the kernel, so fresh ones
would be faulted in again on every step. :func:`lanes` shares independent
pieces of one teacher-forced pass or training step between the calling
thread and one worker thread, and so do the examples of a scoring pass
and the next-token distributions of two decode states. The worker is
kept off the calling thread's CPU, so that the two lanes run on two
CPUs; where they run changes no byte.
"""

import itertools
import math
import os
import threading

import numpy as np

from .errors import DataError, NumericalError

# Fresh parameters are drawn uniformly from [-INIT_HALF_WIDTH, INIT_HALF_WIDTH].
INIT_HALF_WIDTH = 0.08
# Version of the rounding contract (docs/FORMATS.md, "Numerics"); run
# manifests record it. Version 2 forms every gradient sum over positions
# and every per-position product of a teacher-forced pass as one gemm,
# version 3 its attention by blocks of queries, version 4 the attention
# backward by contractions with pre^2 and Adam with one divide; decoding
# keeps one gemv per row.
NUMERICS = 4
# Entries of work from which two lanes pay (:func:`lanes`). A hand-off to
# the worker's CPU costs about 30 us: 15 to 17 us before the worker starts
# its piece, 11 to 13 us before the caller sees it done. Two exp pieces of
# 16,384 entries each (23 us apiece) took 53 us on two lanes against 46 us
# inline; of 32,768 entries each (42 us), 77 against 85 us.
LANE_MIN = 32768
# Hand-offs in a row that find the caller on the worker's CPU before the
# worker moves off it (:class:`_Worker`). Left alone, the scheduler kept a
# caller on a pinned worker's CPU for a whole 24 s decode run. Moving at
# the first such hand-off chased the caller and a multithreaded BLAS's
# helper thread from CPU to CPU: arnn training steps (d 64, V 2,000, two
# BLAS threads, 2 vCPUs) took about 32 ms against 6.5-9.5 ms unpinned;
# moving after 128 or 256 hand-offs in a row, they took 6.5-9 ms.
SHARED_CPU_MOVE = 256
# Queries per scoped_attention block: a larger block wastes tanh work past
# its narrower scopes, a smaller one pays more per-block overhead.
ATTENTION_BLOCK = 16


def softmax(scores, out=None):
    """Probability distribution over ``scores``, stabilized by max subtraction.

    A matrix is normalized row by row. The result goes to ``out`` (which may
    be ``scores``) when it is given.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise NumericalError("softmax of an empty score vector")
    if not np.isfinite(s).all():
        raise NumericalError("softmax input contains non-finite entries")
    return _normalize(np.subtract(s, s.max(axis=-1, keepdims=True), out=out))


def _normalize(e):
    """exp(e) / its sum along the last axis, in place (fresh buffers cost page faults)."""
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(scores, out=None, scratch=None):
    """log(softmax(scores)) without forming small intermediate probabilities.

    A matrix is normalized row by row. The result goes to ``out`` (which may
    be ``scores``) and the exponentials to ``scratch`` when they are given.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise NumericalError("log_softmax of an empty score vector")
    if not np.isfinite(s).all():
        raise NumericalError("log_softmax input contains non-finite entries")
    shifted = np.subtract(s, s.max(axis=-1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted, out=scratch).sum(axis=-1, keepdims=True))
    return shifted


def matvecs(A, X, out=None):
    """A @ x for the vector ``X``, or for every row x of a batch ``X``, into
    ``out`` when it is given.

    numpy runs a stacked matmul as one BLAS gemv per row, so each row is
    bitwise equal to A @ x however many rows share the batch. (X @ A.T is
    one gemm, which rounds differently, and differently again for one row.)
    """
    return np.matmul(A, X[..., None], out=None if out is None else out[..., None])[..., 0]


def columns(Em, tokens):
    """The columns Em[:, tok] of ``tokens`` as the rows of a strided view.

    Every row keeps a non-unit stride, like a single column Em[:, tok]:
    BLAS rounds a dot product over a strided vector (a product with a
    one-row matrix) differently from one over a contiguous vector.
    """
    cols = np.empty((Em.shape[0], len(tokens) + 1))
    cols[:, :-1] = Em[:, tokens]
    return cols[:, :-1].T


def recur(Hm, h, Pm, e):
    """tanh(Hm @ h + Pm @ e), the shared recurrence nonlinearity; row-wise
    for a batch of states ``h`` and inputs ``e``."""
    return np.tanh(matvecs(Hm, h) + matvecs(Pm, e))


def unroll(Hm, Pm, Em, tokens, h0):
    """Recurrent states over ``tokens``, one row more than there are tokens.

    Row 0 is ``h0``; row t is recur(Hm, row t-1, Pm, Em[:, tokens[t-1]]),
    the state that has consumed tokens 0..t-1, to the bit.

    The input projections Pm Em[:, tok] are formed before the loop as one
    stacked gemv over :func:`columns`, so each gets the bits it gets in
    :func:`recur`; the loop adds them to Hm @ h, a gemv as in recur too.
    """
    states = np.empty((len(tokens) + 1, h0.shape[0]))
    states[0] = h0
    inputs = matvecs(Pm, columns(Em, tokens))
    for t, x in enumerate(inputs, start=1):
        s = Hm @ states[t - 1]
        s += x
        np.tanh(s, out=states[t])
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
    gH += das.T @ states[:n]
    gP += das.T @ Em[:, tokens].T
    np.add.at(gE.T, np.asarray(tokens, dtype=np.intp), das @ Pm)


def attention(wq, b, R, UR, out=None):
    """Additive attention of one query over the rows of ``R``.

    ``wq`` is the query's projection W q and ``UR`` caches R @ U^T; the
    caller owns both projections, so it can batch them over positions.
    Returns (pre, alpha, z) with pre = tanh(W q + U r_i) row-wise (in
    ``out`` when it is given), alpha = softmax(pre b), z = alpha R.

    A batch of queries ``wq`` (B, d) attends row by row, each over its own
    ``R[i]`` (B, t, d_z) or all over one shared ``R`` (t, d_z); every row is
    bitwise equal to the single-query result.
    """
    pre = np.add(wq[..., None, :], UR, out=out)
    np.tanh(pre, out=pre)
    alpha = softmax(pre @ b)
    return pre, alpha, np.matmul(alpha[..., None, :], R)[..., 0, :]


def scoped_attention(WQ, b, R, UR, scope, scratch=None):
    """:func:`attention` of each query WQ[j] over R[:scope[j]] (scope >= 1),
    as one (k, T, d) tanh per block of k = ATTENTION_BLOCK queries over its
    widest scope T, the scores masked past each query's own scope. Returns
    the blocks' pre-activations, the (n, len(R)) weights, zero past each
    scope, and the (n, d_z) contexts.

    The blocks are independent pieces of :func:`lanes`, taken last first:
    the widest first, as no caller's scopes shrink from query to query. Each
    writes its own rows of the weights and, for the tape, its own slot of
    it, every block allocated by the calling thread before the hand-off.
    Given ``scratch``, one flat buffer of at least ATTENTION_BLOCK len(R) d
    entries per lane that the blocks may run on, a block forms its
    pre-activations at the start of its lane's buffer and keeps none of
    them: the returned pre-activations are None (a scoring pass, which runs
    no backward)."""
    starts = range(0, len(WQ), ATTENTION_BLOCK)
    shapes = [(min(ATTENTION_BLOCK, len(WQ) - j), scope[j:j + ATTENTION_BLOCK].max(), len(b))
              for j in starts]
    pres = None if scratch is not None else [np.empty(shape) for shape in shapes]
    A = np.zeros((len(WQ), len(R)))

    def block(i, lane):
        i = len(shapes) - 1 - i
        (k, T, d), j = shapes[i], starts[i]
        pre = pres[i] if pres is not None else scratch[lane][:k * T * d].reshape(k, T, d)
        blk = slice(j, j + ATTENTION_BLOCK)
        np.tanh(np.add(WQ[blk, None, :], UR[:T], out=pre), out=pre)
        s = pre @ b
        if not np.isfinite(s).all():
            raise NumericalError("attention scores contain non-finite entries")
        s[np.arange(T) >= scope[blk, None]] = -np.inf
        A[blk, :T] = _normalize(s - s.max(axis=1, keepdims=True))

    lanes(block, len(shapes), sum(math.prod(shape) for shape in shapes))
    return pres, A, A @ R


def scoped_attention_backward(Um, b, R, pres, A, dZ, gU, gb):
    """Backward pass of :func:`scoped_attention` given dL/dZ: adds into ``gU``
    and ``gb``, returns (dWQ, dR), and squares the blocks of ``pres`` in place
    (the tape has no later reader).

    With dpre_j[i] = (1 - pre_j[i]^2) dbeta[j, i] b, dWQ[j] sums dpre_j[i]
    over i and row i of S sums it over the queries j that see row i; each sum
    is b times (the sum of dbeta minus a contraction of dbeta with pre^2), so
    no (k, T, d) dpre is formed. Summed over queries, dpre_j^T R[:scope[j]]
    is S^T R and dpre_j U is S U: two products with U in all, not two per
    query."""
    dWQ, S = np.empty((len(dZ), len(b))), np.zeros((len(R), len(b)))
    for j, pre in zip(range(0, len(dZ), ATTENTION_BLOCK), pres):
        blk, T = slice(j, j + ATTENTION_BLOCK), pre.shape[1]
        alpha = A[blk, :T]
        dalpha = dZ[blk] @ R[:T].T
        dbeta = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        # the product np.tensordot(dbeta, pre, axes=2) forms, without its Python code
        gb += np.dot(dbeta.reshape(1, -1), pre.reshape(-1, len(b)))[0]
        sq = np.square(pre, out=pre)
        dWQ[blk] = b * (dbeta.sum(axis=1)[:, None] - np.matmul(dbeta[:, None], sq)[:, 0])
        S[:T] += b * (dbeta.sum(axis=0)[:, None]
                      - np.matmul(dbeta.T[:, None], sq.transpose(1, 0, 2))[:, 0])
    gU += S.T @ R
    return dWQ, A.T @ dZ + S @ Um


def readout(p, H, rows, q, R, scope, scratch=None):
    """Teacher-forced output-layer inputs Oh h (+ Oz z) of an attention decoder.

    Every row h of ``H`` gets Oh h. The rows ``rows`` also get Oz z, where
    the j-th of them attends with the query W H[q][j] over R[:scope[j]]
    (:func:`scoped_attention`, on ``scratch`` when it is given). Returns the
    inputs, the (len(scope), len(R)) attention weights and the tape that
    :func:`readout_backward` takes, None when ``scratch`` is given.
    """
    pres, A, Z = scoped_attention(H[q] @ p["W"].T, p["b"], R, R @ p["U"].T, scope, scratch)
    outs = H @ p["Oh"].T
    outs[rows] += Z @ p["Oz"].T
    return outs, A, None if scratch is not None else (H, rows, q, R, pres, A, Z)


def readout_backward(p, tape, douts, dH, grads):
    """Backward pass of :func:`readout` given dL/d(inputs) ``douts``: adds
    dL/dH into ``dH`` and the gradients of W, U, b, Oh and Oz into ``grads``,
    and returns dL/dR."""
    H, rows, q, R, pres, A, Z = tape
    dH += douts @ p["Oh"]
    dWQ, dR = scoped_attention_backward(p["U"], p["b"], R, pres, A, douts[rows] @ p["Oz"],
                                        grads["U"], grads["b"])
    if isinstance(q, slice):  # distinct queries: each row of dH gains one term
        dH[q] += dWQ @ p["W"]
    else:  # seq2seq's first two positions both query with row 0
        np.add.at(dH, q, dWQ @ p["W"])
    grads["W"] += dWQ.T @ H[q]
    grads["Oh"] += douts.T @ H
    grads["Oz"] += douts[rows].T @ Z
    return dR


def nll_backward(logps, targets, probs):
    """Summed negative log-likelihood of ``targets`` under per-position
    log-distributions (the rows of ``logps``), and its gradient wrt the
    logits, one row per position, formed in place in ``probs``, which holds
    exp(logps) on entry."""
    rows = np.arange(len(targets))
    loss = 0.0
    for lp in logps[rows, targets].tolist():
        loss -= lp
    probs[rows, targets] -= 1.0
    return loss, probs


class Arena(dict):
    """Named views, in the order of ``shapes`` (name -> shape), into one
    float64 vector ``flat`` that starts on a 64-byte boundary and holds a copy
    of ``flat`` or zeros. ``a[name] op= x`` stores the same view back; any
    other assignment to an entry, or removal of one, is an error."""

    def __init__(self, shapes, flat=None):
        n = sum(math.prod(shape) for shape in shapes.values())
        if flat is not None and flat.size != n:
            raise DataError(f"{flat.size} parameters, expected {n}")
        try:
            buf = np.zeros(n + 8)
        except (MemoryError, ValueError) as e:  # ValueError: more than numpy can index
            raise DataError(f"{n} parameters do not fit in memory") from e
        start = -buf.ctypes.data % 64 // 8
        self.flat = buf[start:start + n]
        if flat is not None:
            self.flat[:] = flat
        end = 0
        for name, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            super().__setitem__(name, self.flat[start:end].reshape(shape))

    def __setitem__(self, name, value):
        if name not in self or value is not self[name]:
            raise TypeError(f"arena entry {name!r} cannot be rebound")

    def _refuse(self, *args, **kwargs):
        raise TypeError("arena entries cannot be rebound or removed")

    __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


def zero_grads(params, grads=None):
    """A new zeroed arena laid out like ``params``; given ``grads``, such an
    arena, zero-fills and returns it instead."""
    if grads is None:
        return Arena({name: p.shape for name, p in params.items()})
    grads.flat.fill(0.0)
    return grads


def clip_global_norm(grads, max_norm, scratch=None):
    """(norm, scale): the global norm of the arena ``grads`` and the factor
    that brings it to at most ``max_norm``, None when it is within it. The
    direction is preserved; ``grads`` is not written, as the caller applies
    the scale where it next reads them (``trainer.adam_update``).

    The norm is summed array by array in arena order: one sum over
    ``grads.flat`` would round differently. Each array's sum of squares is
    a piece of :func:`lanes`, largest array first, and each lane squares
    into its own half of ``scratch``, a vector at least twice as long as
    the largest array (a new one when it is not given). A non-finite entry
    is a NumericalError naming its array; a norm that overflows from finite
    entries gives the scale 0.0.
    """
    arrays = list(grads.values())
    if scratch is None:
        scratch = np.empty(2 * max(g.size for g in arrays))
    rows = scratch[:scratch.size // 2 * 2].reshape(2, -1)
    largest = sorted(range(len(arrays)), key=lambda i: -arrays[i].size)
    sums = [0.0] * len(arrays)

    def sum_squares(i, lane):
        k = largest[i]
        g = arrays[k]
        sums[k] = float(np.sum(np.multiply(g, g, out=rows[lane, :g.size].reshape(g.shape))))

    lanes(sum_squares, len(arrays), grads.flat.size)
    total = 0.0
    for sq in sums:
        total += sq
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
    return norm, (max_norm / norm if norm > max_norm and norm > 0.0 else None)


def lanes(fn, n, entries=math.inf):
    """[fn(0, lane), ..., fn(n - 1, lane)], in index order.

    The calling thread (lane 0) and one worker thread (lane 1) each take the
    next index from a shared counter until all ``n`` pieces are done, so the
    pieces must be independent of each other. numpy releases the interpreter
    lock inside its kernels, so the lanes overlap when they run on two CPUs:
    the worker is pinned to the process's CPUs other than the one the
    caller runs on (:class:`_Worker`), since unpinned it often woke on the
    caller's CPU. Which lane or CPU runs a piece changes none of its
    bytes. Every piece runs, and the exception of the lowest failing index
    is raised here. The pieces run inline, on lane 0, when ``n`` is 1, when
    they work on fewer than LANE_MIN ``entries`` in all, when the process
    may use one CPU only, or when the worker is already busy (a piece that
    calls lanes, or a second calling thread).
    """
    if two_lanes(n, entries):
        worker = _second_lane()
        if worker.busy.acquire(blocking=False):
            return worker.share(fn, n)
    return [fn(i, 0) for i in range(n)]


def two_lanes(n, entries):
    """The hand-off policy of :func:`lanes`: whether ``n`` pieces over
    ``entries`` in all go to both lanes while the worker is free."""
    return n > 1 and entries >= LANE_MIN and _cpus() > 1


def _cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_reader():
    """libc's sched_getcpu through ctypes, or None where it cannot be
    loaded. PyDLL keeps the interpreter lock over the call: releasing it
    would let the worker take it in the middle of a hand-off."""
    try:
        import ctypes

        read = ctypes.PyDLL(None).sched_getcpu
    except (ImportError, OSError, AttributeError):
        return None
    read.restype, read.argtypes = ctypes.c_int, ()
    return read


_sched_getcpu = _cpu_reader()


def _thread_cpu():
    """The CPU the calling thread runs on, or None where it cannot be read."""
    cpu = _sched_getcpu() if _sched_getcpu is not None else -1
    return cpu if cpu >= 0 else None


class _Worker:
    """The second lane of :func:`lanes`: a daemon thread that runs one job at
    a time. ``busy`` is held by the caller that owns the current job; ``go``
    and ``done`` hand the job over and back.

    A thread woken by a lock release tends to wake on the CPU of the thread
    that released it, so unpinned, the worker often woke on the caller's CPU
    and both lanes shared one core. The first hand-off therefore reads the
    caller's CPU (a sub-microsecond libc call) and restricts the idle worker
    to the CPUs the process may use minus that one. A caller that then
    comes onto the worker's CPU can stay there for good, so every hand-off
    reads the caller's CPU again, and when SHARED_CPU_MOVE of them in a row
    find it on the worker's CPU, the worker moves off it the same way.
    ``cpus`` is the worker's sorted CPU list, or None while it runs
    unpinned: when the process may use fewer than two CPUs, when the CPU
    cannot be read, or when an affinity call fails; after either failure no
    hand-off tries again. The caller's own affinity never changes."""

    def __init__(self):
        self.busy, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job, self.cpus, self.shared = None, None, 0
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
        # the CPUs to pin within, while pinning works
        self.allowed = frozenset(allowed) if len(allowed) > 1 else None
        thread = threading.Thread(target=self._serve, name="dialoglm-lane", daemon=True)
        thread.start()
        self.tid = thread.native_id

    def _serve(self):
        while True:
            self.go.acquire()
            job, self.job = self.job, None
            _take(*job, lane=1)
            # what a finished job referenced (a model, its AdamState) must
            # not stay alive until the next job
            del job
            self.done.release()

    def _keep_off(self, cpu):
        """Pin the idle worker to the allowed CPUs other than ``cpu``, the
        caller's: at the first hand-off, and at the last of SHARED_CPU_MOVE
        in a row that find ``cpu`` among the worker's CPUs."""
        if cpu is None:  # the CPU cannot be read: pin no more
            self.allowed = None
            return
        if self.cpus is not None:
            self.shared = self.shared + 1 if cpu in self.cpus else 0
            if self.shared < SHARED_CPU_MOVE:
                return
        self.shared = 0
        pin = sorted(self.allowed - {cpu})
        try:
            os.sched_setaffinity(self.tid, pin)
            self.cpus = pin
        except OSError:
            self.allowed = None

    def share(self, fn, n):
        """Run ``fn``'s pieces on both lanes; the caller holds ``busy``."""
        counter, results, failed = itertools.count(), [None] * n, []
        if self.allowed is not None:
            self._keep_off(_thread_cpu())
        self.job = (fn, n, counter, results, failed)
        self.go.release()
        try:
            _take(fn, n, counter, results, failed, lane=0)
        finally:
            self.done.acquire()
            self.busy.release()
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        return results


def _take(fn, n, counter, results, failed, lane):
    """Run pieces from ``counter`` until it passes ``n``, keeping each result
    or exception (every piece runs, whatever the others raise)."""
    while (i := next(counter)) < n:
        try:
            results[i] = fn(i, lane)
        except BaseException as e:  # re-raised by the caller of lanes
            failed.append((i, e))


_worker = None


def _second_lane():
    """The process's worker, started on first use."""
    global _worker
    if _worker is None:
        _worker = _Worker()
    return _worker


def lane_cpus():
    """The sorted CPUs the lane worker may run on (a list), or None when no
    worker has started in this process or the worker runs unpinned."""
    return None if _worker is None else _worker.cpus


def _forget_worker():
    # a forked child has no worker thread, and its copies of the locks may
    # be held: it starts its own
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
