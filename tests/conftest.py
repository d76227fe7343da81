"""Shared test helpers: independent metric oracles kept deliberately
separate from the package implementations they check, a shape-checked
form of the recurrence, single-query attention over a list of token
representations, the per-query attention backward pass that the per-row
reference models use, the central-difference gradient check, the inverse
of ``corpus.flatten``, arenas filled with given values, the teacher-forced
score of a token list, checkpoints whose header misstates the parameter
layout, the fixtures that put ``numeric.lanes`` on two lanes or on one
or give it a new worker, and the CPUs this process may use."""

import json
import math
import os
import threading

import numpy as np
import pytest

from dialoglm import numeric
from dialoglm.corpus import EOD_ID, EOU_ID, SPEAKER_A_ID, SPEAKER_B_ID, Dialogue
from dialoglm.errors import DataError, NumericalError
from dialoglm.models import Example
from dialoglm.numeric import Arena, attention, recur

EPS_MACH = np.finfo(np.float64).eps


def bleu_oracle(hyps, refs, max_n=4):
    """Independent corpus BLEU: same published definition and the same
    documented smoothing convention, different counting structure."""
    import functools
    import operator

    precisions = []
    for n in range(1, max_n + 1):
        match, total = 0, 0
        for hyp, ref in zip(hyps, refs):
            grams = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i:i + n])
                grams[g] = grams.get(g, 0) + 1
            limits = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i:i + n])
                limits[g] = limits.get(g, 0) + 1
            for g, c in grams.items():
                match += min(c, limits.get(g, 0))
            total += max(len(hyp) - n + 1, 0)
        if total == 0:
            precisions.append(1.0)
        elif match == 0:
            if n == 1:
                return 0.0
            precisions.append(1.0 / (total + 1))
        else:
            precisions.append(match / total)
    geo = functools.reduce(operator.mul, precisions) ** (1.0 / max_n)
    h = sum(len(x) for x in hyps)
    r = sum(len(x) for x in refs)
    bp = 1.0 if h > r else math.exp(1.0 - r / h)
    return bp * geo


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


def attend(model, h_prev, reps):
    """Context vector and weights of an attention model's query ``h_prev``
    over the token representations so far.

    reps is the list (or (t, d_e+d) array) of representations of every
    consumed token; the scope must be non-empty.
    """
    R = np.asarray(reps, dtype=np.float64)
    if R.ndim == 1:
        R = R.reshape(1, -1)
    if R.size == 0:
        raise DataError("attention over an empty history")
    p = model.params
    _, alpha, z = attention(p["W"] @ h_prev, p["b"], R, R @ p["U"].T)
    return z, alpha


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


def grad_check(loss_fn, params, analytic, eps=1e-5, samples_per_array=24, rng=None):
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` re-evaluates the scalar loss at the current (temporarily
    perturbed) parameter values; ``analytic`` holds gradient buffers computed
    at the unperturbed point. For each parameter array a random coordinate
    subset of size ``samples_per_array`` is probed. The relative error per
    coordinate is |analytic - numeric| / max(floor, |analytic| + |numeric|).

    The floor comes from the rounding of the loss itself: the two losses
    carry an error of about machine epsilon times their size, so the
    central difference carries noise = eps_mach (|up| + |down|) / (2 eps).
    The floor is 1e5 times that noise: a difference of up to ten times the
    noise reads at most 1e-4, the bound the tests use, so an entry too small
    for central differences to resolve does not fail, while a 1e-3 relative
    error still does wherever it is more than ten times the noise.
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
            floor = max(1e5 * EPS_MACH * (abs(up) + abs(down)) / (2.0 * eps),
                        np.finfo(np.float64).tiny)  # 0 / 0 reads 0
            rel = abs(g[i] - numeric) / max(floor, abs(g[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def unflatten(ids):
    """Invert :func:`flatten`; raises DataError on malformed sequences."""
    ids = list(ids)
    if not ids or ids[-1] != EOD_ID:
        raise DataError("flattened dialogue must end with the </d> marker")
    turns = []
    i = 0
    while i < len(ids) - 1:
        marker = ids[i]
        if marker not in (SPEAKER_A_ID, SPEAKER_B_ID):
            raise DataError(f"expected a speaker marker at position {i}, got id {marker}")
        i += 1
        tokens = []
        while i < len(ids) - 1 and ids[i] != EOU_ID:
            if ids[i] == EOD_ID:
                raise DataError(f"unexpected </d> inside a turn at position {i}")
            tokens.append(ids[i])
            i += 1
        if i >= len(ids) - 1:
            raise DataError("turn not closed by </u>")
        i += 1  # consume </u>
        turns.append((marker - SPEAKER_A_ID, tuple(tokens)))
    if not turns:
        raise DataError("flattened dialogue contains no turns")
    return Dialogue(tuple(turns))


def arena(**arrays):
    """An :class:`Arena` holding copies of ``arrays``, in argument order."""
    out = Arena({name: np.shape(value) for name, value in arrays.items()})
    for name, value in arrays.items():
        out[name][...] = value
    return out


def with_params(model, arrays):
    """``model`` with ``arrays`` (name -> values) copied into its parameters."""
    for name, value in arrays.items():
        model.params[name][...] = value
    return model


def forced_score(model, target, source=None, theta=None):
    """``model.example_score`` of an Example of ``target``, after ``source``
    for seq2seq, under ``theta`` for a tarnn: the uniform one for None, as a
    tarnn's make_example gives."""
    if theta is None and model.kind == "tarnn":
        theta = np.full(model.K, 1 / model.K)
    return model.example_score(Example(list(target), slice(0, len(target)), source, theta))


def misstate_layout(blob, edit):
    """Checkpoint bytes ``blob`` with the header's ``arrays`` list edited:
    "duplicate" lists O twice and appends a block for it, "swap" exchanges
    the H and O entries (the payload keeps its order), "rename" renames H."""
    head, payload = blob.split(b"\n", 1)
    header = json.loads(head)
    arrays = header["arrays"]
    names = [name for name, _ in arrays]
    h, o = names.index("H"), names.index("O")
    if edit == "duplicate":
        arrays.append(arrays[o])
        payload += bytes(8 * math.prod(arrays[o][1]))
    elif edit == "swap":
        arrays[h], arrays[o] = arrays[o], arrays[h]
    else:
        arrays[h][0] = "Hx"
    return json.dumps(header).encode() + b"\n" + payload


@pytest.fixture
def two_cpus(monkeypatch):
    """numeric.lanes uses its worker whatever this host's CPU count; the
    fixture's value is a list that gains one entry per hand-off."""
    hand_offs, second_lane = [], numeric._second_lane

    def counted():
        hand_offs.append(1)
        return second_lane()

    monkeypatch.setattr(numeric, "_cpus", lambda: 2)
    monkeypatch.setattr(numeric, "_second_lane", counted)
    return hand_offs


@pytest.fixture
def one_lane(monkeypatch):
    """A function that returns fn(*args) as numeric.lanes forms it on one
    lane (numeric._cpus patched to 1 for the call): the reference for the
    two-lane form."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(numeric, "_cpus", lambda: 1)
            return fn(*args)

    return run


# The CPUs this process may use (none where they cannot be read), and the
# mark of a test that needs two of them.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ())
needs_two_cpus = pytest.mark.skipif(len(ALLOWED_CPUS) < 2,
                                    reason="the process may use fewer than two CPUs")


@pytest.fixture
def fresh_worker(monkeypatch):
    """numeric's lane worker forgotten for the test, so that the next
    hand-off starts a new one (the test's worker stays idle after it); the
    fixture's value is a list that gains (CPU, native thread id) for each read
    of a calling thread's CPU: one per hand-off, while the worker is pinned."""
    reads, thread_cpu = [], numeric._thread_cpu

    def read():
        cpu = thread_cpu()
        reads.append((cpu, threading.get_native_id()))
        return cpu

    monkeypatch.setattr(numeric, "_worker", None)
    monkeypatch.setattr(numeric, "_thread_cpu", read)
    return reads
