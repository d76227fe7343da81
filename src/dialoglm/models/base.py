"""Shared containers, conventions, input checks and parameter handling for
the model zoo.

Scoring convention used by every model here: a sequence w_0..w_{n-1} is
scored position by position, where position t is scored from the recurrent
state that has consumed tokens 0..t-1. The initial state (nothing consumed)
is the zero vector, so the very first position of a language-model sequence
is scored from all-zero logits context. Teacher-forced scoring and stepwise
decoding share this convention exactly, so they produce identical
distributions for identical prefixes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .. import corpus
from ..errors import DataError, NumericalError
from ..numeric import (INIT_HALF_WIDTH, Arena, attention, columns, halves, lanes, log_softmax,
                       matvecs, nll_backward, readout_backward, recur, softmax)


@dataclass
class SequenceScore:
    """Per-position scores for one teacher-forced pass, and the attention
    weight matrix ``A`` of an attending kind (None otherwise): for an LM, row
    t-1 is position t's row over the token representations R[:t], zero past
    t; for seq2seq-attn, row l covers every source position."""

    per_token: np.ndarray
    argmax: np.ndarray
    A: np.ndarray | None = None


@dataclass
class Example:
    """What a kind scores of one dialogue: the ``target`` tokens (after the
    encoded ``source`` for seq2seq, under the topic feature ``theta`` for
    tarnn), and the final utterance's span ``last`` (a slice) within them."""

    target: list
    last: slice
    source: list = None
    theta: np.ndarray = None


@dataclass
class DecodeState:
    """Stepwise decoding state of a batch of B hypotheses, for every kind.

    Row b of ``h`` (B, d) scores hypothesis b's next position; ``prev_h``
    holds the states before the most recent token was consumed, None
    before the first; ``theta`` is the topic feature (tarnn). ``t`` tokens
    have been consumed, ``t0`` of them by ``begin``. An attending kind
    attends over the rows ``R``, their U projections cached in ``UR``.
    Under a growing scope (arnn, tarnn), R is an arena (slots, cap, d_e + d)
    of token representations and UR one of (slots, cap, d): rows [0:t] of
    slot b are hypothesis b's scope, and rows [0:t0], the prefix, are the
    same in every slot, so reordering the slots copies only rows [t0:t];
    the capacity, ``lm.DECODE_ROOM`` rows past the prefix at first, doubles
    when it runs out. Under the fixed scope of seq2seq, R holds the (M+1, d)
    encoder states and UR their U projection, which every row shares
    read-only: none is copied.
    """

    h: np.ndarray
    prev_h: np.ndarray = None
    theta: np.ndarray = None
    R: np.ndarray = None
    UR: np.ndarray = None
    t: int = 0
    t0: int = 0


def check_tokens(tokens, vocab_size, what="token"):
    """DataError unless every token id lies in [0, vocab_size)."""
    for tok in tokens:
        if not (0 <= tok < vocab_size):
            raise DataError(f"{what} id {tok} out of range for V={vocab_size}")


class Model:
    """Parameters, dimensions and the one decoding path of every model kind.

    Subclasses list their parameter arrays in ``param_shapes``; that order
    is the layout of the arena ``params``, the checkpoint order and the
    order fresh parameters are drawn in. ``flat``, when given, holds the
    values of every array in that order, and ``params`` gets a copy.

    Stepwise decoding works on a list of :class:`DecodeState` objects, one
    per history decoded in lockstep, each a batch of B hypotheses, with one
    code path for every kind, B and list length. ``begin(prefix[, theta])``
    returns a state of one hypothesis that has consumed ``prefix``.
    ``step_dist(states)`` returns one pair per state: the (B, V) next-token
    probabilities and one attention weight row per hypothesis, or None for
    a kind without attention. ``advance(states, tokens, parents)``, given
    one token list and one parent list per state, returns for each state
    the state whose row i is row ``parents[i]`` after consuming
    ``tokens[i]``. It may reuse the buffers of the states it consumes, so
    those must not be used again. Row b of every result is bitwise the same
    whatever the other rows and states hold and however many there are.
    ``step_dist`` runs each state's step as a piece of ``numeric.lanes``,
    gated on B V d entries in all (a list of one runs inline); the calling
    thread allocates each piece's (B, t, d) attention pre-activations and
    (B, V) probability rows, and the pieces call nothing but private
    methods. ``advance`` steps the states one after another on the calling
    thread: its many small numpy calls hold the interpreter lock, and on
    two lanes they made a decode slower, not faster.

    A kind's ``make_example`` states what it scores of a dialogue (an
    :class:`Example`) and ``_operands`` what its ``_forward`` and
    ``loss_and_grads`` take of one. ``example_score``, the one teacher-forced
    scoring entry, and ``example_loss_and_grads`` take an Example.

    A kind states only the names of its decoder's H, P, E and O matrices
    (``decoder``), what a state attends with and over (``_scope``), and how
    a growing scope takes in a consumed token (``_extend_scope``).

    A teacher-forced pass keeps its (n, V) output rows, and a training step
    its (d, V) output-matrix gradient product, in buffers the model reuses
    (the rows grow to the longest sequence seen). They hold only until the
    next pass, so nothing a model returns may alias them.

    Because of those buffers, one model must not score or train from two
    threads at once: two concurrent teacher-forced passes of one instance
    write the same rows. Decoding writes only its states' own buffers, so
    distinct states may step at once, and distinct models share nothing.
    ``numeric.lanes`` inside one pass is safe: its pieces write disjoint
    parts of the buffers.
    """

    attends = False

    def __init__(self, d, d_e, vocab_size, seed=0, flat=None):
        self.d = d
        self.d_e = d_e
        self.V = vocab_size
        for name, value in self.dims().items():
            if not value > 0:
                raise DataError(f"model dimension {name} must be positive, got {value}")
        self.params = Arena(self.param_shapes(), flat)
        if flat is None:
            self.params.flat[:] = np.random.default_rng(seed).uniform(
                -INIT_HALF_WIDTH, INIT_HALF_WIDTH, size=self.params.flat.size)
        self._rows = np.empty((2, 0, self.V))  # log-probabilities, exp scratch
        self._dV = None

    def dims(self):
        return {"d": self.d, "d_e": self.d_e, "V": self.V}

    def _log_probs(self, X, Om):
        """log_softmax(X @ Om), one row per teacher-forced position, in the
        reused rows: the logits as one gemm (split by rows or by columns, it
        would round differently), their log_softmax on two halves of the rows
        (``numeric.halves``)."""
        if self._rows.shape[1] < len(X):
            self._rows = np.empty((2, len(X), self.V))
        logps, scratch = self._rows[:, :len(X)]
        np.matmul(X, Om, out=logps)

        def normalize(rows):
            part = logps[rows]
            log_softmax(part, out=part, scratch=scratch[rows])

        halves(normalize, len(X), logps.size)
        return logps

    def _nll_backward(self, logps, targets):
        """nll_backward of :meth:`_log_probs` rows, dlogits in their exp scratch."""
        loss, dlogits = nll_backward(logps, targets, out=self._rows[1, :len(targets)])
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss in backward pass")
        return loss, dlogits

    # ------------------------------------------------------------------
    # output layer and stepwise decoding, shared by every kind

    def _add_topic(self, out, theta):
        """Output-layer input(s) ``out`` plus Otheta theta, where the model
        has Otheta and a theta is given."""
        if theta is not None and "Otheta" in self.params:
            out += self.params["Otheta"] @ theta
        return out

    def _backward_outputs(self, fw, dlogits, grads, dstates):
        """Backward from the logits through everything but the recurrence: adds
        dL/dstates (``fw["states"]``) into ``dstates`` and returns dL/dR of
        the attended rows (None without attention); a tarnn's theta is in fw.

        Its two output-layer products, dL/douts = dlogits O^T and the output
        matrix's gradient X^T dlogits (formed in the reused buffer), share
        two lanes (``numeric.lanes``) once O has ``numeric.LANE_MIN`` entries."""
        O, X = self.decoder[3], fw["outs"]
        Om = self.params[O]
        if self._dV is None:
            self._dV = np.empty(Om.shape)
        douts = np.empty((len(dlogits), len(Om)))

        def product(i, lane):
            if i == 0:
                np.matmul(dlogits, Om.T, out=douts)
            else:
                grads[O] += np.matmul(X.T, dlogits, out=self._dV)

        lanes(product, 2, Om.size)
        if not self.attends:
            dstates += douts
            return None
        if "Otheta" in grads:
            grads["Otheta"] += np.outer(douts.sum(axis=0), fw["theta"])
        return readout_backward(self.params, fw["tape"], douts, dstates, grads)

    def step(self, h_prev, tokens):
        """h_t = tanh(H h_prev + P E[token]) for each row of ``h_prev`` and
        its token, in the decoder's recurrence."""
        check_tokens(tokens, self.V)
        H, P, E, _ = (self.params[name] for name in self.decoder)
        return recur(H, h_prev, P, columns(E, tokens))

    def next_dist(self, h, z=None, theta=None, out=None):
        """softmax(O^T h), or with attention softmax(O^T (Oh h + Oz z [+ Otheta
        theta])), row-wise for a batch of states, into ``out`` when it is given."""
        p, x = self.params, h
        if self.attends:
            x = matvecs(p["Oh"], h)
            if z is not None:
                x += matvecs(p["Oz"], z)
            x = self._add_topic(x, theta)
        logits = matvecs(p[self.decoder[3]].T, x, out=out)
        return softmax(logits, out=logits)

    def step_dist(self, states):
        """One ((B, V) next-token distributions, attention weights) pair per
        state (see Model)."""
        operands = []
        for state in states:  # the buffers each piece fills, allocated on this thread
            scope, B = self._scope(state), len(state.h)
            pre = None if scope is None else np.empty((B, scope[2].shape[-2], self.d))
            operands.append((state, scope, pre, np.empty((B, self.V))))
        return lanes(lambda i, lane: self._step_dist(*operands[i]), len(states),
                     sum(len(s.h) for s in states) * self.V * self.d)

    def _step_dist(self, state, scope, pre, probs):
        alpha = z = None
        if scope is not None:
            q, R, UR = scope
            _, alpha, z = attention(matvecs(self.params["W"], q), self.params["b"], R, UR,
                                    out=pre)
        return self.next_dist(state.h, z, state.theta, out=probs), alpha

    def advance(self, states, tokens, parents):
        """Each state advanced: its row i consumes ``tokens[i]`` after row
        ``parents[i]`` (see Model)."""
        out = []
        for state, toks, rows in zip(states, tokens, parents):
            h = state.h[rows]
            new = replace(state, h=self.step(h, toks), prev_h=h, t=state.t + 1)
            self._extend_scope(state, new, toks, rows)
            out.append(new)
        return out

    def _scope(self, state):
        """(queries, rows, their U projections) that ``state`` attends with
        and over, or None when it attends to nothing."""
        return None

    def _extend_scope(self, state, new, tokens, parents):
        """Attention scope of an advanced state: a fixed one carries over."""

    def start(self, history):
        """Decode state that has consumed the continuation prefix of ``history``."""
        return self.begin(corpus.continuation_prefix(history))

    # ------------------------------------------------------------------
    # teacher-forced entries, shared by every kind

    def example_score(self, ex):
        """The :class:`SequenceScore` of ``ex.target``, position by position."""
        fw = self._forward(*self._operands(ex))
        logps = fw["logps"]
        return SequenceScore(logps[np.arange(len(ex.target)), ex.target],
                             logps.argmax(axis=1), fw.get("A"))

    def example_loss_and_grads(self, ex, grads=None):
        return self.loss_and_grads(*self._operands(ex), grads)

    def score_dialogue(self, dialogue):
        """The teacher-forced score of what this kind scores of ``dialogue``."""
        return self.example_score(self.make_example(dialogue))
