"""Language models over flattened dialogues.

Three variants share one recurrence h_t = tanh(H h_{t-1} + P E[w_{t-1}]):

* ``RnnLm``       -- output logits O^T h_t.
* ``AttentionRnnLm`` -- a context vector z_t is formed by attending over the
  representations of every consumed token, and the output becomes
  O^T (Oh h_t + Oz z_t). The attention scope grows by one per consumed
  token: the weight row produced at position t has length exactly t.
* ``TopicAttentionRnnLm`` -- adds a per-dialogue topic-proportion feature:
  O^T (Oh h_t + Oz z_t + Otheta theta).

Token representation: r_i concatenates the input embedding of token i with
the hidden state produced when that token was consumed, so r_i has length
d_e + d. The attention query for position t is the previous state h_{t-1};
position 0 has an empty scope and is scored without attention.

Gradients are hand-derived backward passes validated against central
finite differences (see tests); no autodiff framework is involved.
"""

from dataclasses import replace

import numpy as np

from .. import corpus
from ..errors import DataError, NumericalError
from ..numeric import bptt, matvecs, readout, unroll, zero_grads
from .base import DecodeState, Example, Model, check_tokens

# Arena rows that a fresh decode state keeps past its prefix, before the
# capacity first doubles: the CLI's default --max-len of 30 fits.
DECODE_ROOM = 32


class RnnLm(Model):
    """Plain recurrent language model."""

    kind = "rnn"
    decoder = ("H", "P", "E", "O")

    def param_shapes(self):
        d, d_e, V = self.d, self.d_e, self.V
        return {"H": (d, d), "P": (d, d_e), "E": (d_e, V), "O": (d, V)}

    # ------------------------------------------------------------------
    # forward

    def _states(self, tokens):
        if not tokens:
            raise DataError("cannot score an empty sequence")
        check_tokens(tokens, self.V)
        p = self.params
        return unroll(p["H"], p["P"], p["E"], tokens[:-1], np.zeros(self.d))

    def _forward(self, tokens, theta=None, lane=None):
        """The teacher-forced pass: a training pass for ``lane`` None, else a
        scoring pass in the buffers of ``lane`` (see Model)."""
        states = self._states(tokens)
        return {"states": states, "outs": states,
                "logps": self._log_probs(states, self.params["O"], lane)}

    # ------------------------------------------------------------------
    # backward

    # the traced benchmark (bench/pipeline.py) counts tokens from these positional arguments
    def loss_and_grads(self, tokens, theta=None, grads=None):
        """Negative log-likelihood and hand-derived gradients for one sequence,
        in the arena ``grads`` (zero-filled first) when given, else a new one."""
        tokens = list(tokens)
        fw = self._forward(tokens, theta)
        p = self.params
        grads = zero_grads(p, grads)
        dstates = np.zeros((len(tokens), self.d))
        loss, dlogits = self._nll_backward(fw["logps"], tokens)
        drep = self._backward_outputs(fw, dlogits, grads, dstates)
        if drep is not None:  # back from the representations to embeddings and states
            dstates[1:] += drep[:, self.d_e :]
            np.add.at(grads["E"].T, np.asarray(tokens[:-1], dtype=np.intp), drep[:, : self.d_e])
        bptt(p["H"], p["P"], p["E"], tokens[:-1], fw["states"], dstates,
             grads["H"], grads["P"], grads["E"])
        return float(loss), grads

    # ------------------------------------------------------------------
    # stepwise decoding

    def begin(self, prefix, theta=None):
        """Decode state of one hypothesis that has consumed ``prefix``."""
        prefix = list(prefix)
        check_tokens(prefix, self.V)
        p = self.params
        states = unroll(p["H"], p["P"], p["E"], prefix, np.zeros(self.d))
        state = DecodeState(h=states[-1:], prev_h=states[-2:-1] if prefix else None,
                            theta=theta, t=len(prefix), t0=len(prefix))
        self._start_scope(state, prefix, states[1:])
        return state

    def _start_scope(self, state, prefix, states):
        """Attention scope of a fresh state; none here."""

    # ------------------------------------------------------------------
    # dialogue plumbing

    def make_example(self, dialogue):
        """The flattened dialogue, its final utterance at last_utterance_span."""
        return Example(corpus.flatten(dialogue), slice(*corpus.last_utterance_span(dialogue)))

    def _operands(self, ex):
        return ex.target, ex.theta


def _arena(a, rows, t, t0, slots, cap):
    """A (slots, cap, ·) buffer: every slot starts with the shared rows [0:t0]
    and slot i goes on with rows [t0:t] of a[rows[i]]."""
    out = np.empty((slots, cap, a.shape[2]))
    out[:, :t0] = a[0, :t0]
    out[: len(rows), t0:t] = a[rows, t0:t]
    return out


class AttentionRnnLm(RnnLm):
    """Recurrent LM with a dynamic attention scope over the consumed tokens."""

    kind = "arnn"
    attends = True

    @property
    def d_z(self):
        return self.d_e + self.d

    def param_shapes(self):
        shapes = super().param_shapes()
        d, d_z = self.d, self.d_z
        shapes.update(
            {"W": (d, d), "U": (d, d_z), "b": (d,), "Oh": (d, d), "Oz": (d, d_z)}
        )
        return shapes

    # ------------------------------------------------------------------
    # forward

    def _forward(self, tokens, theta=None, lane=None):
        p = self.params
        n = len(tokens)
        states = self._states(tokens)
        # rep[i] pairs token i's embedding with the state that consumed it
        R = np.concatenate([p["E"][:, tokens[:-1]].T, states[1:]], axis=1)
        # position t >= 1 queries with states[t-1] over R[:t]; position 0 attends to nothing
        outs, A, tape = readout(p, states, slice(1, None), slice(None, -1), R, np.arange(1, n),
                                self._buffer(lane), lane is None)
        outs = self._add_topic(outs, theta)
        return {"states": states, "tape": tape, "outs": outs, "A": A, "theta": theta,
                "logps": self._log_probs(outs, p["O"], lane)}

    # ------------------------------------------------------------------
    # stepwise decoding

    def _start_scope(self, state, prefix, states):
        """One arena slot holding the representations of ``prefix``, whose
        tokens produced ``states``."""
        t0, p = len(prefix), self.params
        state.R = np.empty((1, t0 + DECODE_ROOM, self.d_z))
        state.UR = np.empty((1, t0 + DECODE_ROOM, self.d))
        state.R[0, :t0, : self.d_e] = p["E"][:, prefix].T
        state.R[0, :t0, self.d_e :] = states
        state.UR[0, :t0] = matvecs(p["U"], state.R[0, :t0])

    def _extend_scope(self, state, new, tokens, parents):
        """Give ``new`` the arena of ``state`` with slot i holding the scope of
        row ``parents[i]``, plus the representation of ``tokens[i]``."""
        B, t, t0, p = len(new.h), state.t, state.t0, self.params
        R, UR = state.R, state.UR
        if B > len(R) or t == R.shape[1]:  # more slots or rows: a fresh arena
            cap = 2 * R.shape[1] if t == R.shape[1] else R.shape[1]
            R, UR = (_arena(a, parents, t, t0, max(B, len(a)), cap) for a in (R, UR))
        else:  # the prefix rows [0:t0] agree in every slot
            R[:B, t0:t] = R[parents, t0:t]
            UR[:B, t0:t] = UR[parents, t0:t]
        R[:B, t, : self.d_e] = p["E"][:, tokens].T
        R[:B, t, self.d_e :] = new.h
        UR[:B, t] = matvecs(p["U"], R[:B, t])
        new.R, new.UR = R, UR

    def _scope(self, state):
        """Each row's previous state over its own slot's rows, once it has one."""
        B, t = len(state.h), state.t
        return None if state.prev_h is None else (state.prev_h, state.R[:B, :t], state.UR[:B, :t])


class TopicAttentionRnnLm(AttentionRnnLm):
    """Attention LM with an extra per-dialogue topic-proportion feature.

    ``theta_provider`` maps a Dialogue to its K-dim topic proportions, for
    training examples and for decoding from a history (``start``). By
    default it gives None, read as uniform, so the model works without topics.
    """

    kind = "tarnn"

    def __init__(self, d, d_e, vocab_size, n_topics, seed=0, flat=None, theta_provider=None):
        self.K = n_topics
        super().__init__(d, d_e, vocab_size, seed=seed, flat=flat)
        self.theta_provider = theta_provider or (lambda dialogue: None)

    def param_shapes(self):
        shapes = super().param_shapes()
        shapes["Otheta"] = (self.d, self.K)
        return shapes

    def dims(self):
        return {"d": self.d, "d_e": self.d_e, "V": self.V, "K": self.K}

    def _theta(self, theta):
        """The topic feature as a float64 K-vector, uniform for None; NumericalError
        unless it is a probability vector (NaN fails). Theta enters a tarnn only
        through loss_and_grads, begin and make_example, which check it here
        once each; an Example's theta is checked when it is made, and a
        hand-built Example's None is read here as uniform (``_operands``)."""
        theta = np.full(self.K, 1 / self.K) if theta is None else np.asarray(theta, np.float64)
        if theta.shape != (self.K,):
            raise NumericalError(f"theta must have length K={self.K}")
        if not (np.all(theta >= 0) and abs(theta.sum() - 1.0) <= 1e-6):
            raise NumericalError("theta must be a probability vector (sum 1 within 1e-6)")
        return theta

    def loss_and_grads(self, tokens, theta=None, grads=None):
        return super().loss_and_grads(tokens, self._theta(theta), grads)

    def _operands(self, ex):
        """An Example's theta was checked when it was made; None reads as uniform."""
        return ex.target, self._theta(None) if ex.theta is None else ex.theta

    def example_loss_and_grads(self, ex, grads=None):
        return super().loss_and_grads(*self._operands(ex), grads)

    def begin(self, prefix, theta=None):
        return super().begin(prefix, self._theta(theta))

    def start(self, history):
        return self.begin(corpus.continuation_prefix(history), self.theta_provider(history))

    def make_example(self, dialogue):
        theta = self._theta(self.theta_provider(dialogue))
        return replace(super().make_example(dialogue), theta=theta)
