"""Encoder-decoder models over (history, final utterance) pairs.

The encoder consumes the flattened history (ending with the responder's
speaker marker) into states h^S_0..h^S_M, one per source token. The decoder
starts from the final encoder state and scores the target utterance token
by token. With attention enabled, every decoder step attends over the fixed
window of all M+1 encoder states (the scope never grows, in contrast to the
attention language model), and the context enters on the output side:
logits = Od^T (Oh h_l + Oz z_l). The attention query for target position l
is the previous decoder state; for l = 0 it is the initial decoder state.

Encoder and decoder keep separate embedding tables.
"""

import numpy as np

from .. import corpus
from ..errors import DataError
from ..numeric import bptt, readout, unroll, zero_grads
from .base import DecodeState, Example, Model, check_tokens


def seq2seq_pair(dialogue):
    """(source, target) ids: flattened history + responder marker -> last turn + </u>."""
    if dialogue.n_turns < 2:
        raise DataError("seq2seq needs at least two turns (history and response)")
    history = dialogue.history()
    responder = dialogue.turns[-1][0]
    source = corpus.continuation_prefix(history, next_speaker=responder)
    target = list(dialogue.last_utterance()) + [corpus.EOU_ID]
    return source, target


class Seq2Seq(Model):
    """RNN encoder-decoder, optionally with fixed-scope attention."""

    decoder = ("Hd", "Pd", "Ed", "Od")

    def __init__(self, d, d_e, vocab_size, use_attention=False, seed=0, flat=None):
        self.use_attention = use_attention
        super().__init__(d, d_e, vocab_size, seed=seed, flat=flat)

    @property
    def kind(self):
        return "seq2seq_attn" if self.use_attention else "seq2seq"

    @property
    def attends(self):
        return self.use_attention

    def param_shapes(self):
        d, d_e, V = self.d, self.d_e, self.V
        shapes = {
            "He": (d, d), "Pe": (d, d_e), "Ee": (d_e, V),
            "Hd": (d, d), "Pd": (d, d_e), "Ed": (d_e, V), "Od": (d, V),
        }
        if self.use_attention:
            shapes.update(
                {"W": (d, d), "U": (d, d), "b": (d,), "Oh": (d, d), "Oz": (d, d)}
            )
        return shapes

    # ------------------------------------------------------------------
    # forward

    def _encode(self, source):
        """Encoder states with a zero row prepended: row m+1 consumed source[m]."""
        check_tokens(source, self.V, "source token")
        p = self.params
        return unroll(p["He"], p["Pe"], p["Ee"], source, np.zeros(self.d))

    def _forward(self, source, target):
        if not source or not target:
            raise DataError("seq2seq needs a non-empty source and target")
        enc0 = self._encode(source)
        check_tokens(target, self.V, "target token")
        p = self.params
        enc = enc0[1:]
        dec = unroll(p["Hd"], p["Pd"], p["Ed"], target[:-1], enc[-1])
        fw = {"enc0": enc0, "states": dec, "outs": dec}
        if self.use_attention:
            L = len(target)
            queries = np.maximum(np.arange(L) - 1, 0)  # position l queries with dec[max(l-1, 0)]
            outs, A, tape = readout(p, dec, slice(None), queries, enc, np.full(L, len(enc)))
            fw.update({"tape": tape, "A": A, "outs": outs})
        fw["logps"] = self._log_probs(fw["outs"], p["Od"])
        return fw

    # ------------------------------------------------------------------
    # backward

    # the traced benchmark (bench/pipeline.py) counts tokens from these positional arguments
    def loss_and_grads(self, source, target, grads=None):
        """Negative log-likelihood and hand-derived gradients for one pair,
        in the arena ``grads`` (zero-filled first) when given, else a new one."""
        fw = self._forward(source, target)
        p = self.params
        grads = zero_grads(p, grads)
        ddec = np.zeros_like(fw["states"])
        denc0 = np.zeros_like(fw["enc0"])
        loss, dlogits = self._nll_backward(fw["logps"], target)
        denc = self._backward_outputs(fw, dlogits, grads, ddec)
        if denc is not None:
            denc0[1:] += denc
        bptt(p["Hd"], p["Pd"], p["Ed"], target[:-1], fw["states"], ddec,
             grads["Hd"], grads["Pd"], grads["Ed"])
        # the decoder is initialized from the last encoder state
        denc0[-1] += ddec[0]
        bptt(p["He"], p["Pe"], p["Ee"], source, fw["enc0"], denc0,
             grads["He"], grads["Pe"], grads["Ee"])
        return float(loss), grads

    # ------------------------------------------------------------------
    # stepwise decoding

    def begin(self, prefix):
        """Decoder state of one hypothesis, after encoding ``prefix``."""
        if not prefix:
            raise DataError("seq2seq decoding needs a non-empty source prefix")
        enc = self._encode(prefix)[1:]
        UR = enc @ self.params["U"].T if self.use_attention else None
        return DecodeState(h=enc[-1:].copy(), R=enc, UR=UR)

    def _scope(self, state):
        """Each row's previous decoder state, or at first the initial one,
        over all the encoder states."""
        if self.use_attention:
            return (state.h if state.prev_h is None else state.prev_h), state.R, state.UR
        return None

    # ------------------------------------------------------------------
    # dialogue plumbing

    def make_example(self, dialogue):
        """The reply plus </u> after the encoded history: all of it is the
        final utterance, so PPL and PPL@L coincide."""
        source, target = seq2seq_pair(dialogue)
        return Example(target, slice(0, len(target)), source=source)

    def _operands(self, ex):
        return ex.source, ex.target
