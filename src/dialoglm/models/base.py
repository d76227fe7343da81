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

from dataclasses import dataclass, field

import numpy as np

from .. import corpus
from ..errors import DataError
from ..numeric import uniform_init


@dataclass
class SequenceScore:
    """Per-position scores for one teacher-forced pass.

    ``alphas`` is present for attention models: one weight row per scored
    position (None at positions scored without attention).
    """

    logp: float
    per_token: np.ndarray
    argmax: np.ndarray
    alphas: list | None = None

    @classmethod
    def from_logps(cls, logps, targets, alphas=None):
        """Score of ``targets`` given one log-distribution per position (row)."""
        per_token = logps[np.arange(len(targets)), targets]
        return cls(
            logp=float(per_token.sum()),
            per_token=per_token,
            argmax=logps.argmax(axis=1),
            alphas=alphas,
        )


@dataclass
class DialogueScore:
    """What a model can say about one dialogue, for the metric suite.

    ``per_token`` / ``argmax`` / ``refs`` cover exactly the positions this
    model scores (the whole flattened dialogue for language models, the
    final utterance for seq2seq); ``last_slice`` marks the final-utterance
    span within those positions.
    """

    per_token: np.ndarray
    argmax: np.ndarray
    refs: np.ndarray
    last_slice: slice


@dataclass
class LmDecodeState:
    """Stepwise decoding state for the language-model family.

    ``h`` scores the next position; ``prev_h`` is the state before the most
    recent token was consumed (the attention query), None before the first.
    ``reps`` holds one token representation per consumed token; ``ureps``
    caches U @ rep for the attention models. States are cheap to branch:
    ``advance`` copies the lists shallowly.
    """

    h: np.ndarray = None
    prev_h: np.ndarray = None
    reps: list = field(default_factory=list)
    ureps: list = field(default_factory=list)
    theta: np.ndarray = None


@dataclass
class Seq2SeqDecodeState:
    """Decoder-side state; the encoder pass is shared read-only by branches."""

    enc_states: np.ndarray  # (M+1, d)
    uenc: np.ndarray  # (M+1, d) cached U @ enc_states[m], attention only
    h: np.ndarray = None
    prev_h: np.ndarray = None  # None until the decoder has consumed a token


def check_tokens(tokens, vocab_size, what="token"):
    """DataError unless every token id lies in [0, vocab_size)."""
    for tok in tokens:
        if not (0 <= tok < vocab_size):
            raise DataError(f"{what} id {tok} out of range for V={vocab_size}")


class Model:
    """Parameters and dimensions shared by every model kind.

    Subclasses list their parameter arrays in ``param_shapes``; that order
    is the checkpoint order and the order fresh parameters are drawn in.
    """

    def __init__(self, d, d_e, vocab_size, seed=0, params=None):
        self.d = d
        self.d_e = d_e
        self.V = vocab_size
        for name, value in self.dims().items():
            if not value > 0:
                raise DataError(f"model dimension {name} must be positive, got {value}")
        expected = self.param_shapes()
        if params is None:
            rng = np.random.default_rng(seed)
            params = {name: uniform_init(shape, rng) for name, shape in expected.items()}
        if set(params) != set(expected):
            raise DataError(
                f"parameter names {sorted(params)} != expected {sorted(expected)}"
            )
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise DataError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )
        self.params = params

    def dims(self):
        return {"d": self.d, "d_e": self.d_e, "V": self.V}

    def start(self, history):
        """Decode state that has consumed the continuation prefix of ``history``."""
        return self.begin(corpus.continuation_prefix(history))
