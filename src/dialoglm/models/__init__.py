"""The model zoo: recurrent language models with and without dynamic
attention, the topic-feature variant, and encoder-decoder baselines."""

from ..errors import DataError
from .base import DecodeState, Example, SequenceScore
from .io import load_checkpoint, save_checkpoint
from .lm import AttentionRnnLm, RnnLm, TopicAttentionRnnLm
from .seq2seq import Seq2Seq, seq2seq_pair

MODEL_KINDS = ("rnn", "arnn", "tarnn", "seq2seq", "seq2seq_attn")


def make_model(kind, d, d_e, vocab_size, n_topics=None, seed=0, flat=None,
               theta_provider=None):
    """Construct any model variant by its kind string."""
    if kind == "rnn":
        return RnnLm(d, d_e, vocab_size, seed=seed, flat=flat)
    if kind == "arnn":
        return AttentionRnnLm(d, d_e, vocab_size, seed=seed, flat=flat)
    if kind == "tarnn":
        if n_topics is None:
            raise DataError("tarnn requires a topic count")
        return TopicAttentionRnnLm(
            d, d_e, vocab_size, n_topics, seed=seed, flat=flat,
            theta_provider=theta_provider,
        )
    if kind == "seq2seq":
        return Seq2Seq(d, d_e, vocab_size, use_attention=False, seed=seed, flat=flat)
    if kind == "seq2seq_attn":
        return Seq2Seq(d, d_e, vocab_size, use_attention=True, seed=seed, flat=flat)
    raise DataError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


__all__ = [
    "AttentionRnnLm",
    "DecodeState",
    "Example",
    "MODEL_KINDS",
    "RnnLm",
    "Seq2Seq",
    "SequenceScore",
    "TopicAttentionRnnLm",
    "load_checkpoint",
    "make_model",
    "save_checkpoint",
    "seq2seq_pair",
]
