"""Dialogue corpus handling.

Covers the vocabulary with its reserved marker block, dialogue flattening
to a single token-id sequence (and back), the line-oriented corpus file
format, deterministic splits, and negative-candidate sampling for
recall@N.

Corpus file format (documented bit-exactly in docs/FORMATS.md): UTF-8
text, one dialogue per line, utterances separated by the 3-character
sequence " | ", tokens whitespace-separated, speakers alternating A, B,
A, ... starting with A.
"""

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Reserved ids occupy the lowest indices, in this fixed order.
RESERVED_TOKENS = ("<pad>", "<unk>", "</u>", "</d>", "<a>", "<b>")
PAD_ID, UNK_ID, EOU_ID, EOD_ID, SPEAKER_A_ID, SPEAKER_B_ID = range(6)
N_RESERVED = len(RESERVED_TOKENS)

UTTERANCE_SEP = " | "


@dataclass(frozen=True)
class Dialogue:
    """Ordered utterances; each turn is (speaker, token ids), speaker 0 or 1."""

    turns: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "turns", tuple((s, tuple(t)) for s, t in self.turns)
        )

    @property
    def n_turns(self):
        return len(self.turns)

    def last_utterance(self):
        return self.turns[-1][1]

    def history(self):
        """Everything but the final turn, as a Dialogue."""
        return Dialogue(self.turns[:-1])


class Vocabulary:
    """Bidirectional token <-> id map with a fixed reserved block.

    Ids 0..5 are the reserved markers; non-reserved tokens follow in the
    order given (frequency order when built by :func:`build_vocab`).
    """

    def __init__(self, tokens):
        tokens = list(tokens)
        if len(set(tokens)) != len(tokens):
            raise DataError("duplicate tokens in vocabulary")
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise DataError(f"token {t!r} collides with a reserved marker")
            if t.split() != [t]:  # empty, or holds whitespace
                raise DataError(f"invalid vocabulary token {t!r}")
        self._id_to_token = list(RESERVED_TOKENS) + tokens
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}

    @property
    def size(self):
        return len(self._id_to_token)

    def __len__(self):
        return self.size

    def id_of(self, token):
        return self._token_to_id.get(token, UNK_ID)

    def __contains__(self, token):
        return token in self._token_to_id

    def token_of(self, idx):
        return self._id_to_token[idx]

    def encode(self, words):
        return [self.id_of(w) for w in words]

    def decode(self, ids):
        return [self._id_to_token[i] for i in ids]

    def sha256(self):
        """Hash binding checkpoints to this exact vocabulary."""
        blob = "\n".join(self._id_to_token).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def save(self, path):
        # One non-reserved token per line; line number = id - N_RESERVED.
        from .fileio import write_text_atomic

        write_text_atomic(path, "".join(t + "\n" for t in self._id_to_token[N_RESERVED:]))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        return cls([t for t in tokens if t])


def build_vocab(token_streams, max_size):
    """Vocabulary of the most frequent tokens, capped at ``max_size`` total.

    ``max_size`` counts the reserved block. Frequency ties break by first
    occurrence in the streams; everything not kept maps to <unk>.
    """
    if max_size <= N_RESERVED:
        raise DataError(f"max_size must exceed the {N_RESERVED} reserved tokens")
    counts = Counter()
    first_seen = {}
    n = 0
    for stream in token_streams:
        for tok in stream:
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = n
            n += 1
    if not counts:
        raise DataError("empty corpus: no tokens to build a vocabulary from")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocabulary(ranked[: max_size - N_RESERVED])


def speaker_marker(speaker):
    if speaker not in (0, 1):
        raise DataError(f"speaker must be 0 or 1, got {speaker!r}")
    return SPEAKER_A_ID + speaker


def flatten(dialogue):
    """One token-id sequence: [marker, tokens..., </u>] per turn, then </d>."""
    out = []
    for speaker, tokens in dialogue.turns:
        out.append(speaker_marker(speaker))
        out.extend(tokens)
        out.append(EOU_ID)
    out.append(EOD_ID)
    return out


def continuation_prefix(dialogue, next_speaker=None):
    """Conditioning prefix for generating the next utterance.

    The flattened history (no </d>) followed by the next speaker's marker;
    by default speakers alternate.
    """
    if not dialogue.turns:
        raise DataError("cannot build a continuation prefix from an empty history")
    if next_speaker is None:
        next_speaker = 1 - dialogue.turns[-1][0]
    return flatten(dialogue)[:-1] + [speaker_marker(next_speaker)]


def last_utterance_span(dialogue):
    """(start, stop) of the final utterance inside the flattened sequence.

    Covers the content tokens plus the closing </u>; the speaker marker and
    the </d> are treated as conditioning, not as part of the span.
    """
    if not dialogue.turns:
        raise DataError("dialogue has no turns")
    start = 0
    for speaker, tokens in dialogue.turns[:-1]:
        start += len(tokens) + 2
    start += 1  # skip the final turn's speaker marker
    stop = start + len(dialogue.turns[-1][1]) + 1
    return start, stop


def strip_reserved(ids):
    """Drop marker/reserved ids, keeping only content tokens."""
    return [i for i in ids if i >= N_RESERVED]


@dataclass(frozen=True)
class CandidateSet:
    """One recall@N instance: a history with 10 candidate continuations."""

    history: Dialogue
    candidates: tuple  # 10 token-id tuples
    truth_index: int

    def __post_init__(self):
        if len(self.candidates) != 10:
            raise DataError("a candidate set holds exactly 10 candidates")
        if not (0 <= self.truth_index < 10):
            raise DataError("truth index out of range")

    @property
    def truth(self):
        return self.candidates[self.truth_index]


def sample_candidates(corpus, dialogue, seed):
    """Candidate set for ``dialogue``: its true last utterance plus 9 negatives.

    Negatives are drawn uniformly without replacement from the distinct
    utterances of the *other* dialogues in ``corpus``, never equal to the
    truth. Deterministic under ``seed``.
    """
    truth = tuple(dialogue.last_utterance())
    pool = []
    seen = set()
    for other in corpus:
        if other.turns == dialogue.turns:
            continue
        for _, tokens in other.turns:
            t = tuple(tokens)
            if t != truth and t not in seen:
                seen.add(t)
                pool.append(t)
    if len(pool) < 9:
        raise DataError(
            f"corpus provides only {len(pool)} distinct negative utterances; 9 required"
        )
    rng = np.random.default_rng(seed)
    chosen = [pool[i] for i in rng.choice(len(pool), size=9, replace=False)]
    truth_index = int(rng.integers(0, 10))
    candidates = chosen[:truth_index] + [truth] + chosen[truth_index:]
    return CandidateSet(dialogue.history(), tuple(candidates), truth_index)


# ---------------------------------------------------------------------------
# File format


def parse_dialogue_line(line):
    """One corpus line -> list of utterances, each a list of word strings."""
    parts = line.split(UTTERANCE_SEP)
    return [p.split() for p in parts]


def format_dialogue_line(utterances):
    return UTTERANCE_SEP.join(" ".join(words) for words in utterances)


def read_corpus_words(path, min_turns=1):
    """Word-level dialogues from a corpus file; DataError names bad lines."""
    dialogues = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if line.strip() == "":
                raise DataError(f"{path}: line {lineno}: empty dialogue line")
            utterances = parse_dialogue_line(line)
            if len(utterances) < min_turns:
                raise DataError(
                    f"{path}: line {lineno}: dialogue has {len(utterances)} turn(s), "
                    f"{min_turns} required"
                )
            dialogues.append(utterances)
    return dialogues


def write_corpus_words(path, dialogues):
    from .fileio import write_text_atomic

    write_text_atomic(path, "".join(format_dialogue_line(d) + "\n" for d in dialogues))


def dialogue_from_words(utterances, vocab):
    turns = tuple(
        (i % 2, tuple(vocab.encode(words))) for i, words in enumerate(utterances)
    )
    return Dialogue(turns)


def load_corpus(path, vocab, min_turns=1):
    """Corpus file -> list of Dialogue with ids under ``vocab`` (<unk> mapped)."""
    return [dialogue_from_words(u, vocab) for u in read_corpus_words(path, min_turns)]


def unk_rate(dialogues_words, vocab):
    """Fraction of corpus tokens that fall outside the vocabulary."""
    total = 0
    unk = 0
    for utterances in dialogues_words:
        for words in utterances:
            for w in words:
                total += 1
                if w not in vocab:
                    unk += 1
    return unk / total if total else 0.0


def split_corpus(items, ratios, seed):
    """Deterministic shuffled split into (train, dev, test) by ``ratios``."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or not 0 < sum(ratios) < np.inf:
        raise DataError(f"invalid split ratios {ratios!r}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    total = sum(ratios)
    n_train = round(len(items) * ratios[0] / total)
    n_dev = round(len(items) * ratios[1] / total)
    n_train = min(n_train, len(items))
    n_dev = min(n_dev, len(items) - n_train)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_dev],
        shuffled[n_train + n_dev :],
    )
