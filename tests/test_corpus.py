import sys
from collections import Counter

import numpy as np
import pytest
from conftest import unflatten
from hypothesis import given, settings
from hypothesis import strategies as st

from dialoglm import corpus
from dialoglm.corpus import (Dialogue, Vocabulary, build_vocab,
                             continuation_prefix, dialogue_from_words, flatten,
                             format_dialogue_line, last_utterance_span, load_corpus,
                             parse_dialogue_line, sample_candidates,
                             split_corpus, write_corpus_words)
from dialoglm.errors import DataError


def random_dialogue(rng, vocab_size, max_turns=4, max_len=6):
    n_turns = int(rng.integers(1, max_turns + 1))
    turns = []
    for i in range(n_turns):
        length = int(rng.integers(0, max_len + 1))
        tokens = tuple(int(t) for t in
                       rng.integers(corpus.N_RESERVED, vocab_size, size=length))
        turns.append((i % 2, tokens))
    return Dialogue(tuple(turns))


class TestVocabulary:
    def test_reserved_block(self):
        v = Vocabulary(["hello", "world"])
        assert v.size == corpus.N_RESERVED + 2
        assert v.id_of("<unk>") == corpus.UNK_ID
        assert v.id_of("hello") == corpus.N_RESERVED
        assert v.id_of("nope") == corpus.UNK_ID
        assert v.token_of(corpus.N_RESERVED + 1) == "world"

    def test_round_trip(self, tmp_path):
        v = Vocabulary(["a", "b", "c"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocabulary.load(path)
        assert v2.size == v.size
        assert v2.sha256() == v.sha256()
        assert [v2.token_of(i) for i in range(v2.size)] == \
               [v.token_of(i) for i in range(v.size)]

    def test_rejects_duplicates_and_reserved(self):
        with pytest.raises(DataError):
            Vocabulary(["a", "a"])
        with pytest.raises(DataError):
            Vocabulary(["<unk>"])

    def test_hash_tracks_content(self):
        assert Vocabulary(["a"]).sha256() != Vocabulary(["b"]).sha256()


    def test_whitespace_inside_a_token_is_refused(self, tmp_path):
        # every code point str.isspace() accepts, alone or inside a token; the
        # zero-width space, the BOM and the Mongolian vowel separator are not
        # whitespace and load
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) > 20
        for c in spaces:
            for token in (c, "a" + c, c + "b", "a" + c + "b"):
                with pytest.raises(DataError, match="invalid vocabulary token"):
                    Vocabulary([token])
        with pytest.raises(DataError, match="invalid vocabulary token"):
            Vocabulary([""])
        tokens = ["a\u200bb", "\ufeff", "x\u180e"]
        Vocabulary(tokens).save(tmp_path / "v.txt")
        v = Vocabulary.load(tmp_path / "v.txt")
        assert [v.token_of(corpus.N_RESERVED + i) for i in range(3)] == tokens


class TestBuildVocab:
    def test_frequency_cutoff(self):
        v = build_vocab([["a", "a", "b"]], corpus.N_RESERVED + 1)
        assert "a" in v
        assert v.id_of("b") == corpus.UNK_ID

    def test_no_truncation(self):
        words = ["w%d" % i for i in range(10)]
        v = build_vocab([words], corpus.N_RESERVED + 20)
        assert all(v.id_of(w) != corpus.UNK_ID for w in words)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        # Zipf-ish synthetic stream
        words = [f"w{int(z)}" for z in rng.zipf(1.6, size=3000) if z < 200]
        keep = 30
        v = build_vocab([words], corpus.N_RESERVED + keep)
        counts = Counter(words)
        first = {}
        for i, w in enumerate(words):
            first.setdefault(w, i)
        oracle = sorted(counts, key=lambda w: (-counts[w], first[w]))[:keep]
        kept = {v.token_of(i) for i in range(corpus.N_RESERVED, v.size)}
        assert kept == set(oracle)

    def test_ties_break_by_first_occurrence(self):
        v = build_vocab([["b", "a", "b", "a", "c"]], corpus.N_RESERVED + 2)
        assert v.id_of("b") == corpus.N_RESERVED
        assert v.id_of("a") == corpus.N_RESERVED + 1
        assert v.id_of("c") == corpus.UNK_ID

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            build_vocab([], 100)


class TestFlatten:
    def test_degenerate_empty_turn(self):
        d = Dialogue(((0, ()),))
        assert flatten(d) == [corpus.SPEAKER_A_ID, corpus.EOU_ID, corpus.EOD_ID]

    def test_length_arithmetic(self):
        d = Dialogue(((0, (10, 11, 12)), (1, (13, 14))))
        assert len(flatten(d)) == 3 + 2 + 2 * 2 + 1

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_dialogue(rng, 40)
            assert unflatten(flatten(d)) == d

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.lists(
        st.one_of(st.just(corpus.UNK_ID), st.integers(corpus.N_RESERVED, 10 ** 6)), max_size=6)),
        min_size=1, max_size=6))
    def test_round_trip_any_dialogue(self, turns):
        d = Dialogue(tuple(turns))
        assert unflatten(flatten(d)) == d

    def test_injective(self):
        rng = np.random.default_rng(2)
        seen = {}
        for _ in range(200):
            d = random_dialogue(rng, 15)
            key = tuple(flatten(d))
            if key in seen:
                assert seen[key] == d
            seen[key] = d

    def test_no_reserved_leak(self):
        d = Dialogue(((0, (7, 8)), (1, (9,))))
        ids = flatten(d)
        assert max(ids) < 10

    def test_unflatten_rejects_malformed(self):
        with pytest.raises(DataError):
            unflatten([corpus.SPEAKER_A_ID, 7, corpus.EOD_ID])  # no </u>
        with pytest.raises(DataError):
            unflatten([7, corpus.EOU_ID, corpus.EOD_ID])  # no speaker
        with pytest.raises(DataError):
            unflatten([corpus.SPEAKER_A_ID, corpus.EOU_ID])  # no </d>


class TestSpansAndPrefixes:
    def test_last_utterance_span(self):
        d = Dialogue(((0, (10, 11, 12)), (1, (13, 14))))
        start, stop = last_utterance_span(d)
        flat = flatten(d)
        assert flat[start:stop] == [13, 14, corpus.EOU_ID]

    def test_continuation_prefix_alternates(self):
        d = Dialogue(((0, (10,)),))
        prefix = continuation_prefix(d)
        assert prefix == [corpus.SPEAKER_A_ID, 10, corpus.EOU_ID, corpus.SPEAKER_B_ID]

    def test_continuation_prefix_empty_history(self):
        with pytest.raises(DataError):
            continuation_prefix(Dialogue(()))


class TestSampleCandidates:
    def _corpus(self, n, rng, vocab_size=30):
        out = []
        while len(out) < n:
            d = random_dialogue(rng, vocab_size, max_turns=3, max_len=5)
            if d.n_turns >= 2 and all(len(t) > 0 for _, t in d.turns):
                out.append(d)
        return out

    def test_exactly_ten_distinct(self):
        # one dialogue under test + 9 distinct utterances elsewhere
        target = Dialogue(((0, (20,)), (1, (21,))))
        others = [Dialogue(((0, (30 + i,)), (1, (40 + i,)))) for i in range(5)]
        # distinct utterances from others: 10 values; drop one to force 9
        others[-1] = Dialogue(((0, (34,)), (1, (43,))))
        pool = {t for d in others for _, (t,) in d.turns}
        assert len(pool) == 9
        cs = sample_candidates([target] + others, target, seed=3)
        assert set(cs.candidates) == {(21,)} | {(t,) for t in pool}
        assert cs.truth == (21,)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        dlgs = self._corpus(30, rng)
        a = sample_candidates(dlgs, dlgs[0], seed=42)
        b = sample_candidates(dlgs, dlgs[0], seed=42)
        assert a == b
        c = sample_candidates(dlgs, dlgs[0], seed=43)
        assert a != c

    def test_negative_frequencies_uniform(self):
        # fixed-seed statistical regression: each pool item's inclusion count
        # over 1000 samplings stays within 3 sigma of Binomial(1000, 9/P)
        rng = np.random.default_rng(4)
        dlgs = self._corpus(12, rng)
        target = dlgs[0]
        pool = set()
        for d in dlgs[1:]:
            for _, t in d.turns:
                if t != tuple(target.last_utterance()):
                    pool.add(t)
        p = 9 / len(pool)
        counts = Counter()
        for i in range(1000):
            cs = sample_candidates(dlgs, target, seed=1000 + i)
            for cand in cs.candidates:
                if cand != cs.truth:
                    counts[cand] += 1
        mean = 1000 * p
        sigma = (1000 * p * (1 - p)) ** 0.5
        for utt in pool:
            assert abs(counts[utt] - mean) <= 3 * sigma

    def test_too_small_corpus(self):
        dlgs = [Dialogue(((0, (10,)), (1, (11,)))), Dialogue(((0, (12,)), (1, (13,))))]
        with pytest.raises(DataError):
            sample_candidates(dlgs, dlgs[0], seed=0)


class TestFileFormat:
    def test_parse_line(self):
        utts = parse_dialogue_line("hi there | hello | bye now")
        assert utts == [["hi", "there"], ["hello"], ["bye", "now"]]

    def test_round_trip(self, tmp_path):
        dialogues = [[["a", "b"], ["c"]], [["d"], ["e", "f", "g"]]]
        path = tmp_path / "c.txt"
        write_corpus_words(path, dialogues)
        assert corpus.read_corpus_words(path) == dialogues

    def test_empty_utterance_allowed(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a |  | b\n", encoding="utf-8")
        assert corpus.read_corpus_words(path) == [[["a"], [], ["b"]]]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a | b\n\nc | d\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            corpus.read_corpus_words(path)

    def test_min_turns(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("solo\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            corpus.read_corpus_words(path, min_turns=2)

    def test_load_maps_unk(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("known unknown | known\n", encoding="utf-8")
        vocab = Vocabulary(["known"])
        (d,) = load_corpus(path, vocab)
        assert d.turns[0][1] == (vocab.id_of("known"), corpus.UNK_ID)

    def test_unk_rate(self):
        vocab = Vocabulary(["a"])
        rate = corpus.unk_rate([[["a", "b"], ["a", "a"]]], vocab)
        assert rate == 0.25

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.text(min_size=1).filter(lambda t: t.split() == [t] and t != "|"),
                             max_size=5), min_size=1, max_size=5))
    def test_line_round_trip(self, utterances):
        # tokens hold no whitespace, and "|" alone would read as a separator
        assert parse_dialogue_line(format_dialogue_line(utterances)) == utterances

    def test_speaker_alternation(self):
        d = dialogue_from_words([["a"], ["b"], ["c"]], Vocabulary(["a", "b", "c"]))
        assert [s for s, _ in d.turns] == [0, 1, 0]


class TestSplit:
    def test_all_train(self):
        items = list(range(10))
        train, dev, test = split_corpus(items, [1, 0, 0], seed=0)
        assert len(train) == 10 and not dev and not test

    def test_deterministic(self):
        items = list(range(50))
        a = split_corpus(items, [0.8, 0.1, 0.1], seed=9)
        b = split_corpus(items, [0.8, 0.1, 0.1], seed=9)
        assert a == b

    def test_ratio_arithmetic(self):
        items = list(range(100))
        train, dev, test = split_corpus(items, [0.8, 0.1, 0.1], seed=1)
        assert len(train) == 80 and len(dev) == 10 and len(test) == 10
        assert sorted(train + dev + test) == items

    def test_invalid_ratios(self):
        with pytest.raises(DataError):
            split_corpus([1], [0.5, 0.5], seed=0)
