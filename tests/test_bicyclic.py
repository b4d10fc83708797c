import pytest

from cofiso.bicyclic import (
    BicyclicNF,
    WordError,
    embed,
    normalize_word,
    parse_word,
    recognize,
    reduce_word,
    word_iso,
)
from cofiso.core import ALPHA, BETA, IDENTITY, make


class TestProduct:
    def test_absorbing_middle(self):
        assert BicyclicNF(2, 3) * BicyclicNF(1, 1) == BicyclicNF(2, 3)

    def test_defining_relation(self):
        assert BicyclicNF(0, 1) * BicyclicNF(1, 0) == BicyclicNF(0, 0)

    def test_free_side(self):
        assert BicyclicNF(1, 0) * BicyclicNF(0, 1) == BicyclicNF(1, 1)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            BicyclicNF(-1, 0)


class TestEmbed:
    def test_identity(self):
        assert embed(BicyclicNF(0, 0)) == IDENTITY

    def test_single_b(self):
        assert embed(BicyclicNF(1, 0)) == BETA

    def test_mixed_word(self):
        assert embed(BicyclicNF(2, 3)) == make([1, 2], 1)
        assert embed(BicyclicNF(2, 3)) == BETA * BETA * ALPHA * ALPHA * ALPHA


class TestRecognize:
    def test_round_trip(self):
        assert recognize(make([1], 0)) == BicyclicNF(1, 1)
        assert recognize(IDENTITY) == BicyclicNF(0, 0)

    def test_noisy_elements_refused(self):
        assert recognize(make([2], 0)) is None

    def test_embed_after_recognize(self):
        for g in (IDENTITY, ALPHA, BETA, make([1, 2], -2), make([1], 3)):
            assert embed(recognize(g)) == g


class TestWords:
    def test_cancelling_pair(self):
        assert normalize_word(parse_word("ab")) == BicyclicNF(0, 0)

    def test_reversed_pair(self):
        assert normalize_word(parse_word("ba")) == BicyclicNF(1, 1)
        assert word_iso(parse_word("ba")) == make([1], 0)

    def test_longer_word(self):
        assert normalize_word(parse_word("bba")) == BicyclicNF(2, 1)
        assert word_iso(parse_word("bba")) == make([1, 2], -1)

    def test_whitespace_ignored(self):
        assert parse_word(" b a ") == ("b", "a")

    def test_foreign_characters_located(self):
        with pytest.raises(WordError) as info:
            parse_word("abca")
        assert "column 3" in str(info.value)

    def test_reduction_strategies_agree(self):
        for text in ("", "a", "b", "abab", "baba", "aabbb", "bbaaab"):
            word = parse_word(text)
            nf = normalize_word(word)
            assert reduce_word(word) == reduce_word(word, rightmost=True)
            assert reduce_word(word) == "b" * nf.k + "a" * nf.l

    def test_reduced_words_have_no_cancelling_pair(self):
        assert "ab" not in reduce_word(parse_word("babab"))

    def test_folds_start_at_the_unit_and_refuse_an_unparsed_letter(self):
        assert normalize_word(()) == BicyclicNF(0, 0)
        assert word_iso(()) is IDENTITY
        # a word that skipped parse_word fails at its first foreign letter
        for fold in (normalize_word, word_iso):
            with pytest.raises(KeyError) as info:
                fold(("a", "c", "x"))
            assert info.value.args == ("c",)
