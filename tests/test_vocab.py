import dataclasses

import numpy as np
import pytest

from ekd.vocab import Vocabulary, default_vocabulary, symbol_prototypes


def test_default_vocabulary_layout():
    v = default_vocabulary("abc")
    assert v.graphemes == ("_", "a", "b", "c", " ")
    assert v.blank_index == 0
    assert v.word_separator_index == 4
    assert v.size == 5


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(("a", "a", "_"), blank_index=2, word_separator_index=0)


def test_blank_and_separator_must_differ():
    with pytest.raises(ValueError, match="distinct"):
        Vocabulary(("_", "a"), blank_index=0, word_separator_index=0)


def test_indices_out_of_range_rejected():
    with pytest.raises(ValueError):
        Vocabulary(("_", "a"), blank_index=5, word_separator_index=1)


def test_hash_stable_under_round_trip():
    v = default_vocabulary("abcd")
    again = Vocabulary(**dataclasses.asdict(v))
    assert again == v
    assert again.content_hash() == v.content_hash()


def test_hash_sensitive_to_order():
    a = Vocabulary(("_", "a", "b", " "), 0, 3)
    b = Vocabulary(("_", "b", "a", " "), 0, 3)
    assert a.content_hash() != b.content_hash()


def test_words_round_trip():
    v = default_vocabulary("abc")
    a, b, c, sep = 1, 2, 3, v.word_separator_index
    assert v.graphemes[a] + v.graphemes[b] + v.graphemes[c] == "abc"
    assert v.word_to_indices("ab") == [a, b]
    # separators split words; leading, trailing and doubled ones add none
    assert v.indices_to_words([a, b, sep, c, a]) == ["ab", "ca"]
    assert v.indices_to_words([sep, a, b, sep, sep, c, a, sep]) == ["ab", "ca"]


def test_words_of_a_list_a_tuple_and_an_array_agree():
    v = default_vocabulary("abc")
    seq = [v.word_separator_index, 1, 2, v.word_separator_index, 3, 1]
    want = v.indices_to_words(seq)
    assert want == ["ab", "ca"]
    assert v.indices_to_words(tuple(seq)) == want
    assert v.indices_to_words(np.array(seq, np.int64)) == want


def test_word_with_blank_rejected():
    v = default_vocabulary("abc")
    with pytest.raises(ValueError, match="blank"):
        v.word_to_indices("a_b")


def test_unknown_grapheme_rejected():
    v = default_vocabulary("abc")
    with pytest.raises(KeyError):
        v.word_to_indices("axb")


def test_prototypes_deterministic_and_blank_zero():
    v = default_vocabulary("abcd")
    p1 = symbol_prototypes(v, 6)
    p2 = symbol_prototypes(v, 6)
    assert np.array_equal(p1, p2)
    assert p1.shape == (v.size, 6)
    assert np.all(p1[v.blank_index] == 0.0)
    # different feature dims give different draws
    assert not np.array_equal(symbol_prototypes(v, 5)[:, :5], p1[:, :5])
