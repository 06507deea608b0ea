import math

import pytest
from hypothesis import given, settings, strategies as st

from ekd.wer import accumulate, wer

from oracles import numpy_wer, recursive_edit_distance

words = st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=0, max_size=6)


def test_identical_sequences():
    b = wer(["a", "b", "c"], ["a", "b", "c"])
    assert b.total_errors == 0 and b.wer == 0.0


def test_single_substitution():
    b = wer(["a", "b", "c"], ["a", "x", "c"])
    assert (b.substitutions, b.insertions, b.deletions) == (1, 0, 0)
    assert b.wer == pytest.approx(1 / 3)


def test_deletion_and_insertion():
    b = wer(["a", "b"], ["a"])
    assert (b.substitutions, b.insertions, b.deletions) == (0, 0, 1)
    b = wer(["a"], ["a", "b"])
    assert (b.substitutions, b.insertions, b.deletions) == (0, 1, 0)


def test_empty_reference_nonempty_hypothesis():
    b = wer([], ["a", "b"])
    assert b.insertions == 2 and b.reference_words == 0
    assert not b.wer_defined
    assert math.isnan(b.wer)


def test_empty_both():
    b = wer([], [])
    assert b.total_errors == 0 and not b.wer_defined


@given(words, words)
@settings(max_examples=300, deadline=None)
def test_total_matches_recursive_oracle(r, h):
    assert wer(r, h).total_errors == recursive_edit_distance(r, h)


@given(words, words)
@settings(max_examples=300, deadline=None)
def test_breakdown_matches_numpy_oracle(r, h):
    # Substitutions, insertions and deletions each, not just their total:
    # the backtrace's tie order shapes the split.
    b = wer(r, h)
    assert (b.substitutions, b.insertions, b.deletions) == numpy_wer(r, h)
    assert all(type(n) is int for n in (b.substitutions, b.insertions, b.deletions))


@given(words)
@settings(max_examples=100, deadline=None)
def test_identical_pairs_match_numpy_oracle(r):
    b = wer(r, list(r))
    assert (b.substitutions, b.insertions, b.deletions) == numpy_wer(r, r) == (0, 0, 0)
    assert b.reference_words == len(r)


@given(words, words, words, words, st.booleans(), st.booleans())
@settings(max_examples=500, deadline=None)
def test_shared_prefix_and_suffix_match_numpy_oracle(mid_r, mid_h, prefix, suffix,
                                                     with_prefix, with_suffix):
    # The words shared at either end never reach the table; the breakdown
    # must still be the full table's, whatever the middles share with the
    # ends.
    head, tail = prefix if with_prefix else [], suffix if with_suffix else []
    r, h = head + mid_r + tail, head + mid_h + tail
    b = wer(r, h)
    assert (b.substitutions, b.insertions, b.deletions) == numpy_wer(r, h)
    assert b.reference_words == len(r)
    assert all(type(n) is int for n in (b.substitutions, b.insertions, b.deletions))


def test_breakdown_matches_numpy_oracle_on_long_sequences(rng):
    pool = ["a", "b", "c", "d"]
    for _ in range(100):
        r = [pool[i] for i in rng.integers(0, 4, size=rng.integers(0, 30))]
        h = [pool[i] for i in rng.integers(0, 4, size=rng.integers(0, 30))]
        b = wer(r, h)
        assert (b.substitutions, b.insertions, b.deletions) == numpy_wer(r, h)


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_symmetric_total(r, h):
    assert wer(r, h).total_errors == wer(h, r).total_errors


@given(words, words, words)
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(a, b, c):
    ab = wer(a, b).total_errors
    bc = wer(b, c).total_errors
    ac = wer(a, c).total_errors
    assert ac <= ab + bc


def test_breakdown_sums_to_total(rng):
    pool = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        r = [pool[i] for i in rng.integers(0, 5, size=rng.integers(0, 7))]
        h = [pool[i] for i in rng.integers(0, 5, size=rng.integers(0, 7))]
        b = wer(r, h)
        assert b.substitutions + b.insertions + b.deletions == recursive_edit_distance(r, h)
        assert b.wer >= 0 or not b.wer_defined


def test_tie_preference_substitution_first():
    # "a" -> "b" could be del+ins; the breakdown must call it a substitution.
    b = wer(["a"], ["b"])
    assert (b.substitutions, b.insertions, b.deletions) == (1, 0, 0)


def test_accumulate():
    total = accumulate([wer(["a", "b"], ["a", "x"]), wer(["c"], ["c", "d"])])
    assert total.reference_words == 3
    assert total.total_errors == 2
    assert total.wer == pytest.approx(2 / 3)
