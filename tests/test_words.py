"""Word arithmetic and the family analysis."""

import re
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from cpmonoid.words import (
    ONE,
    P1,
    P2,
    Word,
    all_words,
    concat,
    family_classify,
    family_left_cofinite,
    family_left_dependent,
    is_left_multiple,
    words_up_to,
)

from helpers import minimally_cofinite_by_removal, w


words_st = st.builds(
    Word, st.lists(st.sampled_from((1, 2)), max_size=6).map(tuple)
)


def test_concat_examples():
    assert concat(P1, P2) == w("p1p2")
    assert concat(ONE, w("p2p1")) == w("p2p1")
    assert concat(w("p2p1"), w("p2p2")) == w("p2p1p2p2")


@given(words_st, words_st)
def test_concat_length_additive(u, v):
    assert len(concat(u, v)) == len(u) + len(v)


@given(words_st, words_st, words_st)
def test_concat_associative_identity(u, v, x):
    assert concat(concat(u, v), x) == concat(u, concat(v, x))
    assert concat(u, ONE) == u == concat(ONE, u)


def test_word_parsing_and_printing():
    assert str(ONE) == "1"
    assert str(w("p2p1p2p2")) == "p2p1p2p2"
    assert Word.from_str("1") == ONE
    with pytest.raises(ValueError):
        Word.from_str("p3")
    with pytest.raises(ValueError):
        Word.from_str("")


def test_word_symbol_check():
    # symbols are compared with ==, so True (== 1) is a symbol, as it always was
    assert Word((True, 2)).syms == (True, 2)
    assert Word([1, 2]).syms == [1, 2]
    for syms in ("12", (0,), (3,), (None,), (1, [2]), [1, 0], iter((1, 3))):
        with pytest.raises(ValueError, match=re.escape(f"word symbols must be 1 or 2: {syms!r}")):
            Word(syms)
    for syms in (None, True):
        with pytest.raises(TypeError):
            Word(syms)


def test_is_left_multiple_examples():
    assert is_left_multiple(w("p2p1"), P1)
    assert not is_left_multiple(w("p1p2"), P1)
    assert is_left_multiple(w("p1p2"), w("p1p2"))
    assert is_left_multiple(w("p1p2"), ONE)


@given(words_st, words_st)
def test_is_left_multiple_against_naive_search(y, word):
    # definitional oracle: some x with y = x·w
    naive = any(
        concat(x, word) == y for x in words_up_to(len(y))
    )
    assert is_left_multiple(y, word) == naive


@given(words_st, words_st)
def test_is_left_multiple_is_reversed_prefix(y, word):
    expected = tuple(reversed(y.syms))[: len(word)] == tuple(reversed(word.syms))
    assert is_left_multiple(y, word) == expected


def test_family_left_cofinite_examples():
    assert family_left_cofinite([P1, P2])
    assert not family_left_cofinite([P1])
    assert family_left_cofinite([P1, w("p1p2"), w("p2p2")])
    assert family_left_cofinite([ONE])
    assert not family_left_cofinite([])


def test_family_left_dependent_examples():
    assert family_left_dependent([P1, w("p2p1")])
    assert not family_left_dependent([P1, P2])
    assert family_left_dependent([w("p1p2"), w("p1p2")])
    assert not family_left_dependent([])


def test_dependence_is_permutation_invariant():
    families = [
        [P1, w("p2p1"), P2],
        [w("p1p2"), w("p2p2"), w("p2")],
        [ONE, P1],
    ]
    for family in families:
        base = family_left_dependent(family)
        for perm in permutations(family):
            assert family_left_dependent(list(perm)) == base


def _covers_all_of_length(family, length):
    return all(
        any(is_left_multiple(y, member) for member in family)
        for y in all_words(length)
    )


def test_cofinite_criterion_stable_under_lengthening():
    # for every family over words of length <= 3 (up to 3 members), the
    # check at the maximal length L agrees with the checks at L+1 and L+2
    pool = list(words_up_to(3))
    for size in range(1, 4):
        for family in combinations_with_replacement(pool, size):
            length = max(len(m) for m in family)
            verdict = family_left_cofinite(family)
            assert verdict == _covers_all_of_length(family, length)
            assert verdict == _covers_all_of_length(family, length + 1)
            assert verdict == _covers_all_of_length(family, length + 2)


def test_family_classify_examples():
    all_true = family_classify([P1, P2])
    assert (
        all_true.cofinite
        and all_true.independent
        and all_true.minimally_cofinite
        and all_true.maximally_independent
    )

    suffix_code = family_classify([P1, w("p1p2"), w("p2p2")])
    assert (
        suffix_code.cofinite
        and suffix_code.independent
        and suffix_code.minimally_cofinite
        and suffix_code.maximally_independent
    )

    redundant = family_classify([P1, w("p2p1"), P2])
    assert redundant.cofinite
    assert not redundant.independent
    assert not redundant.minimally_cofinite
    assert not redundant.maximally_independent


def test_family_classify_edge_cases():
    empty = family_classify([])
    assert not empty.cofinite
    assert empty.independent
    assert not empty.minimally_cofinite
    assert not empty.maximally_independent

    identity_only = family_classify([ONE])
    assert identity_only.cofinite
    assert identity_only.independent
    assert identity_only.minimally_cofinite
    assert identity_only.maximally_independent

    repeated = family_classify([ONE, ONE])
    assert repeated.cofinite
    assert not repeated.independent
    assert not repeated.minimally_cofinite
    assert not repeated.maximally_independent


def oracle_maximally_independent(family) -> bool:
    """Bounded search: no word of length <= max(L, 1) extends the family.

    The bound suffices because an uncovered word of length L (L = maximal
    member length) is always addable to an independent family: nothing in
    the family is a suffix of it, and it is too long to be a proper suffix
    of any member unless some member equals it, which coverage excludes.
    """
    members = tuple(family)
    if family_left_dependent(members):
        return False
    bound = max([len(m) for m in members], default=0)
    bound = max(bound, 1)
    return all(
        family_left_dependent(members + (x,)) for x in words_up_to(bound)
    )


def test_units_style_equivalence_exhaustive():
    # cofinite+independent == minimally cofinite == maximally independent,
    # with maximal independence verified by the bounded search oracle
    pool = list(words_up_to(3))
    for size in range(0, 5):
        for family in combinations_with_replacement(pool, size):
            flags = family_classify(family)
            both = flags.cofinite and flags.independent
            assert flags.minimally_cofinite == both
            assert minimally_cofinite_by_removal(family) == both
            assert flags.maximally_independent == both
            assert oracle_maximally_independent(family) == both
