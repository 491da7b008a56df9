"""Expansion/retraction rewriting, normal forms, and the quotient operations."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from cpmonoid.words import P1, P2, Word, all_words
from cpmonoid.tmagma import Leaf, Node, ONE_T, degree, leaf_listing, mul, sigma
from cpmonoid.ucp import (
    ONE_U,
    UElem,
    equivalent,
    expand,
    from_word,
    is_reduced,
    mul_U,
    power_U,
    reduce,
    sigma_U,
)

from helpers import (
    enumerate_reduced_trees,
    lf,
    random_tree,
    reduce_randomized,
    retract_at,
    retractable_addresses,
    t,
    w,
)


words_st = st.builds(
    Word, st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple)
)
trees_st = st.recursive(
    st.builds(Leaf, words_st),
    lambda children: st.builds(Node, children, children),
    max_leaves=8,
)


def test_expand_examples():
    assert expand(lf("p2"), ()) == t(("p1p2", "p2p2"))
    assert expand(t(("p1", "p2")), (1,)) == t((("p1p1", "p2p1"), "p2"))
    tree = t(("p1", "p2"))
    assert degree(expand(tree, (1,))) == degree(tree) + 1
    with pytest.raises(ValueError):
        expand(t(("p1", "p2")), ())  # root is not a leaf
    with pytest.raises(ValueError):
        expand(lf("p1"), (1, 1))


def test_reduce_examples():
    assert reduce(t(("p1", "p2"))).tree == ONE_T
    assert reduce(t((("p2p2p2", "p1p2p2"), ("p1p2", "p2p2")))).tree == t(
        (("p2p2p2", "p1p2p2"), "p2")
    )
    # inner retraction cascades to the root
    assert reduce(t((("p1p1", "p2p1"), "p2"))).tree == ONE_T
    # wrong color order blocks retraction
    wrong_order = t(("p2p2p2", "p1p2p2"))
    assert reduce(wrong_order).tree == wrong_order


def test_uelem_requires_reduced():
    with pytest.raises(ValueError):
        UElem(t(("p1", "p2")))
    assert UElem(t(("p2", "p1"))).degree == 2


@given(trees_st)
def test_reduce_idempotent(a):
    normal = reduce(a)
    assert reduce(normal.tree) == normal
    assert is_reduced(normal.tree)


@given(trees_st)
def test_expansion_preserves_class(a):
    entry = leaf_listing(a)[0]
    assert equivalent(a, expand(a, entry.address))


def test_equivalence_examples():
    assert equivalent(t(("p1", "p2")), ONE_T)
    assert not equivalent(lf("p1"), lf("p2"))


def test_confluence_randomized_small():
    rng = random.Random(12345)
    for _ in range(300):
        tree = random_tree(rng, 8)
        # splice in guaranteed-retractable structure half the time
        if rng.random() < 0.5:
            word = Word(tuple(rng.choices((1, 2), k=rng.randint(0, 2))))
            tree = Node(
                tree, Node(Leaf(P1 * word), Leaf(P2 * word))
            )
        normal = reduce(tree).tree
        assert is_reduced(normal)
        assert reduce_randomized(tree, rng) == normal
        assert is_reduced(tree) == (retractable_addresses(tree) == [])


def bounded_move_search_equivalent(a, b, max_degree=6, max_steps=4000) -> bool:
    """Test oracle: breadth-first search through expansion/retraction moves."""
    seen = {a}
    queue = deque([a])
    steps = 0
    while queue and steps < max_steps:
        cur = queue.popleft()
        steps += 1
        if cur == b:
            return True
        moves = []
        for addr in retractable_addresses(cur):
            moves.append(retract_at(cur, addr))
        if degree(cur) < max_degree:
            for entry in leaf_listing(cur):
                moves.append(expand(cur, entry.address))
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return b in seen


def test_normal_forms_match_move_search():
    rng = random.Random(99)
    for _ in range(40):
        a = random_tree(rng, 3, 2)
        b = random_tree(rng, 3, 2)
        assert equivalent(a, b) == bounded_move_search_equivalent(a, b)


def test_mul_U_worked_examples():
    b = reduce(t(("p2", ("p1p1p1", "p2p1"))))
    a = reduce(t((("p2", "p2p2"), ("p2p2p2", "p1p2p2"))))
    assert mul_U(b, a).tree == t((("p2p2p2", "p1p2p2"), "p2"))

    lhs = reduce(t((("p2", "p1p1"), "p2p1")))
    rhs = reduce(t(("p2", "p1")))
    assert mul_U(lhs, rhs).tree == t((("p1", "p1p2"), "p2p2"))

    assert mul_U(ONE_U, rhs) == rhs
    assert mul_U(rhs, ONE_U) == rhs


def test_sigma_U_degree_drop():
    word = w("p2p1")
    left = from_word(P1 * word)
    right = from_word(P2 * word)
    assert sigma_U(left, right) == from_word(word)
    # wrong order does not retract
    assert sigma_U(right, left).tree == Node(right.tree, left.tree)
    assert sigma_U(from_word(P1), from_word(P2)) == ONE_U


def test_sigma_U_matches_reduce_of_sigma():
    # sigma_U retracts at the root only. All pairs of the degree <= 2 trees
    # cover every root case; degree <= 4 against every leaf, both ways,
    # covers larger operands (all pairs at degree 4 are 1.4e8).
    small = [reduce(x) for x in enumerate_reduced_trees(2, 2)]
    pairs = [(a, b) for a in small for b in small]
    leaves = [x for x in small if isinstance(x.tree, Leaf)]
    for a in map(reduce, enumerate_reduced_trees(4, 2)):
        pairs += [(a, b) for b in leaves] + [(b, a) for b in leaves]
    for a, b in pairs:
        assert sigma_U(a, b) == reduce(sigma(a.tree, b.tree))


@given(trees_st, trees_st)
def test_sigma_U_degree_formula(a, b):
    x, y = reduce(a), reduce(b)
    expected = x.degree + y.degree
    xt, yt = x.tree, y.tree
    if (
        isinstance(xt, Leaf)
        and isinstance(yt, Leaf)
        and xt.color.syms[:1] == (1,)
        and yt.color.syms[:1] == (2,)
        and xt.color.syms[1:] == yt.color.syms[1:]
    ):
        expected = 1
    assert sigma_U(x, y).degree == expected


@settings(max_examples=200)
@given(trees_st, trees_st)
def test_congruence(a, b):
    assert reduce(mul(a, b)) == mul_U(reduce(a), reduce(b))
    assert reduce(sigma(a, b)) == sigma_U(reduce(a), reduce(b))


@settings(max_examples=200)
@given(trees_st, trees_st, trees_st)
def test_cp_laws_in_quotient(a, b, c):
    x, y, z = reduce(a), reduce(b), reduce(c)
    one1 = from_word(P1)
    one2 = from_word(P2)
    assert mul_U(one1, sigma_U(x, y)) == x
    assert mul_U(one2, sigma_U(x, y)) == y
    assert mul_U(sigma_U(x, y), z) == sigma_U(mul_U(x, z), mul_U(y, z))
    assert sigma_U(one1, one2) == ONE_U


@given(trees_st)
def test_sigma_U_surjective(a):
    m = reduce(a)
    first = reduce(  # p1·m and p2·m
        mul(Leaf(P1), m.tree)
    )
    second = reduce(mul(Leaf(P2), m.tree))
    assert sigma_U(first, second) == m


def test_word_embedding_into_quotient_injective():
    images = {from_word(word) for k in range(9) for word in all_words(k)}
    assert len(images) == 2 ** 9 - 1


def test_power_U():
    swap = reduce(t(("p2", "p1")))
    assert power_U(swap, 0) == ONE_U
    assert power_U(swap, 2) == ONE_U
    assert power_U(swap, 3) == swap
    with pytest.raises(ValueError):
        power_U(swap, -2)
