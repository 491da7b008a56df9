"""Tree construction, the word action, and the leaf-substitution product."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cpmonoid.words import ONE, P1, P2, Word, all_words
from cpmonoid.tmagma import (
    Leaf,
    Node,
    ONE_T,
    act,
    degree,
    depth,
    leaf_colors,
    leaf_listing,
    left_inverse_T,
    mul,
    power,
    right_inverse_T,
    sigma,
    subtree_at,
)

from helpers import lf, random_tree, t, w


words_st = st.builds(
    Word, st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple)
)
trees_st = st.recursive(
    st.builds(Leaf, words_st),
    lambda children: st.builds(Node, children, children),
    max_leaves=8,
)

EXAMPLE_A = t((("p2", "p2p2"), ("p2p2p2", "p1p2p2")))


def test_sigma_matches_pairing():
    assert sigma(lf("p2"), lf("p2p2")) == Node(lf("p2"), lf("p2p2"))
    assert (
        sigma(sigma(lf("p2"), lf("p2p2")), sigma(lf("p2p2p2"), lf("p1p2p2")))
        == EXAMPLE_A
    )
    assert degree(EXAMPLE_A) == 4
    assert depth(EXAMPLE_A) == 2
    assert depth(ONE_T) == 0


def test_depth_of_deep_combs():
    # walked with an explicit stack: a recursive walk fails long before 10^4
    n = 10_000
    left, right = ONE_T, ONE_T
    for _ in range(n):
        left, right = Node(left, ONE_T), Node(ONE_T, right)
    assert depth(left) == depth(right) == n
    assert depth(Node(left, Node(ONE_T, ONE_T))) == n + 1


@given(trees_st, trees_st)
def test_sigma_degree_additive(a, b):
    assert degree(sigma(a, b)) == degree(a) + degree(b)


def test_act_worked_examples():
    assert act(w("p2"), EXAMPLE_A) == t(("p2p2p2", "p1p2p2"))
    assert act(w("p1p1p1"), EXAMPLE_A) == lf("p1p2")
    assert act(w("p2p1"), EXAMPLE_A) == lf("p2p2")


@given(trees_st)
def test_act_identity_word(a):
    assert act(ONE, a) == a


@given(words_st, words_st)
def test_act_on_leaf_is_left_multiplication(u, v):
    assert act(u, Leaf(v)) == Leaf(u * v)


def test_mul_worked_example():
    b = t(("p2", ("p1p1p1", "p2p1")))
    assert mul(b, EXAMPLE_A) == t((("p2p2p2", "p1p2p2"), ("p1p2", "p2p2")))


@given(trees_st)
def test_mul_identity(a):
    assert mul(ONE_T, a) == a
    assert mul(a, ONE_T) == a


@given(words_st, words_st)
def test_mul_restricts_to_word_concatenation(u, v):
    assert mul(Leaf(u), Leaf(v)) == Leaf(u * v)


@given(words_st, trees_st)
def test_act_is_mul_by_a_leaf(u, a):
    assert mul(Leaf(u), a) == act(u, a)


@given(trees_st, trees_st, trees_st)
def test_cqp_laws(a, b, c):
    assert act(P1, sigma(a, b)) == a
    assert act(P2, sigma(a, b)) == b
    assert mul(sigma(a, b), c) == sigma(mul(a, c), mul(b, c))


@given(trees_st, trees_st)
def test_projection_pair_inverts_sigma(a, b):
    paired = sigma(a, b)
    assert (act(P1, paired), act(P2, paired)) == (a, b)


@settings(max_examples=60)
@given(trees_st, trees_st, trees_st)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(trees_st, trees_st)
def test_degree_grows_under_mul(a, b):
    assert degree(mul(a, b)) >= degree(a)


@given(trees_st, trees_st, trees_st)
def test_pair_of_projections_fixes_sigma_images(a, b, c):
    m = sigma(a, b)
    assert mul(sigma(Leaf(P1), Leaf(P2)), m) == m


def test_word_embedding_multiplicative_and_injective():
    images = {Leaf(word) for k in range(9) for word in all_words(k)}
    assert len(images) == 2 ** 9 - 1  # all 511 words of length <= 8 distinct
    rng = random.Random(7)
    for _ in range(200):
        u = Word(tuple(rng.choices((1, 2), k=rng.randint(0, 8))))
        v = Word(tuple(rng.choices((1, 2), k=rng.randint(0, 8))))
        assert mul(Leaf(u), Leaf(v)) == Leaf(u * v)


def test_leaf_listing_examples():
    assert leaf_listing(lf("p1p2")) == [((), ONE, w("p1p2"))]
    assert leaf_listing(t(("p1", "p2"))) == [
        ((1,), P1, P1),
        ((2,), P2, P2),
    ]
    entries = leaf_listing(EXAMPLE_A)
    assert [str(e.path) for e in entries] == ["p1p1", "p2p1", "p1p2", "p2p2"]
    assert [str(e.color) for e in entries] == ["p2", "p2p2", "p2p2p2", "p1p2p2"]


@given(trees_st)
def test_leaf_listing_agrees_with_act(a):
    for entry in leaf_listing(a):
        assert act(entry.path, a) == Leaf(entry.color)
        assert subtree_at(a, entry.address) == Leaf(entry.color)
    assert [e.color for e in leaf_listing(a)] == leaf_colors(a)


def test_right_inverse_T():
    omega = Node(ONE_T, ONE_T)
    inv = right_inverse_T(lf("p1"))
    assert inv == omega
    assert mul(lf("p1"), inv) == ONE_T
    assert right_inverse_T(t(("p1", "p2"))) is None
    assert right_inverse_T(ONE_T) == ONE_T
    for word in ("p2p1", "p1p1p2"):
        inv = right_inverse_T(lf(word))
        assert inv == power(omega, len(w(word)))
        assert mul(lf(word), inv) == ONE_T


def test_right_inverse_T_of_a_long_word():
    # built in d steps; degree and == would still walk all 2^200 leaves
    word = Word(tuple(random.Random(200).choice((1, 2)) for _ in range(200)))
    assert act(word, right_inverse_T(Leaf(word))) == ONE_T


def test_left_inverse_T():
    assert left_inverse_T(t(("p2", "1"))) == P2
    assert left_inverse_T(lf("p1")) is None
    assert left_inverse_T(ONE_T) == ONE
    tree = t((("1", "p1"), ("1", "p2")))
    word = left_inverse_T(tree)
    assert word == w("p1p1")  # leftmost identity-colored leaf
    assert mul(Leaf(word), tree) == ONE_T


@given(trees_st)
def test_left_inverse_T_verifies(a):
    word = left_inverse_T(a)
    if word is None:
        assert ONE not in leaf_colors(a)
    else:
        assert mul(Leaf(word), a) == ONE_T


def test_subtree_at_rejects_bad_address():
    with pytest.raises(ValueError):
        subtree_at(lf("p1"), (1,))


def test_power():
    assert power(t(("1", "1")), 0) == ONE_T
    two = t(("1", "1"))
    assert power(two, 2) == mul(two, two)
    rng = random.Random(3)
    a = random_tree(rng, 3)
    assert power(a, 3) == mul(a, mul(a, a))
    with pytest.raises(ValueError):
        power(a, -1)
