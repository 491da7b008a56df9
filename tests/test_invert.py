"""Invertibility decisions, inverse constructions, units, and transport."""

import random
from itertools import permutations

import pytest

from cpmonoid.words import (
    P1,
    P2,
    _covering_depth,
    family_classify,
    family_left_cofinite,
    family_left_dependent,
)
from cpmonoid.tmagma import leaf_colors, leaf_listing
from cpmonoid.ucp import ONE_U, expand, from_word, mul_U, reduce, sigma_U
from cpmonoid.dcp import all_shapes, left_comb, perm_hom
from cpmonoid.invert import (
    has_left_inverse,
    has_right_inverse,
    is_unit,
    left_inverse,
    right_inverse,
    transport,
    transport_roundtrip,
    unit_inverse,
    unit_order,
)

from helpers import (
    GROWING_UNIT,
    ORDER3_UNIT,
    chain_unit,
    covering_depth_enumerated,
    enumerate_reduced_trees,
    family_left_dependent_pairwise,
    is_unit_enumerated,
    left_inverse_complete,
    minimally_cofinite_by_removal,
    oracle_left_invertible,
    oracle_left_invertible_literal,
    oracle_right_invertible,
    oracle_right_invertible_literal,
    oracle_unit,
    random_code_family,
    random_tree,
    right_inverse_complete,
    shape_to_tree,
    small_families,
    t,
    w,
)


SWAP = reduce(t(("p2", "p1")))
PAIR_OF_ONES = reduce(t(("1", "1")))


def test_has_left_inverse_examples():
    assert has_left_inverse(SWAP)
    assert not has_left_inverse(from_word(P1))
    assert has_left_inverse(ONE_U)


def test_left_inverse_examples():
    assert left_inverse(SWAP) == SWAP
    assert mul_U(SWAP, SWAP) == ONE_U
    assert left_inverse(ONE_U) == ONE_U
    assert left_inverse(from_word(P1)) is None
    constructed = left_inverse(PAIR_OF_ONES)
    assert constructed == from_word(P1)
    assert mul_U(constructed, PAIR_OF_ONES) == ONE_U


def test_right_inverse_of_a_long_word_is_its_trie():
    # the trie of the single color p2^40 is a right comb of 41 leaves; the
    # complete-tree construction would build 2^40 of them
    long_word = from_word(P2**40)
    constructed = right_inverse(long_word)
    assert constructed.degree == 41
    assert mul_U(long_word, constructed) == ONE_U


def test_has_right_inverse_examples():
    assert not has_right_inverse(PAIR_OF_ONES)
    assert has_right_inverse(from_word(P2))
    assert has_right_inverse(reduce(t(("p2p2p2", "p1p2p2"))))


def test_right_inverse_examples():
    constructed = right_inverse(from_word(P2))
    assert constructed == PAIR_OF_ONES
    assert mul_U(from_word(P2), constructed) == ONE_U
    assert right_inverse(SWAP) == SWAP
    assert right_inverse(PAIR_OF_ONES) is None


def test_is_unit_examples():
    assert is_unit(ONE_U)
    assert is_unit(reduce(ORDER3_UNIT))
    assert not is_unit(from_word(P1))
    assert not is_unit(PAIR_OF_ONES)


def test_unit_inverse_examples():
    assert unit_inverse(SWAP) == SWAP
    assert unit_inverse(ONE_U) == ONE_U
    with pytest.raises(ValueError):
        unit_inverse(from_word(P1))
    u = reduce(ORDER3_UNIT)
    inv = unit_inverse(u)
    assert mul_U(u, inv) == ONE_U
    assert mul_U(inv, u) == ONE_U


def test_unit_order_examples():
    assert unit_order(ONE_U, 5) == 1
    assert unit_order(SWAP, 5) == 2
    assert unit_order(reduce(ORDER3_UNIT), 20) == 3
    assert unit_order(reduce(GROWING_UNIT), 20) is None
    with pytest.raises(ValueError):
        unit_order(from_word(P1), 5)
    with pytest.raises(ValueError):
        unit_order(SWAP, 0)


def test_oracles_match_literal_search_on_small_bounds():
    # validates the compressed searches against candidate-by-candidate
    # enumeration before they are trusted at the larger bounds
    subjects = list(enumerate_reduced_trees(2, 1))
    assert len(subjects) == 11
    for tree in subjects:
        assert oracle_left_invertible(tree, 3, 2) == oracle_left_invertible_literal(
            tree, 3, 2
        )
        assert oracle_right_invertible(tree, 3, 2) == oracle_right_invertible_literal(
            tree, 3, 2
        )


def test_decision_procedures_match_brute_force_search():
    # every reduced tree of degree <= 3 with colors of length <= 2, against
    # inverse search over candidates of degree <= 4 with colors of length <= 3
    count = 0
    for tree in enumerate_reduced_trees(3, 2):
        element = reduce(tree)
        left = has_left_inverse(element)
        right = has_right_inverse(element)
        assert left == oracle_left_invertible(tree, 4, 3), tree
        assert right == oracle_right_invertible(tree, 4, 3), tree
        assert is_unit(element) == oracle_unit(tree, 4, 3), tree
        if left:
            constructed = left_inverse(element)
            assert constructed is not None
            assert mul_U(constructed, element) == ONE_U
        else:
            assert left_inverse(element) is None
        if right:
            constructed = right_inverse(element)
            assert constructed is not None
            assert mul_U(element, constructed) == ONE_U
        else:
            assert right_inverse(element) is None
        count += 1
    assert count == 7 + 46 + 644


def _inverse_subjects():
    yield from (reduce(tree) for tree in enumerate_reduced_trees(4, 2))
    for d in range(1, 6):
        for shape in all_shapes(d):
            for g in permutations(range(1, d + 1)):
                yield perm_hom(shape, g)
    yield from (chain_unit(k) for k in range(1, 11))
    # cofinite codes, often with a color added below another one: a left
    # inverse then has leaves several steps below a kept color
    rng = random.Random(5150)
    for _ in range(1000):
        family = random_code_family(rng, rng.randint(1, 6))
        yield reduce(shape_to_tree(left_comb(len(family)), family))


def test_inverses_match_complete_tree_constructions():
    # the trie builder against the complete-tree oracles, the left and unit
    # decisions against the enumerated and removal-based family flags, and
    # every unit inverse against both products
    changed = 0
    for element in _inverse_subjects():
        colors = leaf_colors(element.tree)
        assert _covering_depth(colors) == covering_depth_enumerated(colors), element
        flags = family_classify(colors)
        assert minimally_cofinite_by_removal(colors) == (flags.cofinite and flags.independent)
        assert has_left_inverse(element) == flags.cofinite
        assert is_unit(element) == flags.minimally_cofinite
        assert is_unit(element) == flags.maximally_independent
        assert is_unit(element) == is_unit_enumerated(element)
        assert flags.independent != family_left_dependent_pairwise(colors)
        assert left_inverse(element) == left_inverse_complete(element)
        expected = right_inverse_complete(element)
        constructed = right_inverse(element)
        if expected is None or flags.cofinite:
            assert constructed == expected, element
        else:
            assert mul_U(element, constructed) == ONE_U, element
            assert constructed.degree <= expected.degree, element
            changed += constructed != expected
        if is_unit(element):
            inverse = unit_inverse(element)
            assert inverse == expected
            assert mul_U(element, inverse) == ONE_U and mul_U(inverse, element) == ONE_U
    assert changed > 0


def test_covering_depth_matches_enumeration():
    # the suffix trie against the search over every word of each candidate
    # depth: every family of at most 4 words of length <= 3, and seeded
    # random families up to 14 long
    families = small_families()
    assert families[0] == () and len(families) == 3876
    assert _covering_depth([]) is None  # the enumerated search needs a member
    rng = random.Random(2718)
    families = families[1:] + [
        random_code_family(rng, rng.randint(1, 14)) for _ in range(1000)
    ]
    covered = 0
    for family in families:
        d = _covering_depth(family)
        assert d == covering_depth_enumerated(family), family
        assert (d is not None) == family_left_cofinite(family), family
        covered += d is not None
    assert covered > 500 and len(families) - covered > 1000  # both verdicts, often


def test_is_unit_matches_enumeration():
    # the suffix trie against covering all 2^L words: every family of at
    # most 4 words of length <= 3, and seeded random families up to 14 long
    families = small_families()[1:]
    rng = random.Random(1414)
    families += [random_code_family(rng, rng.randint(1, 14)) for _ in range(600)]
    units = 0
    for family in families:
        element = reduce(shape_to_tree(left_comb(len(family)), family))
        verdict = is_unit(element)
        assert verdict == is_unit_enumerated(element), family
        units += verdict
    assert units > 100 and len(families) - units > 1000  # both verdicts, often


def test_units_of_degree_64():
    # colors up to 64 long: the unit test reads the suffix trie, and
    # enumerating the 2^64 words of the longest color length never ends
    g = list(range(1, 65))
    random.Random(64).shuffle(g)
    for element, degree in ((chain_unit(64), 65), (perm_hom(left_comb(64), g), 64)):
        assert element.degree == degree
        assert is_unit(element)
        inverse = unit_inverse(element)
        assert inverse.degree == degree
        assert mul_U(element, inverse) == ONE_U and mul_U(inverse, element) == ONE_U


def test_has_left_inverse_of_degree_64():
    # the covering depth decides; enumerating 2^64 words never ends.  Every
    # color of a·p1p2 ends in p1p2, so no word ending in p2p2 is covered
    g = list(range(1, 65))
    random.Random(64).shuffle(g)
    for a in chain_unit(64), perm_hom(left_comb(64), g):
        assert has_left_inverse(a) and has_left_inverse(sigma_U(a, a))
        assert not has_left_inverse(mul_U(a, from_word(P1 * P2)))


def test_left_inverses_of_degree_64():
    # the covering depth is read off the suffix trie; searching the 2^d words
    # of each candidate depth d never ends at d = 64.  S(a, a) repeats every
    # color, so it is left but not right invertible
    g = list(range(1, 65))
    random.Random(64).shuffle(g)
    for a, degree in ((chain_unit(64), 65), (perm_hom(left_comb(64), g), 64)):
        for element in (a, sigma_U(a, a)):
            inverse = left_inverse(element)
            assert inverse.degree == degree
            assert mul_U(inverse, element) == ONE_U


def test_verdicts_stable_under_expansion():
    rng = random.Random(4242)
    for _ in range(150):
        tree = random_tree(rng, 4, 2)
        colors = leaf_colors(tree)
        cofinite = family_left_cofinite(colors)
        dependent = family_left_dependent(colors)
        expanded = tree
        for _ in range(rng.randint(1, 3)):
            entry = rng.choice(leaf_listing(expanded))
            expanded = expand(expanded, entry.address)
        new_colors = leaf_colors(expanded)
        assert family_left_cofinite(new_colors) == cofinite
        assert family_left_dependent(new_colors) == dependent


def _small_units():
    # every unit of degree <= 4 with colors of length <= 2
    units = [reduce(tree) for tree in enumerate_reduced_trees(4, 2)]
    return [u for u in units if is_unit(u)]


def test_units_form_a_group():
    units = _small_units()
    assert ONE_U in units
    for u in units[:20]:
        for v in units[:20]:
            assert is_unit(mul_U(u, v))
    for u in units:
        inverse = unit_inverse(u)
        assert mul_U(u, inverse) == ONE_U and mul_U(inverse, u) == ONE_U
        assert is_unit(inverse)


def test_unit_order_shared_with_inverse():
    for u in _small_units():
        n = unit_order(u, 12)
        if n is not None:
            assert unit_order(unit_inverse(u), 12) == n


def test_transport_identity_pair():
    structure = transport(ONE_U, ONE_U)
    assert structure.kind == "CP"
    assert structure.tau1 == from_word(P1)
    assert structure.tau2 == from_word(P2)
    a, b = from_word(w("p1p2")), from_word(w("p2"))
    assert structure.phi(a, b) == sigma_U(a, b)
    assert transport_roundtrip(structure) == (ONE_U, ONE_U)


def test_transport_unit_pair():
    structure = transport(SWAP, SWAP)
    assert structure.kind == "CP"
    assert structure.tau1 == from_word(P2)
    assert structure.tau2 == from_word(P1)
    a, b = from_word(w("p1")), from_word(w("p2p1"))
    assert structure.phi(a, b) == sigma_U(b, a)
    assert structure.phi(structure.tau1, structure.tau2) == ONE_U
    assert transport_roundtrip(structure) == (SWAP, SWAP)


def test_transport_one_sided_pair():
    structure = transport(from_word(P1), PAIR_OF_ONES)
    assert structure.kind == "CQP"
    assert structure.tau1 == from_word(w("p1p1"))
    assert structure.tau2 == from_word(w("p2p1"))
    assert transport_roundtrip(structure) == (from_word(P1), PAIR_OF_ONES)


def test_transport_rejects_bad_pair():
    with pytest.raises(ValueError):
        transport(from_word(P1), from_word(P2))


def test_transport_roundtrip_random_pairs():
    rng = random.Random(515)
    pairs = []
    while len(pairs) < 30:
        tree = random_tree(rng, 3, 2)
        element = reduce(tree)
        if has_right_inverse(element):
            pairs.append((element, right_inverse(element)))
    for f, g in pairs:
        structure = transport(f, g)
        assert transport_roundtrip(structure) == (f, g)
        # transported pairing keeps the projection laws
        a, b = reduce(random_tree(rng, 3, 2)), reduce(random_tree(rng, 3, 2))
        assert mul_U(structure.tau1, structure.phi(a, b)) == a
        assert mul_U(structure.tau2, structure.phi(a, b)) == b
        # transporting the recovered pair reproduces the structure pointwise
        again = transport(*transport_roundtrip(structure))
        assert (again.tau1, again.tau2) == (structure.tau1, structure.tau2)
        assert again.phi(a, b) == structure.phi(a, b)
