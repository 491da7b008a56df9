"""Acceptance suite: every criterion exercised at its stated bound.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  All
comparisons are exact symbolic equality; there are no tolerances.

The order criteria (8 and 9) pin the order of the named element
S(S(p2,p1p1),p2p1) at exactly 3.  With a word acting symbol by symbol from
the right, that element is the image of a 3-cycle under the
symmetric-group homomorphism on the left-comb 3-shape, so its cube is 1
and neither of its lower powers is.  The unbounded-order behavior belongs
to the product S(S(p2,p1p1),p2p1)·S(p2,p1) = S(S(p1,p1p2),p2p2), which
the companion tests (8c, 9c) verify.
"""

import functools
import json
import random
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

from cpmonoid.words import (
    ONE,
    P1,
    P2,
    family_classify,
    family_left_dependent,
    words_up_to,
)
from cpmonoid.tmagma import ONE_T, Leaf, Node, mul, sigma
from cpmonoid.branch import IDENTITY_S, beta, set_mul, sigma_S, BranchSet, BranchTerm
from cpmonoid.ucp import (
    ONE_U,
    from_word,
    mul_U,
    reduce,
    sigma_U,
)
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
from cpmonoid.dcp import (
    all_shapes,
    embed_finite_monoid,
    endo_antihom,
    perm_hom,
    shape_taus,
)
from cpmonoid.cli import _finite_monoid_from_json, eval_t, main, parse, render

from helpers import (
    GROWING_UNIT,
    ORDER3_UNIT,
    enumerate_reduced_trees,
    enumerate_trees,
    minimally_cofinite_by_removal,
    oracle_left_invertible,
    oracle_right_invertible,
    oracle_unit,
    random_tree,
    random_word,
    reduce_randomized,
    t,
    w,
)

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(label, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {label}: FAIL - {description}")
                raise
            print(f"criterion {label}: PASS - {description}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# criterion 1: worked-example regression (exact)

@criterion(1, "worked-example regression")
def test_criterion_1_worked_examples():
    example_a = t((("p2", "p2p2"), ("p2p2p2", "p1p2p2")))
    from cpmonoid.tmagma import act

    assert act(w("p2"), example_a) == t(("p2p2p2", "p1p2p2"))
    assert act(w("p1p1p1"), example_a) == Leaf(w("p1p2"))
    assert act(w("p2p1"), example_a) == Leaf(w("p2p2"))

    factor = t(("p2", ("p1p1p1", "p2p1")))
    assert mul(factor, example_a) == t((("p2p2p2", "p1p2p2"), ("p1p2", "p2p2")))

    assert mul_U(reduce(factor), reduce(example_a)).tree == t(
        (("p2p2p2", "p1p2p2"), "p2")
    )

    assert mul_U(reduce(ORDER3_UNIT), reduce(t(("p2", "p1")))).tree == t(
        (("p1", "p1p2"), "p2p2")
    )

    left_comb3 = Node(Node(ONE_T, ONE_T), ONE_T)
    right_comb3 = Node(ONE_T, Node(ONE_T, ONE_T))
    assert shape_taus(left_comb3) == [w("p1p1"), w("p2p1"), w("p2")]
    assert shape_taus(right_comb3) == [w("p1"), w("p1p2"), w("p2p2")]

    paired = sigma_S(
        BranchSet.of([BranchTerm(ONE, P1)]), BranchSet.of([BranchTerm(ONE, P2)])
    )
    assert paired == BranchSet.of([BranchTerm(P1, P1), BranchTerm(P2, P2)])
    assert paired != IDENTITY_S


# ---------------------------------------------------------------------------
# criterion 2: law suite, >= 1000 random cases per law

@criterion(2, "algebraic law suite")
def test_criterion_2_laws():
    rng = random.Random(0x5EC2)

    for _ in range(1000):
        a, b, c = (random_tree(rng, 5, 3) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    one1, one2 = from_word(P1), from_word(P2)
    for _ in range(1000):
        x = reduce(random_tree(rng, 5, 3))
        y = reduce(random_tree(rng, 5, 3))
        z = reduce(random_tree(rng, 5, 3))
        assert mul_U(one1, sigma_U(x, y)) == x
        assert mul_U(one2, sigma_U(x, y)) == y
        assert mul_U(sigma_U(x, y), z) == sigma_U(mul_U(x, z), mul_U(y, z))
        assert sigma_U(one1, one2) == ONE_U

    from cpmonoid.tmagma import act

    for _ in range(1000):
        a, b, c = (random_tree(rng, 5, 3) for _ in range(3))
        assert act(P1, sigma(a, b)) == a
        assert act(P2, sigma(a, b)) == b
        assert mul(sigma(a, b), c) == sigma(mul(a, c), mul(b, c))

    almost_one = sigma(Leaf(P1), Leaf(P2))
    for _ in range(1000):
        image = sigma(random_tree(rng, 4, 3), random_tree(rng, 4, 3))
        assert mul(almost_one, image) == image

    for _ in range(1000):
        a, b = random_tree(rng, 5, 3), random_tree(rng, 5, 3)
        assert beta(mul(a, b)) == set_mul(beta(a), beta(b))

    seen = {}
    count = 0
    for tree in enumerate_trees(4, 2):
        image = beta(tree)
        assert image not in seen
        seen[image] = tree
        count += 1
    assert count == 12747


# ---------------------------------------------------------------------------
# criterion 3: rewriting suite

@criterion(3, "rewriting: confluence, idempotence, congruence")
def test_criterion_3_rewriting():
    rng = random.Random(0x5EC3)
    for _ in range(1000):
        tree = random_tree(rng, 10, 3)
        if rng.random() < 0.5:
            word = random_word(rng, 2)
            tree = Node(tree, Node(Leaf(P1 * word), Leaf(P2 * word)))
        normal = reduce(tree)
        assert reduce_randomized(tree, rng) == normal.tree
        assert reduce(normal.tree) == normal

    for _ in range(1000):
        a, b = random_tree(rng, 6, 3), random_tree(rng, 6, 3)
        assert reduce(mul(a, b)) == mul_U(reduce(a), reduce(b))
        assert reduce(sigma(a, b)) == sigma_U(reduce(a), reduce(b))


# ---------------------------------------------------------------------------
# criterion 4: invertibility oracle equivalence

@criterion(4, "invertibility vs brute-force inverse search")
def test_criterion_4_oracles():
    count = 0
    for tree in enumerate_reduced_trees(3, 2):
        element = reduce(tree)
        left = has_left_inverse(element)
        right = has_right_inverse(element)
        assert left == oracle_left_invertible(tree, 4, 3)
        assert right == oracle_right_invertible(tree, 4, 3)
        assert is_unit(element) == oracle_unit(tree, 4, 3)
        if left:
            constructed = left_inverse(element)
            assert constructed is not None
            assert mul_U(constructed, element) == ONE_U
        if right:
            constructed = right_inverse(element)
            assert constructed is not None
            assert mul_U(element, constructed) == ONE_U
        count += 1
    assert count == 697


# ---------------------------------------------------------------------------
# criterion 5: equivalence of the three family conditions

def _bounded_maximal_independence(members) -> bool:
    if family_left_dependent(members):
        return False
    bound = max([len(m) for m in members], default=0)
    return all(
        family_left_dependent(members + (x,))
        for x in words_up_to(max(bound, 1))
    )


@criterion(5, "family condition equivalences, exhaustive")
def test_criterion_5_family_equivalences():
    pool = list(words_up_to(3))
    checked = 0
    for size in range(0, 5):
        for family in combinations_with_replacement(pool, size):
            flags = family_classify(family)
            both = flags.cofinite and flags.independent
            assert flags.minimally_cofinite == both
            assert minimally_cofinite_by_removal(family) == both
            assert flags.maximally_independent == both
            assert _bounded_maximal_independence(family) == both
            checked += 1
    assert checked == 1 + 15 + 120 + 680 + 3060


# ---------------------------------------------------------------------------
# criterion 6: transport bijection

@criterion(6, "transport bijection and transported laws")
def test_criterion_6_transport():
    rng = random.Random(0x5EC6)

    pairs = []
    while len(pairs) < 80:
        f = reduce(random_tree(rng, 3, 2))
        if has_right_inverse(f):
            g = right_inverse(f)
            assert g is not None
            pairs.append((f, g))
    unit_pairs = []
    while len(unit_pairs) < 20:
        d = rng.randint(1, 4)
        shape = rng.choice(list(all_shapes(d)))
        perm = tuple(rng.sample(range(1, d + 1), d))
        u = perm_hom(shape, perm)
        unit_pairs.append((u, unit_inverse(u)))
    pairs.extend(unit_pairs)
    assert len(pairs) == 100

    for f, g in pairs:
        structure = transport(f, g)
        assert transport_roundtrip(structure) == (f, g)
        a = reduce(random_tree(rng, 3, 2))
        b = reduce(random_tree(rng, 3, 2))
        c = reduce(random_tree(rng, 3, 2))
        value = structure.phi(a, b)
        assert mul_U(structure.tau1, value) == a
        assert mul_U(structure.tau2, value) == b
        assert mul_U(value, c) == structure.phi(mul_U(a, c), mul_U(b, c))

    for u, v in unit_pairs:
        structure = transport(u, v)
        assert structure.kind == "CP"
        assert structure.phi(structure.tau1, structure.tau2) == ONE_U


# ---------------------------------------------------------------------------
# criterion 7: transformation-monoid images and finite-monoid embeddings

@criterion(7, "antihomomorphism, permutation images, finite embeddings")
def test_criterion_7_embeddings():
    for d in range(1, 4):
        for shape in all_shapes(d):
            maps = list(product(range(1, d + 1), repeat=d))
            images = {f: endo_antihom(shape, f) for f in maps}
            assert len(set(images.values())) == d ** d
            for f in maps:
                for g in maps:
                    composed = tuple(g[f[i] - 1] for i in range(d))
                    assert mul_U(images[f], images[g]) == images[composed]

    left_comb3 = Node(Node(ONE_T, ONE_T), ONE_T)
    perms = list(permutations((1, 2, 3)))
    psi = {p: perm_hom(left_comb3, p) for p in perms}
    for p in perms:
        for q in perms:
            composed = tuple(p[q[i] - 1] for i in range(3))
            assert mul_U(psi[p], psi[q]) == psi[composed]
    assert len(set(psi.values())) == 6

    fixture_names = [
        "trivial", "c2", "m2_idempotent",
        "m3_1", "m3_2", "m3_3", "m3_4", "m3_5", "m3_6", "m3_7",
        "c4", "klein",
    ]
    for name in fixture_names:
        with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
            monoid = _finite_monoid_from_json(json.load(fh))
        images = embed_finite_monoid(monoid)
        assert len(set(images.values())) == monoid.n
        for i in range(monoid.n):
            for j in range(monoid.n):
                assert mul_U(
                    images[monoid.labels[i]], images[monoid.labels[j]]
                ) == images[monoid.labels[monoid.table[i][j]]]


# ---------------------------------------------------------------------------
# criterion 8: order of the named degree-3 units
#
# The named element is the 3-cycle image perm_hom(left comb, (2,3,1)), so
# its order is exactly 3 (see the module docstring).  The cube is checked
# twice: through unit_order and mul_U in the quotient, and as a product in
# the tree monoid reduced by the randomized-rewriting oracle.  The
# companion test shows unbounded order on the product element.

@criterion(8, "order of S(S(p2,p1p1),p2p1) is exactly 3 (3-cycle image)")
def test_criterion_8_as_stated():
    element = reduce(ORDER3_UNIT)
    left_comb3 = Node(Node(ONE_T, ONE_T), ONE_T)
    assert perm_hom(left_comb3, (2, 3, 1)) == element
    assert unit_order(element, 50) == 3
    powers = [ONE_U]
    for _ in range(10):
        powers.append(mul_U(powers[-1], element))
    assert powers[1] != ONE_U and powers[2] != ONE_U
    assert all(powers[k] == powers[k % 3] for k in range(len(powers)))

    rng = random.Random(0x5EC8)
    square = mul(ORDER3_UNIT, ORDER3_UNIT)
    assert reduce_randomized(mul(square, ORDER3_UNIT), rng) == Leaf(ONE)
    assert reduce_randomized(square, rng) == powers[2].tree


@criterion("8c", "unbounded order of the product element (companion)")
def test_criterion_8_companion_growing_element():
    element = reduce(GROWING_UNIT)
    assert (
        mul_U(reduce(ORDER3_UNIT), reduce(t(("p2", "p1")))) == element
    )
    assert is_unit(element)
    assert unit_order(element, 50) is None
    degrees = []
    p = element
    for _ in range(10):
        degrees.append(p.degree)
        p = mul_U(p, element)
    assert all(x < y for x, y in zip(degrees, degrees[1:]))
    assert unit_order(reduce(ORDER3_UNIT), 50) == 3


# ---------------------------------------------------------------------------
# criterion 9: CLI surface

@criterion("9 (roundtrip)", "sexpr parse/render roundtrip, 1000 random trees")
def test_criterion_9_roundtrip():
    rng = random.Random(0x5EC9)
    for _ in range(1000):
        tree = random_tree(rng, 8, 3)
        assert eval_t(parse(render(tree))) == tree


@criterion("9 (inv example)", "inv S(p2,p1) --side unit prints itself")
def test_criterion_9_cli_inv(capsys):
    code = main(["inv", "S(p2,p1)", "--side", "unit"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "S(p2,p1)\n"


@criterion(
    "9 (order example)",
    "order of S(S(p2,p1p1),p2p1) prints 3 under --max 20, exceeds --max 2",
)
def test_criterion_9_cli_order_as_stated(capsys):
    # the element has order 3 (criterion 8), so --max 2 is the largest
    # bound at which the "order exceeds N" answer is right
    code = main(["order", "S(S(p2,p1p1),p2p1)", "--max", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "3\n", f"printed {captured.out!r}"

    code = main(["order", "S(S(p2,p1p1),p2p1)", "--max", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "order exceeds 2\n", f"printed {captured.out!r}"


@criterion("9c (order companion)", "order of the product element exceeds 20")
def test_criterion_9_cli_order_companion(capsys):
    code = main(["order", "S(S(p2,p1p1),p2p1) * S(p2,p1)", "--max", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "order exceeds 20\n"


@criterion("9 (equiv example)", "equiv S(p1,p2) 1 prints true with exit 0")
def test_criterion_9_cli_equiv(capsys):
    code = main(["equiv", "S(p1,p2)", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "true\n"


@criterion("9 (embed example)", "C2 table embeds to {e: 1, a: S(p2,p1)}")
def test_criterion_9_cli_embed(capsys):
    code = main(["embed", str(FIXTURES / "c2.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "e -> 1\na -> S(p2,p1)\n"
