"""Shape-induced d-fold product structures and finite-monoid embeddings."""

import json
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from cpmonoid.words import ONE
from cpmonoid.ucp import ONE_U, from_word, mul_U
from cpmonoid.invert import is_unit, unit_order
from cpmonoid.dcp import (
    FiniteMonoid,
    LEAF_SHAPE,
    ShapeNode,
    all_shapes,
    combine,
    embed_finite_monoid,
    endo_antihom,
    leaf_count,
    perm_hom,
    phi,
    shape_taus,
    validate_finite_monoid,
)
from cpmonoid.cli import _finite_monoid_from_json
import cpmonoid.dcp as dcp

from helpers import (
    cyclic_monoid,
    full_transformation_monoid,
    monogenic_monoid,
    product_monoid,
    random_uelem,
    relabel_monoid,
    symmetric_monoid,
    t,
    validate_finite_monoid_reference,
    w,
)


FIXTURES = Path(__file__).parent / "fixtures"

LEFT_COMB_3 = ShapeNode(ShapeNode(LEAF_SHAPE, LEAF_SHAPE), LEAF_SHAPE)
RIGHT_COMB_3 = ShapeNode(LEAF_SHAPE, ShapeNode(LEAF_SHAPE, LEAF_SHAPE))


def load_fixture(name: str) -> FiniteMonoid:
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return _finite_monoid_from_json(json.load(fh))


def test_shape_taus_three_fold_structures():
    assert shape_taus(LEFT_COMB_3) == [w("p1p1"), w("p2p1"), w("p2")]
    assert shape_taus(RIGHT_COMB_3) == [w("p1"), w("p1p2"), w("p2p2")]
    assert shape_taus(LEAF_SHAPE) == [ONE]


def test_shape_taus_distinct_and_maximally_independent():
    from cpmonoid.words import family_classify

    for d in range(1, 6):
        for shape in all_shapes(d):
            taus = shape_taus(shape)
            assert len(set(taus)) == d
            flags = family_classify(taus)
            assert flags.cofinite and flags.independent
            assert flags.maximally_independent


def test_phi_examples():
    for shape in (LEFT_COMB_3, RIGHT_COMB_3):
        taus = [from_word(word) for word in shape_taus(shape)]
        assert phi(shape, taus) == ONE_U
    two = ShapeNode(LEAF_SHAPE, LEAF_SHAPE)
    a, b = from_word(w("p1p2")), from_word(w("p2"))
    from cpmonoid.ucp import sigma_U

    assert phi(two, [a, b]) == sigma_U(a, b)
    # too few and too many: the shape's leaves are counted only for this message
    for ms in ([a], [a, b, a]):
        with pytest.raises(ValueError, match=f"^phi needs 2 arguments for this shape, got {len(ms)}$"):
            phi(two, ms)


def test_phi_extraction_and_right_translation():
    rng = random.Random(321)
    for _ in range(40):
        d = rng.randint(1, 5)
        shape = rng.choice(list(all_shapes(d)))
        ms = [random_uelem(rng, 3, 2) for _ in range(d)]
        value = phi(shape, ms)
        taus = shape_taus(shape)
        for i in range(d):
            assert mul_U(from_word(taus[i]), value) == ms[i]
        n = random_uelem(rng, 3, 2)
        assert mul_U(value, n) == phi(shape, [mul_U(m, n) for m in ms])


def test_combine_examples():
    two = ShapeNode(LEAF_SHAPE, LEAF_SHAPE)
    assert combine(two, [LEAF_SHAPE, LEAF_SHAPE]) == two
    assert combine(two, [two, LEAF_SHAPE]) == LEFT_COMB_3
    assert shape_taus(combine(two, [two, LEAF_SHAPE])) == [
        w("p1p1"),
        w("p2p1"),
        w("p2"),
    ]
    for inners in ([two], [two, two, two]):
        with pytest.raises(ValueError, match=f"^combine needs 2 inner shapes, got {len(inners)}$"):
            combine(two, inners)


def test_combine_tau_formula_and_iteration():
    rng = random.Random(17)
    for _ in range(30):
        outer = rng.choice(list(all_shapes(rng.randint(1, 3))))
        inners = [
            rng.choice(list(all_shapes(rng.randint(1, 3))))
            for _ in range(leaf_count(outer))
        ]
        combined = combine(outer, inners)
        assert leaf_count(combined) == sum(leaf_count(i) for i in inners)
        rhos = shape_taus(outer)
        expected = [
            tau * rho
            for rho, inner in zip(rhos, inners)
            for tau in shape_taus(inner)
        ]
        assert shape_taus(combined) == expected
    # iterating the construction reaches every leaf count
    shape = LEAF_SHAPE
    for e in range(2, 8):
        shape = combine(
            ShapeNode(LEAF_SHAPE, LEAF_SHAPE), [shape, LEAF_SHAPE]
        )
        assert leaf_count(shape) == e


def test_combine_coherent_with_phi():
    rng = random.Random(23)
    two = ShapeNode(LEAF_SHAPE, LEAF_SHAPE)
    for _ in range(20):
        inners = [
            rng.choice(list(all_shapes(rng.randint(1, 3)))) for _ in range(2)
        ]
        combined = combine(two, inners)
        blocks = [
            [random_uelem(rng, 2, 2) for _ in range(leaf_count(inner))]
            for inner in inners
        ]
        flat = [m for block in blocks for m in block]
        nested = phi(two, [phi(inner, block) for inner, block in zip(inners, blocks)])
        assert phi(combined, flat) == nested


def test_endo_antihom_examples():
    two = ShapeNode(LEAF_SHAPE, LEAF_SHAPE)
    assert endo_antihom(two, (1, 2)) == ONE_U
    assert endo_antihom(two, (1, 1)).tree == t(("p1", "p1"))
    with pytest.raises(ValueError):
        endo_antihom(two, (1, 3))


def test_endo_antihom_injective_and_antimultiplicative():
    for d in range(1, 4):
        for shape in all_shapes(d):
            maps = list(product(range(1, d + 1), repeat=d))
            images = {f: endo_antihom(shape, f) for f in maps}
            assert len(set(images.values())) == d ** d
            for f in maps:
                for g in maps:
                    composed = tuple(g[f[i] - 1] for i in range(d))  # g after f
                    assert mul_U(images[f], images[g]) == images[composed]


def test_endo_antihom_antimultiplicative_random_d4():
    rng = random.Random(640)
    shapes = list(all_shapes(4))
    for _ in range(60):
        shape = rng.choice(shapes)
        f = tuple(rng.randint(1, 4) for _ in range(4))
        g = tuple(rng.randint(1, 4) for _ in range(4))
        composed = tuple(g[f[i] - 1] for i in range(4))
        assert mul_U(endo_antihom(shape, f), endo_antihom(shape, g)) == endo_antihom(
            shape, composed
        )


def test_perm_hom_examples():
    two = ShapeNode(LEAF_SHAPE, LEAF_SHAPE)
    assert perm_hom(two, (1, 2)) == ONE_U
    assert perm_hom(two, (2, 1)).tree == t(("p2", "p1"))
    with pytest.raises(ValueError):
        perm_hom(two, (1, 1))


def test_perm_hom_multiplicative_on_s3():
    for shape in (LEFT_COMB_3, RIGHT_COMB_3):
        perms = list(permutations((1, 2, 3)))
        images = {p: perm_hom(shape, p) for p in perms}
        for p in perms:
            for q in perms:
                composed = tuple(p[q[i] - 1] for i in range(3))  # p after q
                assert mul_U(images[p], images[q]) == images[composed]
        assert len(set(images.values())) == 6


def test_perm_images_are_units_of_dividing_order():
    rng = random.Random(88)
    for d in range(1, 5):
        for shape in all_shapes(d):
            for _ in range(3):
                perm = tuple(rng.sample(range(1, d + 1), d))
                image = perm_hom(shape, perm)
                assert is_unit(image)
                perm_order = _perm_order(perm)
                n = unit_order(image, perm_order)
                assert n is not None and perm_order % n == 0


def _perm_order(perm):
    order = 1
    current = perm
    identity = tuple(range(1, len(perm) + 1))
    while current != identity:
        current = tuple(perm[current[i] - 1] for i in range(len(perm)))
        order += 1
    return order


def test_validate_finite_monoid():
    c2 = load_fixture("c2")
    assert validate_finite_monoid(c2) is None

    broken_identity = FiniteMonoid(("e", "a"), 0, ((0, 1), (0, 0)))
    violation = validate_finite_monoid(broken_identity)
    assert violation is not None and violation.law == "identity"

    # x·y = x is associative; tweak one entry to break associativity only
    non_assoc = FiniteMonoid(("e", "a", "b"), 0, ((0, 1, 2), (1, 0, 0), (2, 0, 1)))
    violation = validate_finite_monoid(non_assoc)
    assert violation is not None
    assert violation.law == "associativity"
    assert violation.indices == (1, 1, 2)

    bad_shape = FiniteMonoid(("e", "a"), 0, ((0, 1),))
    violation = validate_finite_monoid(bad_shape)
    assert violation is not None and violation.law == "shape"


def test_embed_trivial_and_c2():
    trivial = embed_finite_monoid(load_fixture("trivial"))
    assert trivial == {"e": ONE_U}
    c2 = embed_finite_monoid(load_fixture("c2"))
    assert c2["e"] == ONE_U
    assert c2["a"].tree == t(("p2", "p1"))


def _check_embedding(monoid: FiniteMonoid):
    images = embed_finite_monoid(monoid)
    assert len(set(images.values())) == monoid.n
    assert images[monoid.labels[monoid.identity]] == ONE_U
    for i in range(monoid.n):
        for j in range(monoid.n):
            expected = images[monoid.labels[monoid.table[i][j]]]
            assert mul_U(images[monoid.labels[i]], images[monoid.labels[j]]) == expected


ALL_FIXTURES = [
    "trivial",
    "c2",
    "m2_idempotent",
    "m3_1",
    "m3_2",
    "m3_3",
    "m3_4",
    "m3_5",
    "m3_6",
    "m3_7",
    "c4",
    "klein",
]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_embed_fixture(name):
    _check_embedding(load_fixture(name))


def _canonical_form(table, n):
    best = None
    for perm in permutations(range(1, n)):
        relabel = (0,) + perm
        permuted = tuple(
            tuple(relabel[table[i][j]] for j in _argsort(relabel))
            for i in _argsort(relabel)
        )
        if best is None or permuted < best:
            best = permuted
    return best


def _argsort(relabel):
    return sorted(range(len(relabel)), key=lambda i: relabel[i])


def test_fixture_tables_cover_all_small_monoids():
    # enumerate all monoids with identity 0 on up to three elements and
    # check the fixture set realizes every isomorphism class exactly once
    by_size = {1: set(), 2: set(), 3: set()}
    for n in by_size:
        free = [(i, j) for i in range(1, n) for j in range(1, n)]
        for values in product(range(n), repeat=len(free)):
            table = [[0] * n for _ in range(n)]
            for j in range(n):
                table[0][j] = j
                table[j][0] = j
            for (i, j), v in zip(free, values):
                table[i][j] = v
            tup = tuple(tuple(row) for row in table)
            if all(
                tup[tup[i][j]][k] == tup[i][tup[j][k]]
                for i in range(n)
                for j in range(n)
                for k in range(n)
            ):
                by_size[n].add(_canonical_form(tup, n))
    assert len(by_size[1]) == 1
    assert len(by_size[2]) == 2
    assert len(by_size[3]) == 7

    fixture_forms = {1: set(), 2: set(), 3: set()}
    for name in ALL_FIXTURES:
        monoid = load_fixture(name)
        if monoid.n <= 3:
            assert monoid.identity == 0
            fixture_forms[monoid.n].add(_canonical_form(monoid.table, monoid.n))
    assert fixture_forms == by_size


def test_embed_rejects_invalid_table():
    with pytest.raises(ValueError):
        embed_finite_monoid(FiniteMonoid(("e", "a"), 0, ((0, 1), (0, 0))))


def _table_monoid(table) -> FiniteMonoid:
    n = len(table)
    return FiniteMonoid(tuple(f"x{i}" for i in range(n)), 0, tuple(map(tuple, table)))


def _with_identity_laws(n: int, free_values) -> FiniteMonoid:
    """Identity 0; free_values fills the entries (i, j) with i, j >= 1 row by row."""
    table = [[i if j == 0 else j if i == 0 else 0 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for (i, j), v in zip(cells, free_values):
        table[i][j] = v
    return _table_monoid(table)


def _perturbations(m: FiniteMonoid):
    """Every table differing from m in exactly one entry."""
    for i in range(m.n):
        for j in range(m.n):
            for v in range(m.n):
                if v != m.table[i][j]:
                    rows = [list(row) for row in m.table]
                    rows[i][j] = v
                    yield FiniteMonoid(m.labels, m.identity, tuple(map(tuple, rows)))


def test_validate_matches_reference_on_all_three_element_operations():
    tables = [_with_identity_laws(3, values) for values in product(range(3), repeat=4)]
    assert len(tables) == 81
    for m in tables:
        assert validate_finite_monoid(m) == validate_finite_monoid_reference(m)


def test_validate_matches_reference_on_random_tables():
    rng = random.Random(606)
    for _ in range(2000):
        n = rng.choice((4, 5))
        m = _with_identity_laws(n, [rng.randrange(n) for _ in range((n - 1) ** 2)])
        assert validate_finite_monoid(m) == validate_finite_monoid_reference(m)


def test_validate_matches_reference_on_perturbed_monoids():
    monoids = [cyclic_monoid(n) for n in range(1, 7)]
    monoids += [symmetric_monoid(3), full_transformation_monoid(2)]
    monoids += [load_fixture(name) for name in ALL_FIXTURES]
    for monoid in monoids:
        assert validate_finite_monoid(monoid) is None
        for m in _perturbations(monoid):
            assert validate_finite_monoid(m) == validate_finite_monoid_reference(m)


def _right_closure(m: FiniteMonoid, gens) -> set[int]:
    reached = {m.identity}
    while True:
        grown = reached | {m.table[x][g] for x in reached for g in gens}
        if grown == reached:
            return reached
        reached = grown


ORACLE_MONOIDS = {
    **{f"C{n}": cyclic_monoid(n) for n in range(1, 13)},
    "Z2xZ4": product_monoid(cyclic_monoid(2), cyclic_monoid(4)),
    "S3": symmetric_monoid(3),
    "T2": full_transformation_monoid(2),
    "T3": full_transformation_monoid(3),
    "monogenic(3,5)": monogenic_monoid(3, 5),
}


@pytest.mark.parametrize("name", ORACLE_MONOIDS)
def test_embed_relabelled_tables_on_all_pairs(name):
    rng = random.Random(f"embed:{name}")
    for _ in range(2):
        m = relabel_monoid(rng, ORACLE_MONOIDS[name])
        gens = dcp._generators(m)
        assert len(_right_closure(m, gens)) == m.n
        for g in gens:
            assert len(_right_closure(m, [h for h in gens if h != g])) < m.n
        _check_embedding(m)


@pytest.mark.parametrize("name", ["C6", "S3", "T2", "T3", "monogenic(3,5)"])
def test_embed_rejects_a_wrong_non_generator_image(name, monkeypatch):
    rng = random.Random(f"mutate:{name}")
    m = relabel_monoid(rng, ORACLE_MONOIDS[name])
    embedded = embed_finite_monoid(m)
    images = [embedded[label] for label in m.labels]
    real_phi = dcp.phi
    others = set(dcp._generators(m)) | {m.identity}
    for y in range(m.n):
        if y in others:
            continue
        wrong = images[rng.choice([k for k in range(m.n) if k != y])]

        def mutated_phi(shape, ms, y=y, wrong=wrong):
            image = real_phi(shape, ms)
            return wrong if image == images[y] else image

        monkeypatch.setattr(dcp, "phi", mutated_phi)
        with pytest.raises(RuntimeError, match="embedding verification failed on"):
            embed_finite_monoid(m)


def test_embed_checks_n_times_generators_products(monkeypatch):
    calls = []
    real_mul_U = dcp.mul_U

    def counting_mul_U(a, b):
        calls.append(None)
        return real_mul_U(a, b)

    monkeypatch.setattr(dcp, "mul_U", counting_mul_U)
    embed_finite_monoid(cyclic_monoid(32))
    assert len(calls) == 32
    calls.clear()
    t3 = full_transformation_monoid(3)
    embed_finite_monoid(t3)
    assert len(calls) == 27 * len(dcp._generators(t3))
