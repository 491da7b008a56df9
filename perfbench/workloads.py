"""Seeded operation lists for the three workloads.

Each workload builds one pass of operations at a time from a
``random.Random``.  A pass has a fixed mix: the same number of operations
of each kind and input size class, so passes and seeds differ only in the
particular instances.  Inputs, expected answers and checks come from
``reference``; the library is called only inside ``Op.run``, through
module attributes looked up at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as R


@dataclass
class Op:
    kind: str
    size: int  # input size, used to pick small operations for warm-up
    input: object  # the generated input, in reference form
    run: Callable[[], object]
    check: Callable[[object], bool]


class Library:
    """The package under test, plus conversions between its values and ours."""

    def __init__(self, package):
        self.pkg = package

    def tree(self, t):
        word = self.pkg.words.Word.from_str
        leaf, sigma = self.pkg.tmagma.Leaf, self.pkg.tmagma.sigma
        return R.rebuild(t, lambda w: leaf(word(R.word_text(w))), sigma)

    def elem(self, t):
        return self.pkg.ucp.reduce(self.tree(t))

    def words(self, family):
        return [self.pkg.words.Word.from_str(R.word_text(w)) for w in family]

    def text(self, elem) -> str:
        return self.pkg.cli.render_sexpr(elem.tree)

    def ours(self, elem):
        """Our tree for a library element, read from its rendered text."""
        return R.parse(self.text(elem))

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# invert-families

def chain_colors(k: int) -> list[str]:
    """p2, p2p1, ..., p2p1^(k-1), p1^k: a maximal suffix code."""
    return ["2" + "1" * j for j in range(k)] + ["1" * k]


def comb_colors(rng, k: int) -> list[str]:
    """Leaf colors of a comb of depth k whose spine turns at random.

    k + 1 words, a maximal suffix code: a unit's color family.  A spine
    that always takes p1 gives chain_colors(k).
    """
    spine, out = "", []
    for _ in range(k):
        step = rng.choice("12")
        out.append(("2" if step == "1" else "1") + spine)
        spine = step + spine
    return out + [spine]


def chain(rng, k: int):
    """A reduced unit whose leaf colors are chain_colors(k), in random places."""
    while True:
        colors = chain_colors(k)
        rng.shuffle(colors)
        t = R.fill(R.random_shape(rng, k + 1), colors)
        if R.reduce(t) == t:
            return t


def perm_unit(rng, d: int):
    """(shape, permutation) for a random shape with d leaves."""
    shape = rng.choice(R.all_shapes(d))
    g = list(range(d))
    rng.shuffle(g)
    return shape, tuple(g)


def _inverse_check(lib: Library, a, side: str):
    """Check that a returned element is a left/right/two-sided inverse of a."""

    def check(result) -> bool:
        if result is None:
            return False
        x = lib.ours(result)
        if R.reduce(x) != x:
            return False
        ok = True
        if side in ("left", "unit"):
            ok = ok and R.mul_reduced(x, a) == ""
        if side in ("right", "unit"):
            ok = ok and R.mul_reduced(a, x) == ""
        return ok

    return check


def _element_ops(lib: Library, rng, a, verdict, order=None) -> list[Op]:
    """Every invert-families operation on the element a.

    verdict = (left invertible, right invertible), known by construction.
    order is the multiplicative order when a is a permutation image.
    """
    left, right = verdict
    unit = left and right
    elem = lib.elem(a)
    colors = [c for _, c in R.leaf_listing(a)]
    family = lib.words(colors)
    size = R.degree(a)
    inv = lib.pkg.invert
    ops = [
        Op("is_unit", size, a, lambda: inv.is_unit(elem), lambda r: r is unit),
        Op("has_left_inverse", size, a, lambda: inv.has_left_inverse(elem), lambda r: r is left),
        Op("has_right_inverse", size, a, lambda: inv.has_right_inverse(elem), lambda r: r is right),
        Op(
            "family_classify", size, tuple(colors),
            lambda: lib.pkg.words.family_classify(family),
            lambda r: (r.cofinite, r.independent, r.minimally_cofinite, r.maximally_independent)
            == (left, right, unit, unit),
        ),
        Op(
            "left_inverse", size, a, lambda: inv.left_inverse(elem),
            _inverse_check(lib, a, "left") if left else (lambda r: r is None),
        ),
        Op(
            "right_inverse", size, a, lambda: inv.right_inverse(elem),
            _inverse_check(lib, a, "right") if right else (lambda r: r is None),
        ),
    ]
    if unit:
        ops.append(Op("unit_inverse", size, a, lambda: inv.unit_inverse(elem), _inverse_check(lib, a, "unit")))
    if order is not None:
        bound = order if order == 1 or rng.random() < 0.5 else order - 1
        expected = order if bound >= order else None
        ops.append(Op("unit_order", size, (a, bound), lambda: inv.unit_order(elem, bound),
                      lambda r: r == expected))
    return ops


def invert_pass(lib: Library, rng, ctx) -> list[Op]:
    """Decisions and inverses on units, products of units and one-sided elements.

    Per pass: chain(k) for k = 4..13; 40 permutation images, 8 for each
    shape size 1..5; 20 products of two images on one shape; 10 products
    of a chain(k <= 8) and an image; 15 elements a·w (right invertible
    only) and 15 elements S(a, a) (left invertible only).  Each slot fixes
    the size of the image it reuses and picks one of that size at random:
    costs grow steeply with size, so a random size would move the
    percentiles from pass to pass.

    Then 60 family_classify calls on comb families of depth 8, in random
    order.  Each costs one 2^8-word cofiniteness check per member, which
    puts the block at the 90th percentile rank: p90 then reads the cost of
    that family analysis instead of a point on a steep slope of the
    latency distribution, where the mix's random instances move it.
    """
    ops: list[Op] = []
    for k in range(4, 14):
        ops += _element_ops(lib, rng, chain(rng, k), (True, True))
    images = []  # images[j] has 1 + j % 5 leaves

    def image(d: int):
        return images[5 * rng.randrange(len(images) // 5) + d - 1]

    for i in range(40):
        shape, g = perm_unit(rng, 1 + i % 5)
        images.append(R.reduce(R.perm_tree(shape, g)))
        ops += _element_ops(lib, rng, images[-1], (True, True), R.perm_order(g))
    for i in range(20):
        shape, g = perm_unit(rng, 2 + i % 4)
        h = list(range(len(g)))
        rng.shuffle(h)
        a = R.mul_reduced(R.reduce(R.perm_tree(shape, g)), R.reduce(R.perm_tree(shape, h)))
        order = R.perm_order(tuple(g[v] for v in h))
        ops += _element_ops(lib, rng, a, (True, True), order)
    for i in range(10):
        c, u = chain(rng, 4 + i % 5), image(1 + i // 2)
        a = R.mul_reduced(c, u) if i % 2 else R.mul_reduced(u, c)
        ops += _element_ops(lib, rng, a, (True, True))
    for i in range(15):
        a = chain(rng, 4 + i % 4) if i % 3 == 0 else image(1 + i % 5)
        w = "".join(rng.choice("12") for _ in range(1 + i % 3))
        ops += _element_ops(lib, rng, R.mul_reduced(a, w), (False, True))
    for i in range(15):
        a = chain(rng, 4 + i % 6) if i % 3 == 0 else image(1 + i % 5)
        ops += _element_ops(lib, rng, R.reduce((a, a)), (True, False))
    for _ in range(60):
        colors = comb_colors(rng, 8)
        rng.shuffle(colors)
        family = lib.words(colors)
        ops.append(Op(
            "family_classify", len(colors), tuple(colors),
            lambda family=family: lib.pkg.words.family_classify(family),
            lambda r: (r.cofinite, r.independent, r.minimally_cofinite, r.maximally_independent)
            == (True, True, True, True),
        ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# embed-tables

def cyclic(n: int):
    return [f"c{i}" for i in range(n)], 0, [[(i + j) % n for j in range(n)] for i in range(n)]


def cyclic_product(a: int, b: int):
    elems = [(i, j) for i in range(a) for j in range(b)]
    index = {e: k for k, e in enumerate(elems)}
    table = [[index[((x[0] + y[0]) % a, (x[1] + y[1]) % b)] for y in elems] for x in elems]
    return [f"z{i}_{j}" for i, j in elems], 0, table


def _maps_monoid(maps: list[tuple[int, ...]], prefix: str):
    """Self-maps of {0..d-1} under composition: (f·g)(x) = g(f(x))."""
    index = {f: k for k, f in enumerate(maps)}
    table = [[index[tuple(g[v] for v in f)] for g in maps] for f in maps]
    ident = index[tuple(range(len(maps[0])))]
    return [f"{prefix}{k}" for k in range(len(maps))], ident, table


def symmetric(d: int):
    from itertools import permutations

    return _maps_monoid(list(permutations(range(d))), "s")


def full_transformations(d: int):
    from itertools import product

    return _maps_monoid(list(product(range(d), repeat=d)), "t")


def monogenic(index: int, period: int):
    """1, a, ..., a^(index+period-1) with a^(index+period) = a^index."""
    n = index + period

    def norm(k: int) -> int:
        return k if k < n else index + (k - index) % period

    return [f"a{k}" for k in range(n)], 0, [[norm(i + j) for j in range(n)] for i in range(n)]


def fixture_table(path: Path):
    data = json.loads(path.read_text(encoding="utf-8"))
    labels = data["elements"]
    index = {x: i for i, x in enumerate(labels)}
    return labels, index[data["identity"]], [[index[x] for x in row] for row in data["table"]]


def embed_tables(ctx) -> list[tuple]:
    """C_2..C_28, nine Z_a x Z_b, S_3, S_4, T_2, T_3, twelve monogenic, the fixtures.

    Cost grows like n^3.3, so neighbouring sizes differ by 10-40%.  Seven
    tables of size 9 and five of size 24 sit at the 50th and 90th
    percentile ranks, so those latencies do not jump between sizes.
    """
    tables = [cyclic(n) for n in range(2, 29)]
    tables += [cyclic_product(a, b) for a, b in
               ((2, 2), (2, 3), (3, 3), (2, 4), (2, 6), (4, 4), (3, 5), (4, 6), (2, 12))]
    tables += [symmetric(3), symmetric(4), full_transformations(2), full_transformations(3)]
    tables += [monogenic(i, p) for i, p in ((1, 1), (1, 3), (2, 4), (3, 5), (5, 7), (8, 8), (10, 14))]
    tables += [monogenic(i, 9 - i) for i in (1, 2, 3, 5, 7)]
    tables += [fixture_table(path) for path in ctx.fixtures]
    return tables


def relabel(rng, labels, identity, table):
    """The same monoid with its elements listed in a random order."""
    n = len(labels)
    new = list(range(n))
    rng.shuffle(new)  # element i gets index new[i]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[new[i]][new[j]] = new[table[i][j]]
    names = [""] * n
    for i in range(n):
        names[new[i]] = labels[i]
    return names, new[identity], out


def sample_pairs(rng, n: int, k: int = 24) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return pairs if len(pairs) <= k else rng.sample(pairs, k)


def _embedding_check(lib: Library, labels, identity, table, pairs):
    def check(images) -> bool:
        texts = {label: lib.text(images[label]) for label in images}
        return R.check_embedding(texts, labels, identity, table, pairs)

    return check


def embed_pass(lib: Library, rng, ctx) -> list[Op]:
    """``embed_finite_monoid`` once on every table, each relabeled at random."""
    ops = []
    for labels, identity, table in embed_tables(ctx):
        labels, identity, table = relabel(rng, labels, identity, table)
        spec = (tuple(labels), identity, tuple(tuple(r) for r in table))
        m = lib.pkg.dcp.FiniteMonoid(*spec)
        pairs = sample_pairs(rng, len(labels))
        ops.append(Op(
            "embed", len(labels), spec, lambda m=m: lib.pkg.dcp.embed_finite_monoid(m),
            _embedding_check(lib, labels, identity, table, pairs),
        ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-session

SHALLOW_LIMIT = 200  # nesting of every input outside the deep share


def ladder(lo: int, hi: int, n: int) -> list[int]:
    """n sizes from lo to hi, evenly spaced on a log scale."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def expanded(rng, size: int):
    """(reduced tree, expansion of it with `size` leaves)."""
    base = R.random_reduced_tree(rng, max(2, size // 3))
    tree = R.expand(base, size - R.degree(base), rng)
    if R.nesting(tree) > SHALLOW_LIMIT:
        raise AssertionError("an expanded input nests deeper than the shallow limit")
    return base, tree


def deep_tree(rng, depth: int):
    """A spine of `depth` nested pairings with a short word beside each."""
    t = R.random_word(rng, 2)
    for _ in range(depth):
        side = R.random_word(rng, 2)
        t = (t, side) if rng.random() < 0.5 else (side, t)
    return t


def _cli_op(lib: Library, kind: str, size: int, argv: list[str], expected: str | Callable) -> Op:
    if callable(expected):
        check = lambda r: r[0] == 0 and expected(r[1])
    else:
        check = lambda r: r == (0, expected)
    return Op(kind, size, tuple(argv), lambda: lib.cli(argv), check)


def _embed_output_check(labels, identity, table, pairs):
    def check(out: str) -> bool:
        images = {}
        for line in out.splitlines():
            label, sep, tree = line.partition(" -> ")
            if not sep:
                return False
            images[label] = tree
        return R.check_embedding(images, labels, identity, table, pairs)

    return check


def cli_pass(lib: Library, rng, ctx) -> list[Op]:
    """One session of CLI commands, parse -> eval -> render, in process.

    Per pass: 24 reduce and 12 equiv on expansions of degree 50..1500,
    12 beta on expansions of degree 50..600, 24 eval (U)^n (a third of
    them with --in T, without reduction), 12 order,
    12 inv --side unit, 6 embed of a fixture, 1 gen-units --depth 5, and
    the deep share: 2 reduce and 2 eval of inputs nested 400..3000 deep.
    """
    ops: list[Op] = []
    for size in ladder(50, 1500, 24):
        base, tree = expanded(rng, size)
        ops.append(_cli_op(lib, "reduce", size, ["reduce", R.render(tree)], R.render(base) + "\n"))
    for i, size in enumerate(ladder(50, 1500, 12)):
        base, tree = expanded(rng, size)
        other = base
        if i % 2:  # one leaf color changed: usually another element
            colors = [c for _, c in R.leaf_listing(base)]
            colors[rng.randrange(len(colors))] += "1"
            other = R.fill(base, colors)
        other = R.expand(other, size - R.degree(other), rng)
        same = R.reduce(other) == base
        ops.append(_cli_op(lib, "equiv", 2 * size, ["equiv", R.render(tree), R.render(other)],
                           "true\n" if same else "false\n"))
    for size in ladder(50, 600, 12):
        _, tree = expanded(rng, size)
        ops.append(_cli_op(lib, "beta", size, ["beta", R.render(tree)], R.beta_text(tree) + "\n"))
    for i in range(24):
        shape, g = perm_unit(rng, 2 + i % 4)
        n = 1 + i % 16
        u = R.perm_tree(shape, g)
        argv = ["eval", f"({R.render(u)})^{n}"]
        if i % 3 == 2:  # in the tree monoid: tmagma.power, no reduction
            argv += ["--in", "T"]
            expected = R.render(R.power_tree(u, n))
        else:
            expected = R.render(R.reduce(R.perm_tree(shape, R.perm_power(g, n))))
        ops.append(_cli_op(lib, "eval_power", n, argv, expected + "\n"))
    for i in range(12):
        shape, g = perm_unit(rng, 2 + i % 4)
        order = R.perm_order(g)
        bound = order if order == 1 or i % 2 else order - 1
        expected = f"{order}\n" if bound >= order else f"order exceeds {bound}\n"
        ops.append(_cli_op(lib, "order", order, ["order", R.render(R.perm_tree(shape, g)), "--max", str(bound)],
                           expected))
    for i in range(12):
        shape, g = perm_unit(rng, 2 + i % 4)
        expected = R.render(R.reduce(R.perm_tree(shape, R.perm_inverse(g))))
        ops.append(_cli_op(lib, "inv", len(g), ["inv", R.render(R.perm_tree(shape, g)), "--side", "unit"],
                           expected + "\n"))
    for _ in range(6):
        path = rng.choice(ctx.fixtures)
        labels, identity, table = fixture_table(path)
        check = _embed_output_check(labels, identity, table, sample_pairs(rng, len(labels)))
        ops.append(_cli_op(lib, "embed", len(labels), ["embed", str(path)], check))
    ops.append(_cli_op(lib, "gen_units", 5, ["gen-units", "--depth", "5"], ctx.gen_units))
    for i, (lo, hi) in enumerate(((400, 1050), (1050, 1700), (1700, 2350), (2350, 3000))):
        depth = rng.randint(lo, hi)
        tree = deep_tree(rng, depth)
        command = "reduce" if i % 2 else "eval"
        ops.append(_cli_op(lib, "deep_" + command, depth, [command, R.render(tree)],
                           R.render(R.reduce(tree)) + "\n"))
    rng.shuffle(ops)
    return ops


@dataclass
class Context:
    """Inputs shared by every pass of a workload."""

    fixtures: list[Path]
    gen_units: str = ""


def context(root: Path, workload: str) -> Context:
    fixtures = sorted((root / "tests" / "fixtures").glob("*.json"))
    if not fixtures:
        raise FileNotFoundError(f"no monoid tables under {root / 'tests' / 'fixtures'}")
    ctx = Context(fixtures)
    if workload == "cli-session":
        ctx.gen_units = R.gen_units_text(5, 16)
    return ctx


WORKLOADS = {
    "invert-families": invert_pass,
    "embed-tables": embed_pass,
    "cli-session": cli_pass,
}
