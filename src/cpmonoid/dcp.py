"""d-fold product structures built from tree shapes, and finite-monoid embeddings.

A shape is a tree whose leaf colors are ignored.  A shape with d leaves
induces a d-fold product structure on the quotient monoid: the i-th
distinguished element is the path word of the i-th leaf, and the d-ary
pairing nests the binary pairing along the shape.  Shapes can be grafted
into one another to combine structures.  Substituting distinguished
elements along a self-map of {1..d} gives an injective antihomomorphism
from the full transformation monoid, which restricts (via inversion) to an
injective homomorphism on permutations; chaining it with the right regular
antirepresentation embeds any finite monoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .words import Word
from .tmagma import Leaf, Node, ONE_T, Tree, degree, leaf_listing
from .ucp import UElem, from_word, mul_U, ONE_U, reduce

def left_comb(d: int) -> Tree:
    """The shape nesting to the left: comb(d) = (comb(d-1), leaf)."""
    if d < 1:
        raise ValueError("a shape needs at least one leaf")
    shape: Tree = ONE_T
    for _ in range(d - 1):
        shape = Node(shape, ONE_T)
    return shape


def _balanced_shape(d: int) -> Tree:
    """ceil(d/2) leaves on the left and floor(d/2) on the right, at every node.

    Its depth is ceil(log2 d), and for d <= 3 it is the left comb.
    """
    if d == 1:
        return ONE_T
    return Node(_balanced_shape((d + 1) // 2), _balanced_shape(d // 2))


def all_shapes(d: int) -> Iterator[Tree]:
    """All shapes with exactly d leaves, left split sizes ascending."""
    if d < 1:
        raise ValueError("a shape needs at least one leaf")
    if d == 1:
        yield ONE_T
        return
    for k in range(1, d):
        for left in all_shapes(k):
            for right in all_shapes(d - k):
                yield Node(left, right)


def shape_taus(s: Tree) -> list[Word]:
    """Distinguished elements: the path words of the leaves, left to right."""
    return [entry.path for entry in leaf_listing(s)]


def _graft(s: Tree, trees: Sequence[Tree], needs: str) -> Tree:
    """Replace the i-th leaf of the shape with the i-th tree."""
    it = iter(trees)

    def build(t: Tree) -> Tree:
        if isinstance(t, Leaf):
            return next(it)
        return Node(build(t.left), build(t.right))

    # A wrong count runs out of trees or leaves some over: no leaf count needed.
    try:
        grafted = build(s)
    except StopIteration:
        grafted = None
    if grafted is None or next(it, None) is not None:
        raise ValueError(f"{needs.format(degree(s))}, got {len(trees)}")
    return grafted


def phi(s: Tree, ms: Sequence[UElem]) -> UElem:
    """The d-ary pairing: nest the binary pairing along the shape.

    Reducing once after grafting equals reducing at every pairing, because
    reduced forms are unique.
    """
    trees = [m.tree for m in ms]
    return reduce(_graft(s, trees, "phi needs {} arguments for this shape"))


def combine(outer: Tree, inners: Sequence[Tree]) -> Tree:
    """Graft the i-th inner shape onto the i-th leaf of the outer shape.

    The combined distinguished elements are the inner path words extended
    by the outer path word of the leaf they were grafted onto.
    """
    return _graft(outer, inners, "combine needs {} inner shapes")


def _check_map(f: Sequence[int], d: int) -> None:
    if len(f) != d or any(not 1 <= v <= d for v in f):
        raise ValueError(f"expected a self-map of {{1..{d}}} as a length-{d} sequence")


def endo_antihom(s: Tree, f: Sequence[int]) -> UElem:
    """Image of a self-map of {1..d}: the pairing of tau_f(1), ..., tau_f(d).

    Injective, sends the identity map to 1, and reverses composition.
    """
    d = degree(s)
    _check_map(f, d)
    taus = shape_taus(s)
    return phi(s, [from_word(taus[v - 1]) for v in f])


def perm_hom(s: Tree, sigma: Sequence[int]) -> UElem:
    """Image of a permutation of {1..d}: the antihomomorphism of its inverse.

    Multiplicative in the permutation, and every image is a unit.
    """
    d = degree(s)
    _check_map(sigma, d)
    if len(set(sigma)) != d:
        raise ValueError("perm_hom requires a bijection")
    inverse = [0] * d
    for i, v in enumerate(sigma):
        inverse[v - 1] = i + 1
    return endo_antihom(s, inverse)


@dataclass(frozen=True, slots=True)
class FiniteMonoid:
    """A finite monoid as a multiplication table over indexed elements."""

    labels: tuple[str, ...]
    identity: int
    table: tuple[tuple[int, ...], ...]  # table[i][j] = index of element_i · element_j

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class TableViolation:
    law: str  # "shape" | "identity" | "associativity"
    indices: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.law} law fails at {self.indices}: {self.detail}"


def _generators(m: FiniteMonoid) -> list[int]:
    """A small generating set: every element is e right-multiplied by generators.

    Candidates are taken by decreasing size of the cyclic submonoid they
    generate (ties by index), each added when not yet reached; then every
    generator whose removal still reaches all elements is dropped.  Only
    table lookups are used, and associativity is not assumed.
    """
    n, table, e = m.n, m.table, m.identity

    def reach(gens: list[int]) -> set[int]:
        reached, frontier = {e}, [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = table[x][g]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return reached

    gens: list[int] = []
    reached = {e}
    # reach([a]) is the cyclic submonoid {e, a, a·a, ...}.
    for a in sorted(range(n), key=lambda a: (-len(reach([a])), a)):
        if a not in reached:
            gens.append(a)
            reached = reach(gens)
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if len(reach(rest)) == n:
            gens = rest
    return gens


def validate_finite_monoid(m: FiniteMonoid) -> TableViolation | None:
    """Check table shape, the identity laws, and associativity.

    Returns the first violation found, or None for a valid monoid.

    Associativity is decided by Light's test on a generating set G: if
    (x·a)·y == x·(a·y) for every a in G and all x, y, the table is
    associative.  (The elements a passing that test contain e by the
    identity laws and are closed under products, and every element is
    ((e·g1)·g2)·...·gk.)  Only when it fails are all n³ triples scanned, so
    the violation returned is always the lexicographically first one.
    """
    return _validate(m)[0]


def _validate(m: FiniteMonoid) -> tuple[TableViolation | None, list[int]]:
    """validate_finite_monoid's answer, and the G of its Light's test ([] if not reached)."""
    n = m.n
    if n < 1:
        return TableViolation("shape", (), "a monoid needs at least one element"), []
    if len(set(m.labels)) != n:
        return TableViolation("shape", (), "labels must be distinct"), []
    if not 0 <= m.identity < n:
        return TableViolation("shape", (m.identity,), "identity index out of range"), []
    if len(m.table) != n or any(len(row) != n for row in m.table):
        return TableViolation("shape", (), f"table must be {n}x{n}"), []
    for i in range(n):
        for j in range(n):
            if not 0 <= m.table[i][j] < n:
                return TableViolation("shape", (i, j), "table entry out of range"), []
    e = m.identity
    for j in range(n):
        if m.table[e][j] != j:
            return TableViolation("identity", (j,), f"e·{m.labels[j]} != {m.labels[j]}"), []
        if m.table[j][e] != j:
            return TableViolation("identity", (j,), f"{m.labels[j]}·e != {m.labels[j]}"), []
    t = m.table
    gens = _generators(m)
    if all(
        t[t[x][a]][y] == t[x][t[a][y]]
        for a in gens
        for x in range(n)
        for y in range(n)
    ):
        return None, gens
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m.table[m.table[i][j]][k] != m.table[i][m.table[j][k]]:
                    return TableViolation(
                        "associativity",
                        (i, j, k),
                        f"({m.labels[i]}·{m.labels[j]})·{m.labels[k]} != "
                        f"{m.labels[i]}·({m.labels[j]}·{m.labels[k]})",
                    ), gens
    return None, gens


def embed_finite_monoid(m: FiniteMonoid) -> dict[str, UElem]:
    """An injective monoid homomorphism from the table into the quotient monoid.

    Each element a acts on indices by right translation x -> x·a, extended
    by the identity on padding positions up to D = max(n, 2); the image of
    a is the antihomomorphism image of that self-map on the balanced shape
    with D leaves (ceil(D/2) on the left and floor(D/2) on the right, at
    every node).  Composing the two antihomomorphisms gives a homomorphism.
    The images have depth at most ceil(log2 D), and for D <= 3 the shape
    is the left comb.

    Before returning, the map phi is verified: phi(e) = 1, the images are
    distinct, and phi(x·g) = phi(x)·phi(g) for every x and every g in a
    generating set G, which is n·|G| products.  That implies
    phi(x·y) = phi(x)·phi(y) for all x, y, by induction on the length of y
    written as ((e·g1)·g2)·...·gk: the case y = e is phi(e) = 1, and if it
    holds for y then phi(x·(y·g)) = phi((x·y)·g) = phi(x·y)·phi(g)
    = phi(x)·phi(y)·phi(g) = phi(x)·phi(y·g).
    """
    violation, gens = _validate(m)
    if violation is not None:
        raise ValueError(f"invalid monoid table: {violation}")
    return _embed(m, gens)


def _embed(m: FiniteMonoid, gens: list[int]) -> dict[str, UElem]:
    """embed_finite_monoid of a table that passed _validate with generating set gens."""
    n = m.n
    shape = _balanced_shape(max(n, 2))
    taus = [from_word(word) for word in shape_taus(shape)]
    # phi of the tau_f(i) is endo_antihom(shape, f), without re-listing the shape per image.
    images = [
        phi(shape, [taus[m.table[x][a]] for x in range(n)] + taus[n:]) for a in range(n)
    ]
    if images[m.identity] != ONE_U:
        raise RuntimeError("embedding verification failed: identity image is not 1")
    for x in range(n):
        for g in gens:
            if mul_U(images[x], images[g]) != images[m.table[x][g]]:
                raise RuntimeError(
                    f"embedding verification failed on "
                    f"{m.labels[x]}·{m.labels[g]}"
                )
    if len(set(images)) != n:
        raise RuntimeError("embedding verification failed: images not distinct")
    return dict(zip(m.labels, images))
