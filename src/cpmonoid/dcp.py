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

# A shape is an ordinary tree; these names keep the shape vocabulary.
Shape = Tree
ShapeLeaf = Leaf
ShapeNode = Node
LEAF_SHAPE = ONE_T
leaf_count = degree


def left_comb(d: int) -> Shape:
    """The shape nesting to the left: comb(d) = (comb(d-1), leaf)."""
    if d < 1:
        raise ValueError("a shape needs at least one leaf")
    shape: Shape = LEAF_SHAPE
    for _ in range(d - 1):
        shape = Node(shape, LEAF_SHAPE)
    return shape


def all_shapes(d: int) -> Iterator[Shape]:
    """All shapes with exactly d leaves, left split sizes ascending."""
    if d < 1:
        raise ValueError("a shape needs at least one leaf")
    if d == 1:
        yield LEAF_SHAPE
        return
    for k in range(1, d):
        for left in all_shapes(k):
            for right in all_shapes(d - k):
                yield Node(left, right)


def shape_taus(s: Shape) -> list[Word]:
    """Distinguished elements: the path words of the leaves, left to right."""
    return [entry.path for entry in leaf_listing(s)]


def _graft(s: Shape, trees: Sequence[Tree], needs: str) -> Tree:
    """Replace the i-th leaf of the shape with the i-th tree."""
    d = degree(s)
    if len(trees) != d:
        raise ValueError(f"{needs.format(d)}, got {len(trees)}")
    it = iter(trees)

    def build(t: Tree) -> Tree:
        if isinstance(t, Leaf):
            return next(it)
        return Node(build(t.left), build(t.right))

    return build(s)


def phi(s: Shape, ms: Sequence[UElem]) -> UElem:
    """The d-ary pairing: nest the binary pairing along the shape.

    Reducing once after grafting equals reducing at every pairing, because
    reduced forms are unique.
    """
    trees = [m.tree for m in ms]
    return reduce(_graft(s, trees, "phi needs {} arguments for this shape"))


def combine(outer: Shape, inners: Sequence[Shape]) -> Shape:
    """Graft the i-th inner shape onto the i-th leaf of the outer shape.

    The combined distinguished elements are the inner path words extended
    by the outer path word of the leaf they were grafted onto.
    """
    return _graft(outer, inners, "combine needs {} inner shapes")


def _check_map(f: Sequence[int], d: int) -> None:
    if len(f) != d or any(not 1 <= v <= d for v in f):
        raise ValueError(f"expected a self-map of {{1..{d}}} as a length-{d} sequence")


def endo_antihom(s: Shape, f: Sequence[int]) -> UElem:
    """Image of a self-map of {1..d}: the pairing of tau_f(1), ..., tau_f(d).

    Injective, sends the identity map to 1, and reverses composition.
    """
    d = degree(s)
    _check_map(f, d)
    taus = shape_taus(s)
    return phi(s, [from_word(taus[v - 1]) for v in f])


def perm_hom(s: Shape, sigma: Sequence[int]) -> UElem:
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


def validate_finite_monoid(m: FiniteMonoid) -> TableViolation | None:
    """Check table shape, the identity laws, and associativity.

    Returns the first violation found, or None for a valid monoid.
    """
    n = m.n
    if n < 1:
        return TableViolation("shape", (), "a monoid needs at least one element")
    if len(set(m.labels)) != n:
        return TableViolation("shape", (), "labels must be distinct")
    if not 0 <= m.identity < n:
        return TableViolation("shape", (m.identity,), "identity index out of range")
    if len(m.table) != n or any(len(row) != n for row in m.table):
        return TableViolation("shape", (), f"table must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if not 0 <= m.table[i][j] < n:
                return TableViolation("shape", (i, j), "table entry out of range")
    e = m.identity
    for j in range(n):
        if m.table[e][j] != j:
            return TableViolation("identity", (j,), f"e·{m.labels[j]} != {m.labels[j]}")
        if m.table[j][e] != j:
            return TableViolation("identity", (j,), f"{m.labels[j]}·e != {m.labels[j]}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m.table[m.table[i][j]][k] != m.table[i][m.table[j][k]]:
                    return TableViolation(
                        "associativity",
                        (i, j, k),
                        f"({m.labels[i]}·{m.labels[j]})·{m.labels[k]} != "
                        f"{m.labels[i]}·({m.labels[j]}·{m.labels[k]})",
                    )
    return None


def embed_finite_monoid(m: FiniteMonoid) -> dict[str, UElem]:
    """An injective monoid homomorphism from the table into the quotient monoid.

    Each element a acts on indices by right translation x -> x·a, extended
    by the identity on padding positions up to D = max(n, 2); the image of
    a is the antihomomorphism image of that self-map on the left comb with
    D leaves.  Composing the two antihomomorphisms gives a homomorphism,
    which is verified on all pairs before returning.
    """
    violation = validate_finite_monoid(m)
    if violation is not None:
        raise ValueError(f"invalid monoid table: {violation}")
    n = m.n
    d = max(n, 2)
    shape = left_comb(d)
    images: dict[str, UElem] = {}
    for a in range(n):
        f = [m.table[x][a] + 1 for x in range(n)] + list(range(n + 1, d + 1))
        images[m.labels[a]] = endo_antihom(shape, f)
    if images[m.labels[m.identity]] != ONE_U:
        raise RuntimeError("embedding verification failed: identity image is not 1")
    for i in range(n):
        for j in range(n):
            lhs = mul_U(images[m.labels[i]], images[m.labels[j]])
            if lhs != images[m.labels[m.table[i][j]]]:
                raise RuntimeError(
                    f"embedding verification failed on "
                    f"{m.labels[i]}·{m.labels[j]}"
                )
    if len(set(images.values())) != n:
        raise RuntimeError("embedding verification failed: images not distinct")
    return images
