"""Invertibility in the quotient monoid.

An element has a left inverse exactly when its family of leaf colors is
left cofinite, and a right inverse exactly when the family is left
independent; both verdicts are independent of the chosen representative.
The constructions build the inverse as a complete binary tree whose leaf
colors are read off from the element, then reduce it.  Units are the
elements whose color family satisfies both conditions at once, and every
pair (f, g) with f·g = 1 transports the pairing structure to a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .words import (
    G1,
    G2,
    ONE,
    P1,
    P2,
    Word,
    all_words,
    family_classify,
    family_left_cofinite,
    family_left_dependent,
    is_left_multiple,
)
from .tmagma import (
    LEFT,
    Leaf,
    Node,
    RIGHT,
    Tree,
    leaf_colors,
    leaf_listing,
)
from .ucp import ONE_U, UElem, from_word, mul_U, reduce, sigma_U


def has_left_inverse(b: UElem) -> bool:
    return family_left_cofinite(leaf_colors(b.tree))


def has_right_inverse(a: UElem) -> bool:
    return not family_left_dependent(leaf_colors(a.tree))


def _complete_tree(depth, color_at) -> Tree:
    """Complete binary tree of the given depth, coloring leaves by path word."""

    def build(dirs: tuple[int, ...]) -> Tree:
        if len(dirs) == depth:
            return Leaf(color_at(Word(tuple(reversed(dirs)))))
        return Node(build(dirs + (LEFT,)), build(dirs + (RIGHT,)))

    return build(())


def left_inverse(b: UElem) -> UElem | None:
    """Construct some A with A·b = 1, or None when no left inverse exists.

    Uses the smallest depth d at which every length-d word has a leaf color
    of b as suffix, then colors the leaf of a complete depth-d tree at path
    v = y·x (x a leaf color, chosen longest, ties to the leftmost leaf) by
    y·z, where z is the path word of that leaf in b.  Acting by y·z on b
    then reproduces exactly v at that position of the product.
    """
    entries = leaf_listing(b.tree)
    colors = [e.color for e in entries]
    max_len = max(len(c) for c in colors)
    for d in range(max_len + 1):
        if all(
            any(is_left_multiple(v, c) for c in colors) for v in all_words(d)
        ):
            break
    else:
        # Not covered at d = max_len: not left cofinite (see family_left_cofinite).
        return None

    def color_at(v: Word) -> Word:
        best = None
        for e in entries:
            if is_left_multiple(v, e.color):
                if best is None or len(e.color) > len(best.color):
                    best = e
        assert best is not None  # coverage at depth d guarantees a match
        y = Word(v.syms[: len(v.syms) - len(best.color)])
        return y * best.path

    return reduce(_complete_tree(d, color_at))


def _expand_colors_to(t: Tree, length: int) -> Tree:
    # Expansion moves only; every leaf ends up with a color of exactly the
    # target length, so the result represents the same quotient element.
    if isinstance(t, Node):
        return Node(
            _expand_colors_to(t.left, length), _expand_colors_to(t.right, length)
        )
    if len(t.color) == length:
        return t
    w = t.color.syms
    return Node(
        _expand_colors_to(Leaf(Word((G1,) + w)), length),
        _expand_colors_to(Leaf(Word((G2,) + w)), length),
    )


def right_inverse(a: UElem) -> UElem | None:
    """Construct some B with a·B = 1, or None when no right inverse exists.

    Expands a until all leaf colors share the maximal length d (they are
    then pairwise distinct), and builds a complete depth-d tree in which
    the leaf selected by each expanded color carries that leaf's path word
    from the expanded tree; unselected leaves are padded with the identity
    color.  The result is a right inverse, not necessarily one of least
    degree.
    """
    colors = leaf_colors(a.tree)
    if family_left_dependent(colors):
        return None
    d = max(len(c) for c in colors)
    expanded = _expand_colors_to(a.tree, d)
    table = {e.color: e.path for e in leaf_listing(expanded)}
    return reduce(_complete_tree(d, lambda v: table.get(v, ONE)))


def is_unit(a: UElem) -> bool:
    """Whether a is two-sided invertible: colors cofinite and independent."""
    flags = family_classify(leaf_colors(a.tree))
    direct = flags.cofinite and flags.independent
    # The removal-based check is an equivalent characterization; a mismatch
    # would mean a defect in the family analysis, not a property of a.
    if direct != flags.minimally_cofinite or direct != flags.maximally_independent:
        raise RuntimeError(
            f"inconsistent unit characterizations for colors "
            f"{[str(c) for c in leaf_colors(a.tree)]}: {flags}"
        )
    return direct


def unit_inverse(a: UElem) -> UElem:
    """The two-sided inverse of a unit; both products are verified."""
    if not is_unit(a):
        raise ValueError(
            "not a unit: leaf colors must be left cofinite and left independent"
        )
    inv = right_inverse(a)
    if inv is None or mul_U(a, inv) != ONE_U or mul_U(inv, a) != ONE_U:
        raise RuntimeError("unit inverse construction failed verification")
    return inv


def unit_order(a: UElem, bound: int) -> int | None:
    """Smallest n <= bound with a^n = 1, or None when the bound is exceeded.

    None is an honest "no period up to the bound" answer; infinitude of the
    order is not decided here.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if not is_unit(a):
        raise ValueError("unit_order requires a unit")
    p = a
    for n in range(1, bound + 1):
        if p == ONE_U:
            return n
        p = mul_U(p, a)
    return None


@dataclass(frozen=True, slots=True)
class TransportedStructure:
    """The pairing structure induced by a pair (f, g) with f·g = 1.

    kind is "CP" when additionally g·f = 1 (f is a unit), else "CQP".
    The distinguished elements are tau1 = p1·f and tau2 = p2·f; the pairing
    is phi(a, b) = g·sigma(a, b).
    """

    kind: Literal["CQP", "CP"]
    f: UElem
    g: UElem
    tau1: UElem = field(init=False)
    tau2: UElem = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau1", mul_U(from_word(P1), self.f))
        object.__setattr__(self, "tau2", mul_U(from_word(P2), self.f))

    def phi(self, a: UElem, b: UElem) -> UElem:
        return mul_U(self.g, sigma_U(a, b))


def transport(f: UElem, g: UElem) -> TransportedStructure:
    if mul_U(f, g) != ONE_U:
        raise ValueError("transport requires f·g = 1")
    kind: Literal["CQP", "CP"] = "CP" if mul_U(g, f) == ONE_U else "CQP"
    return TransportedStructure(kind=kind, f=f, g=g)


def transport_roundtrip(s: TransportedStructure) -> tuple[UElem, UElem]:
    """Recover the generating pair: (sigma(tau1, tau2), phi(p1, p2))."""
    return sigma_U(s.tau1, s.tau2), s.phi(from_word(P1), from_word(P2))
