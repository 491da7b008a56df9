"""Invertibility in the quotient monoid.

An element has a left inverse exactly when its family of leaf colors is
left cofinite, and a right inverse exactly when the family is left
independent; both verdicts are independent of the chosen representative.
Units are the elements whose color family satisfies both conditions at
once.  Every verdict and every inverse is read off the suffix trie of the
leaf colors, so no word is enumerated, and an inverse has the size of the
trie rather than 2^d for the longest color length d.  Every pair (f, g)
with f·g = 1 transports the pairing structure to a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .words import (
    P1,
    P2,
    Word,
    _covering_depth,
    _suffix_trie,
    family_left_dependent,
)
from .tmagma import (
    LEFT,
    ONE_T,
    Leaf,
    LeafEntry,
    Node,
    RIGHT,
    Tree,
    leaf_colors,
    leaf_listing,
)
from .ucp import ONE_U, UElem, from_word, mul_U, reduce, sigma_U


def has_left_inverse(b: UElem) -> bool:
    return _covering_depth(leaf_colors(b.tree)) is not None


def has_right_inverse(a: UElem) -> bool:
    return not family_left_dependent(leaf_colors(a.tree))


def _inverse_tree(entries: list[LeafEntry], depth: int) -> Tree:
    """The inverse tree grown along the suffix trie of the leaf colors.

    Keeps each distinct color c of length <= depth with the path word z of
    its leftmost leaf.  The vertex at path word u is internal iff u is a
    proper suffix of a kept color, that is, a trie vertex with a child;
    otherwise it is a leaf colored x·z for the longest kept color c with
    u = x·c, or 1 when no kept color ends u.  Expanding every leaf to the
    given depth yields the complete tree whose leaf at path v = y·c (c
    longest) is colored y·z, so both reduce to the same element, but this
    tree has one vertex per trie node, not 2^depth leaves.  Built in
    post-order with an explicit stack; each frame carries the deepest kept
    color met on the way down.
    """
    kept = [e for e in entries if len(e.color) <= depth]
    kids, first = _suffix_trie([e.color.syms for e in kept])
    out: list[Tree] = []
    steps: list[int] = []  # from the root to the position being built
    # A frame is (trie vertex or -1 off the trie, its length, its last step,
    # the index of the deepest kept color on the way down or -1); None joins
    # the last two finished subtrees.
    todo: list = [(0, 0, 0, first[0])]
    while todo:
        frame = todo.pop()
        if frame is None:
            right = out.pop()
            out[-1] = Node(out[-1], right)
            continue
        v, n, step, best = frame
        if n:
            del steps[n - 1:]
            steps.append(step)
        if v >= 0 and (kids[2 * v] or kids[2 * v + 1]):
            todo.append(None)
            for step, child in (RIGHT, kids[2 * v + 1]), (LEFT, kids[2 * v]):
                deepest = first[child] if child and first[child] >= 0 else best
                todo.append((child or -1, n + 1, step, deepest))
        elif best < 0:
            out.append(ONE_T)
        else:  # x is the steps taken below the kept color, read back up
            e = kept[best]
            out.append(Leaf(Word(tuple(steps[len(e.color):][::-1]) + e.path.syms)))
    return out[0]


def left_inverse(b: UElem) -> UElem | None:
    """Construct some A with A·b = 1, or None when no left inverse exists.

    Uses the covering depth d, the smallest at which every length-d word
    has a leaf color of b as suffix, read off the colors' suffix trie.  The
    leaf of A at path v = y·x (x a leaf color, chosen longest, ties to the
    leftmost leaf) is colored y·z, where z is the path word of that leaf in
    b; acting by y·z on b then reproduces exactly v at that position of the
    product.  A is built as the color trie cut at depth d, which reduces to
    the same element as the complete depth-d tree.
    """
    entries = leaf_listing(b.tree)
    d = _covering_depth([e.color for e in entries])
    if d is None:
        return None
    return reduce(_inverse_tree(entries, d))


def right_inverse(a: UElem) -> UElem | None:
    """Construct some B with a·B = 1, or None when no right inverse exists.

    Left independent colors are pairwise suffix-free, so B is their trie:
    its leaf at path c carries the path word of a's leaf colored c, and a
    branch no color reaches is one identity leaf.  B is a right inverse,
    not necessarily one of least degree.
    """
    entries = leaf_listing(a.tree)
    if family_left_dependent([e.color for e in entries]):
        return None
    return reduce(_inverse_tree(entries, max(len(e.color) for e in entries)))


def is_unit(a: UElem) -> bool:
    """Whether a is two-sided invertible: colors cofinite and independent.

    Both halves are read off the suffix trie of the leaf colors, as the
    inverse builder reads them; no word is enumerated.
    """
    colors = leaf_colors(a.tree)
    return not family_left_dependent(colors) and _covering_depth(colors) is not None


def unit_inverse(a: UElem) -> UElem:
    """The two-sided inverse of a unit: the trie of all its colors.

    A unit's colors are left independent, so this is right_inverse's B; as
    a·B = 1 and a has a left inverse A, A = A·a·B = B, so B·a = 1 too.
    """
    if not is_unit(a):
        raise ValueError(
            "not a unit: leaf colors must be left cofinite and left independent"
        )
    return right_inverse(a)


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
