"""Invertibility in the quotient monoid.

An element has a left inverse exactly when its family of leaf colors is
left cofinite, and a right inverse exactly when the family is left
independent; both verdicts are independent of the chosen representative.
An inverse is read off the suffix trie of the leaf colors, so its size is
that of the trie rather than 2^d for the longest color length d.  Units
are the elements whose color family satisfies both conditions at once,
and every pair (f, g) with f·g = 1 transports the pairing structure to a
new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .words import (
    ONE,
    P1,
    P2,
    Word,
    all_words,
    family_left_cofinite,
    family_left_dependent,
    is_left_multiple,
)
from .tmagma import (
    LEFT,
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
    return family_left_cofinite(leaf_colors(b.tree))


def has_right_inverse(a: UElem) -> bool:
    return not family_left_dependent(leaf_colors(a.tree))


def _inverse_tree(entries: list[LeafEntry], depth: int) -> Tree:
    """The inverse tree grown along the suffix trie of the leaf colors.

    Keeps each distinct color c of length <= depth with the path word z of
    its leftmost leaf.  The vertex at path word u is internal iff u is a
    proper suffix of a kept color; otherwise it is a leaf colored x·z for
    the longest kept color c with u = x·c, or 1 when no kept color ends u.
    Expanding every leaf to the given depth yields the complete tree whose
    leaf at path v = y·c (c longest) is colored y·z, so both reduce to the
    same element, but this tree has one vertex per trie node, not 2^depth
    leaves.
    """
    paths: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e in entries:
        if len(e.color) <= depth:
            paths.setdefault(e.color.syms, e.path.syms)
    inner = {c[k:] for c in paths for k in range(1, len(c) + 1)}

    def build(u: tuple[int, ...]) -> Tree:
        if u in inner:
            return Node(build((LEFT,) + u), build((RIGHT,) + u))
        for k in range(len(u) + 1):  # longest kept suffix first
            z = paths.get(u[k:])
            if z is not None:
                return Leaf(Word(u[:k] + z))
        return Leaf(ONE)

    return build(())


def left_inverse(b: UElem) -> UElem | None:
    """Construct some A with A·b = 1, or None when no left inverse exists.

    Uses the smallest depth d at which every length-d word has a leaf color
    of b as suffix.  The leaf of A at path v = y·x (x a leaf color, chosen
    longest, ties to the leftmost leaf) is colored y·z, where z is the path
    word of that leaf in b; acting by y·z on b then reproduces exactly v at
    that position of the product.  A is built as the color trie cut at
    depth d, which reduces to the same element as the complete depth-d tree.
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

    Left independent colors form a suffix code, and such a code is left
    cofinite exactly when it is complete, that is, when its Kraft sum
    sum 2^(L-|c|) equals 2^L for L the longest color length.  Proof: the
    words of length L that end in a color c are the 2^(L-|c|) words x·c,
    and no word ends in two colors, since one would be a suffix of the
    other.  So the sum counts the length-L words covered by some color,
    each once, and it equals 2^L iff every one is covered, which is left
    cofiniteness by the argument in family_left_cofinite.  Exact integers,
    nothing enumerated.
    """
    colors = leaf_colors(a.tree)
    if family_left_dependent(colors):
        return False
    bound = max(len(c) for c in colors)
    return sum(1 << (bound - len(c)) for c in colors) == 1 << bound


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
