"""The quotient monoid with unique reduced tree representatives.

Two trees are equivalent when one can be turned into the other by a chain
of moves: expanding a leaf colored w into the pair (p1·w, p2·w), or the
inverse retraction.  Every equivalence class contains a unique reduced
tree (no retractable leaf pair), reachable by retractions alone in any
order, so reduced trees are canonical forms.  ``UElem`` wraps a reduced
tree; it can only be built through ``reduce``, keeping the invariant in
the type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import G1, G2, Word
from .tmagma import (
    LEFT,
    Leaf,
    LeafAddress,
    Node,
    ONE_T,
    Tree,
    degree,
    mul,
    sigma,
)


def _retracted(left: Tree, right: Tree) -> Word | None:
    """The retraction color when (left, right) is a retractable leaf pair."""
    if isinstance(left, Leaf) and isinstance(right, Leaf):
        l, r = left.color.syms, right.color.syms
        if l and r and l[0] == G1 and r[0] == G2 and l[1:] == r[1:]:
            return Word(l[1:])
    return None


def is_reduced(a: Tree) -> bool:
    stack = [a]
    while stack:
        t = stack.pop()
        if isinstance(t, Node):
            if _retracted(t.left, t.right) is not None:
                return False
            stack += (t.left, t.right)
    return True


@dataclass(frozen=True, slots=True)
class UElem:
    """An element of the quotient monoid, held as its reduced tree."""

    tree: Tree

    def __post_init__(self) -> None:
        if not is_reduced(self.tree):
            raise ValueError("tree is not reduced; construct UElem via reduce()")

    @property
    def degree(self) -> int:
        return degree(self.tree)

    def __mul__(self, other: UElem) -> UElem:
        return mul_U(self, other)


def _trusted(tree: Tree) -> UElem:
    """A UElem for a tree already known to be reduced, without the re-walk."""
    u = object.__new__(UElem)
    object.__setattr__(u, "tree", tree)
    return u


ONE_U = UElem(ONE_T)


def from_word(w: Word) -> UElem:
    return UElem(Leaf(w))


def expand(a: Tree, at: LeafAddress) -> Tree:
    """Replace the leaf at the address, colored w, by the pair (p1·w, p2·w)."""
    if not at:
        if not isinstance(a, Leaf):
            raise ValueError("expansion address must land on a leaf")
        w = a.color.syms
        return Node(Leaf(Word((G1,) + w)), Leaf(Word((G2,) + w)))
    if isinstance(a, Leaf):
        raise ValueError("expansion address descends past a leaf")
    if at[0] == LEFT:
        return Node(expand(a.left, at[1:]), a.right)
    return Node(a.left, expand(a.right, at[1:]))


def _reduce_tree(t: Tree) -> Tree:
    # Post-order: reduce both children, then retract here if possible.
    # A retraction can only enable further retractions at ancestors, so a
    # single bottom-up pass reaches the normal form.
    stack: list = [t]
    out: list[Tree] = []
    while stack:
        x = stack.pop()
        if x is None:  # the top two outputs are the children of one node
            right = out.pop()
            left = out[-1]
            w = _retracted(left, right)
            out[-1] = Leaf(w) if w is not None else Node(left, right)
        elif isinstance(x, Leaf):
            out.append(x)
        else:
            stack += (None, x.right, x.left)
    return out[0]


def reduce(a: Tree) -> UElem:
    """The unique reduced tree equivalent to the input."""
    return _trusted(_reduce_tree(a))


def mul_U(a: UElem, b: UElem) -> UElem:
    return reduce(mul(a.tree, b.tree))


def sigma_U(a: UElem, b: UElem) -> UElem:
    # Both operands are reduced, so only the new root can retract.
    w = _retracted(a.tree, b.tree)
    return _trusted(Leaf(w) if w is not None else sigma(a.tree, b.tree))


def power_U(a: UElem, n: int) -> UElem:
    if n < 0:
        raise ValueError("negative power")
    result = ONE_U
    for _ in range(n):
        result = mul_U(result, a)
    return result


def equivalent(a: Tree, b: Tree) -> bool:
    """Whether the two trees represent the same quotient element."""
    return reduce(a) == reduce(b)
