"""Colored binary trees with the word action and leaf-substitution product.

A tree is either a leaf colored by a word, or an ordered pair of trees.
Pairing (``sigma``) and the product (``mul``) make the set of trees the
initial monoid carrying a pairing that satisfies the two projection laws
and right distributivity.  Words act on trees by walking from the root:
each p1 steps to the left child, each p2 to the right, consuming the word
right to left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .words import ONE, Word


@dataclass(frozen=True, slots=True)
class Leaf:
    color: Word


@dataclass(frozen=True, slots=True)
class Node:
    left: "Tree"
    right: "Tree"


Tree = Leaf | Node

ONE_T = Leaf(ONE)

LEFT = 1
RIGHT = 2

# Root-to-leaf sequence of LEFT/RIGHT steps.
LeafAddress = tuple[int, ...]


class LeafEntry(NamedTuple):
    address: LeafAddress
    path: Word  # rightmost symbol is the first step from the root
    color: Word


def sigma(a: Tree, b: Tree) -> Tree:
    return Node(a, b)


def degree(a: Tree) -> int:
    """Number of leaves."""
    n, stack = 0, [a]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            n += 1
        else:
            stack += (t.left, t.right)
    return n


def depth(a: Tree) -> int:
    """Length of the longest root-to-leaf path, walked with an explicit stack."""
    deepest, stack = 0, [(a, 0)]
    while stack:
        t, n = stack.pop()
        if isinstance(t, Leaf):
            deepest = max(deepest, n)
        else:
            stack += ((t.left, n + 1), (t.right, n + 1))
    return deepest


def iter_leaves(a: Tree) -> Iterator[Leaf]:
    """Leaves left to right, walked with an explicit stack."""
    stack = [a]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            yield t
        else:
            stack += (t.right, t.left)


def leaf_colors(a: Tree) -> list[Word]:
    """Leaf colors in left-to-right order, duplicates kept."""
    return [leaf.color for leaf in iter_leaves(a)]


def act(w: Word, a: Tree) -> Tree:
    """Apply the word to the tree, consuming symbols right to left.

    Each symbol steps to a child (p1 left, p2 right).  Exhausting the word
    at a vertex returns the subtree rooted there; reaching a leaf of color
    v with the prefix w1 still unconsumed returns the leaf colored w1·v.
    """
    cur = a
    for i in range(len(w.syms) - 1, -1, -1):
        if isinstance(cur, Leaf):
            return Leaf(Word(w.syms[: i + 1] + cur.color.syms))
        cur = cur.left if w.syms[i] == LEFT else cur.right
    return cur


def mul(a: Tree, b: Tree) -> Tree:
    """Product: replace every leaf of a, colored w, by act(w, b)."""
    if isinstance(a, Leaf):
        return act(a.color, b)
    return Node(mul(a.left, b), mul(a.right, b))


def power(a: Tree, n: int) -> Tree:
    if n < 0:
        raise ValueError("negative tree power")
    result: Tree = ONE_T
    for _ in range(n):
        result = mul(result, a)
    return result


def leaf_listing(a: Tree) -> list[LeafEntry]:
    """Enumerate leaves left to right with address, path word, and color.

    The path word is the unique word whose action selects the leaf: its
    symbols read right to left retrace the root-to-leaf steps.
    """
    out: list[LeafEntry] = []
    stack: list[tuple[Tree, LeafAddress]] = [(a, ())]
    while stack:
        t, dirs = stack.pop()
        if isinstance(t, Leaf):
            out.append(LeafEntry(dirs, Word(dirs[::-1]), t.color))
        else:
            stack += ((t.right, dirs + (RIGHT,)), (t.left, dirs + (LEFT,)))
    return out


def subtree_at(a: Tree, address: LeafAddress) -> Tree:
    cur = a
    for step in address:
        if isinstance(cur, Leaf):
            raise ValueError(f"address {address!r} descends past a leaf")
        cur = cur.left if step == LEFT else cur.right
    return cur


def right_inverse_T(a: Tree) -> Tree | None:
    """A right inverse in the tree monoid, or None.

    Only degree-1 trees have one (the product can never shrink the leaf
    count): a leaf colored by a word of length d is cancelled by the d-th
    power of the pairing of two identity leaves, the complete depth-d tree
    of identity leaves.  Built with both children of each node shared, so
    in d steps rather than 2^d.
    """
    if isinstance(a, Node):
        return None
    inverse: Tree = ONE_T
    for _ in a.color.syms:
        inverse = Node(inverse, inverse)
    return inverse


def left_inverse_T(a: Tree) -> Word | None:
    """The path word of the leftmost identity-colored leaf, or None.

    Acting by that word walks exactly to the leaf and yields the identity;
    trees without an identity-colored leaf have no left inverse.
    """
    for entry in leaf_listing(a):
        if entry.color == ONE:
            return entry.path
    return None
