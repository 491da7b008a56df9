"""The branch semiring and the branch homomorphism on trees.

Non-zero branch elements have a unique form v*w (a starred word times a
plain word); multiplication cancels matching symbols at the junction and
annihilates on a mismatch.  A branch set is a finite set of such terms,
with the absorbing zero left implicit in every set.  ``beta`` sends a tree
to the set of its (path word, leaf color) terms, one per leaf; it is an
injective homomorphism and underlies the recognition test for trees that
reduce to a single leaf.

Starred words are stored in the same reading convention as path words
(rightmost symbol = first step from the root), which absorbs the star
antiautomorphism into the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .words import ONE, P1, P2, Word, is_left_multiple
from .tmagma import Tree, leaf_listing


@dataclass(frozen=True, slots=True)
class BranchTerm:
    starred: Word
    plain: Word

    def __str__(self) -> str:
        return f"{self.starred}*{self.plain}"


@dataclass(frozen=True, slots=True)
class BranchSet:
    """A finite set of branch terms; zero is an implicit member."""

    terms: frozenset[BranchTerm] = frozenset()

    @classmethod
    def of(cls, terms: Iterable[BranchTerm]) -> BranchSet:
        return cls(frozenset(terms))

    def sorted_terms(self) -> list[BranchTerm]:
        """Canonical order: shortlex on the starred word, then the plain word."""
        return sorted(
            self.terms, key=lambda t: (t.starred.sort_key(), t.plain.sort_key())
        )

    def __iter__(self) -> Iterator[BranchTerm]:
        return iter(self.sorted_terms())

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return "{" + ", ".join(str(t) for t in self.sorted_terms()) + "}"


ZERO_S = BranchSet()
IDENTITY_S = BranchSet.of([BranchTerm(ONE, ONE)])


def term_mul(s: BranchTerm, t: BranchTerm) -> BranchTerm | None:
    """Product (v*w)(x*y) of non-zero branch elements; None encodes zero.

    The inner product w·x* cancels the shorter of w, x against the other
    when one is a suffix of the other, and is zero otherwise.
    """
    v, w, x, y = s.starred, s.plain, t.starred, t.plain
    if is_left_multiple(x, w):  # x = x0·w, leaving x0* on the starred side
        x0 = Word(x.syms[: len(x.syms) - len(w.syms)])
        return BranchTerm(x0 * v, y)
    if is_left_multiple(w, x):  # w = w0·x, leaving w0 on the plain side
        w0 = Word(w.syms[: len(w.syms) - len(x.syms)])
        return BranchTerm(v, w0 * y)
    return None


def set_mul(x: BranchSet, y: BranchSet) -> BranchSet:
    """All non-zero pairwise term products; zero absorbs silently."""
    out = set()
    for s in x.terms:
        for t in y.terms:
            p = term_mul(s, t)
            if p is not None:
                out.add(p)
    return BranchSet.of(out)


def set_union(x: BranchSet, y: BranchSet) -> BranchSet:
    return BranchSet(x.terms | y.terms)


def sigma_S(x: BranchSet, y: BranchSet) -> BranchSet:
    """Pairing on branch sets: p1*·x united with p2*·y.

    Left multiplication by a starred generator appends that generator to
    the starred word under the path-word storage convention.
    """
    left = (BranchTerm(t.starred * P1, t.plain) for t in x.terms)
    right = (BranchTerm(t.starred * P2, t.plain) for t in y.terms)
    return BranchSet(frozenset(left) | frozenset(right))


def beta(a: Tree) -> BranchSet:
    """The branch image of a tree: one (path word, color) term per leaf."""
    return BranchSet.of(
        BranchTerm(entry.path, entry.color) for entry in leaf_listing(a)
    )


def recognize_word(x: BranchSet) -> Word | None:
    """Recover w when every term has the shape v*(v·w) for one common w.

    For x = beta(a) this succeeds exactly when a is equivalent to the
    single leaf colored w under the expansion/retraction moves.
    """
    common: Word | None = None
    for t in x.terms:
        p, c = t.starred.syms, t.plain.syms
        if len(c) < len(p) or c[: len(p)] != p:
            return None
        rest = Word(c[len(p):])
        if common is None:
            common = rest
        elif common != rest:
            return None
    return common
