"""The free monoid on the two projection generators p1 and p2.

Words are finite sequences over the generators; the empty word is the
two-sided identity, written ``1`` in text form.  The module also provides
the suffix-based analysis of finite word families (left cofinite, left
dependent/independent, and the minimal/maximal refinements) on which all
invertibility decisions downstream depend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

G1 = 1
G2 = 2

# The text form of a non-identity word; the CLI tokenizer embeds it too.
WORD_PATTERN = "(?:p[12])+"
_WORD_PREFIX = re.compile(f"(?:{WORD_PATTERN})?")
_SYMBOLS = frozenset((G1, G2))
# A symbol's text, looked up by hash: True and 1.0 equal G1 and print as p1.
_SYMBOL_TEXT = {G1: "p1", G2: "p2"}.__getitem__


@dataclass(frozen=True, slots=True)
class Word:
    """A word over the generators; ``Word(())`` is the identity."""

    syms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # A symbol the C-speed set test accepts equals G1 or G2; the rest, and
        # anything not a tuple (an iterator would be used up), get the exact check.
        try:
            if type(self.syms) is tuple and _SYMBOLS.issuperset(self.syms):
                return
        except TypeError:
            pass
        if any(s not in (G1, G2) for s in self.syms):
            raise ValueError(f"word symbols must be {G1} or {G2}: {self.syms!r}")

    def __mul__(self, other: Word) -> Word:
        return Word(self.syms + other.syms)

    def __pow__(self, n: int) -> Word:
        if n < 0:
            raise ValueError("negative word power")
        return Word(self.syms * n)

    def __len__(self) -> int:
        return len(self.syms)

    def __str__(self) -> str:
        if not self.syms:
            return "1"
        return "".join(map(_SYMBOL_TEXT, self.syms))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    @classmethod
    def from_str(cls, text: str) -> Word:
        """Parse the textual syntax: "1", or a run of "p1"/"p2" tokens."""
        if text == "1":
            return ONE
        valid = _WORD_PREFIX.match(text).end()
        if valid < len(text):
            raise ValueError(f"bad word syntax at offset {valid}: {text!r}")
        if not text:
            raise ValueError("empty word text; use '1' for the identity")
        return cls(tuple(map(int, text[1::2])))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Shortlex key: shorter words first, then by symbols with p1 < p2."""
        return (len(self.syms), self.syms)


ONE = Word()
P1 = Word((G1,))
P2 = Word((G2,))


def is_left_multiple(y: Word, w: Word) -> bool:
    """True iff y = x·w for some word x, i.e. w is a suffix of y."""
    n = len(w.syms)
    if n > len(y.syms):
        return False
    return y.syms[len(y.syms) - n:] == w.syms


def all_words(length: int) -> Iterator[Word]:
    """All words of exactly the given length, in lexicographic order."""
    for syms in product((G1, G2), repeat=length):
        yield Word(syms)


def words_up_to(length: int) -> Iterator[Word]:
    """All words of length at most the bound, shortest first."""
    for n in range(length + 1):
        yield from all_words(n)


def family_left_cofinite(family: Sequence[Word]) -> bool:
    """Decide whether all but finitely many words are left multiples of members.

    Decided by a finite check at L = the maximum member length: a word of
    length >= L that has no member as suffix keeps that property under every
    left extension, so covering all 2^L words of length L is necessary and
    sufficient.  The empty family is not cofinite (the monoid is infinite).
    """
    members = tuple(family)
    if not members:
        return False
    bound = max(len(w) for w in members)
    return all(
        any(is_left_multiple(y, w) for w in members) for y in all_words(bound)
    )


def _suffix_trie(colors: Sequence[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """The trie of the colors' suffixes, each color inserted right to left.

    Vertex 0 is the root, the empty word; every other vertex is one distinct
    suffix u of some color, and its children are p1·u and p2·u when those are
    suffixes too.  So the trie has at most 1 + sum |c| vertices and is built
    in that many steps.  Returns (kids, first): kids[2v] and kids[2v + 1] are
    the p1 and p2 children of v, 0 when absent (the root is nobody's child);
    first[v] is the index of the first color equal to v, or -1.
    """
    kids, first = [0, 0], [-1]
    for i, c in enumerate(colors):
        v = 0
        for s in reversed(c):
            k = 2 * v + (s != G1)
            v = kids[k]
            if not v:
                v = kids[k] = len(first)
                kids += (0, 0)
                first.append(-1)
        if first[v] < 0:
            first[v] = i
    return kids, first


def family_left_dependent(family: Sequence[Word]) -> bool:
    """True iff some member is a left multiple of another member.

    Indices matter: a repeated word makes the family dependent.  Read off
    the suffix trie of the members: c_i = x·c_j with i != j either has
    x = 1, so two members end at the same vertex, or x != 1, so c_j is a
    proper suffix of c_i and the vertex of c_j has a child.  The identity
    member is the root, which has a child whenever another member is
    non-empty, so the identity color is a suffix of everything.
    """
    syms = [w.syms for w in family]
    kids, first = _suffix_trie(syms)
    ends = [v for v, i in enumerate(first) if i >= 0]
    return len(ends) < len(syms) or any(kids[2 * v] or kids[2 * v + 1] for v in ends)


def _covering_depth(colors: list[Word]) -> int | None:
    """The least d such that every word of length d has a color as suffix.

    None when there is no such d, that is, when the colors are not left
    cofinite.  Read off the suffix trie of the colors: a word is covered
    when some color is its suffix, and the uncovered trie vertices are
    those with no color on the way down from the root.

    Uncovered words are closed under suffixes.  If an uncovered vertex u
    lacks a child x·u (x = p1 or p2), then every y·x·u is uncovered: a
    color that is a suffix of it is a suffix of u, or ends in x·u, which
    is no suffix of a color.  So infinitely many words are uncovered.
    Otherwise every uncovered word w is a vertex: else its longest suffix
    in the trie would be an uncovered vertex lacking a child.  The
    uncovered words are then the uncovered vertices, and d is one more
    than the longest of them; d = 0 when the identity is a color and
    covers everything.
    """
    kids, first = _suffix_trie([c.syms for c in colors])
    if first[0] >= 0:
        return 0
    longest, stack = 0, [(0, 0)]  # uncovered vertices and their lengths
    while stack:
        v, n = stack.pop()
        longest = max(longest, n)
        for child in kids[2 * v], kids[2 * v + 1]:
            if not child:
                return None
            if first[child] < 0:
                stack.append((child, n + 1))
    return longest + 1


@dataclass(frozen=True, slots=True)
class FamilyClassification:
    cofinite: bool
    independent: bool
    minimally_cofinite: bool
    maximally_independent: bool


def family_classify(family: Sequence[Word]) -> FamilyClassification:
    """Compute the four family flags.

    Minimal cofiniteness coincides with "cofinite and independent": if
    member c_i is a suffix of member c_j, dropping c_j keeps the family
    cofinite; in a suffix-free family only c covers the long words ending
    in c, so dropping any member loses infinitely many words.  Maximal
    independence coincides with "independent and cofinite" too.  The
    removal-based check and the bounded search oracle for maximality live
    in the test suite.
    """
    members = tuple(family)
    cofinite = family_left_cofinite(members)
    independent = not family_left_dependent(members)
    return FamilyClassification(
        cofinite=cofinite,
        independent=independent,
        minimally_cofinite=cofinite and independent,
        maximally_independent=independent and cofinite,
    )
