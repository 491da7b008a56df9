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
        return "".join(f"p{s}" for s in self.syms)

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


concat = Word.__mul__


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


def family_left_dependent(family: Sequence[Word]) -> bool:
    """True iff some member is a left multiple of another member.

    Indices matter: a repeated word makes the family dependent.
    """
    members = tuple(family)
    for i, wi in enumerate(members):
        for j, wj in enumerate(members):
            if i != j and is_left_multiple(wi, wj):
                return True
    return False


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
