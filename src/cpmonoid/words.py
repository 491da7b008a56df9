"""The free monoid on the two projection generators p1 and p2.

Words are finite sequences over the generators; the empty word is the
two-sided identity, written ``1`` in text form.  The module also provides
the suffix-based analysis of finite word families (left cofinite, left
dependent/independent, and the minimal/maximal refinements) on which all
invertibility decisions downstream depend.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

G1 = 1
G2 = 2


@dataclass(frozen=True, slots=True)
class Word:
    """A word over the generators; ``Word(())`` is the identity."""

    syms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
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
        syms = []
        i = 0
        while i < len(text):
            if text[i] == "p" and i + 1 < len(text) and text[i + 1] in "12":
                syms.append(int(text[i + 1]))
                i += 2
            else:
                raise ValueError(f"bad word syntax at offset {i}: {text!r}")
        if not syms:
            raise ValueError("empty word text; use '1' for the identity")
        return cls(tuple(syms))

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

    Minimal cofiniteness is checked by rerunning the cofiniteness test with
    each member removed.  Maximal independence coincides with "independent
    and cofinite"; the bounded search oracle for it lives in the test suite.
    """
    members = tuple(family)
    cofinite = family_left_cofinite(members)
    independent = not family_left_dependent(members)
    minimally = cofinite and all(
        not family_left_cofinite(members[:k] + members[k + 1:])
        for k in range(len(members))
    )
    return FamilyClassification(
        cofinite=cofinite,
        independent=independent,
        minimally_cofinite=minimally,
        maximally_independent=independent and cofinite,
    )
