"""Shared test utilities: generators, enumerators, and independent oracles.

The inverse-search oracles here decide existence of an inverse by searching
the full candidate space of trees with bounded degree and color length.
They depend only on mul/act/reduce semantics, never on the leaf-color
family analysis they are used to cross-check.  The complete-tree inverse
constructions, the pairwise dependence test, the enumerated unit test, the
removal-based minimal-cofiniteness check, the character-by-character
expression parser and the all-triples monoid-table validator at the end are
the library's earlier algorithms, kept to check the current ones against.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, permutations, product
from typing import NamedTuple

from cpmonoid.words import (
    G1,
    G2,
    ONE,
    Word,
    all_words,
    family_left_cofinite,
    is_left_multiple,
    words_up_to,
)
from cpmonoid.tmagma import (
    LEFT,
    Leaf,
    Node,
    RIGHT,
    Tree,
    act,
    leaf_colors,
    leaf_listing,
    mul,
)
from cpmonoid.ucp import ONE_U, UElem, is_reduced, reduce
from cpmonoid.dcp import (
    FiniteMonoid,
    TableViolation,
    all_shapes,
    shape_taus,
)
from cpmonoid.cli import PRODUCT, SIGMA, ParseError


def w(text: str) -> Word:
    return Word.from_str(text)


def lf(text: str) -> Leaf:
    return Leaf(w(text))


def t(nested) -> Tree:
    """Build a tree from nested pairs of strings: ("p1", ("1", "p2"))."""
    if isinstance(nested, str):
        return lf(nested)
    left, right = nested
    return Node(t(left), t(right))


# Degree-3 units from the closing worked computations: the first is the
# image of a 3-cycle (order 3); the second is the product of that image
# with the degree-2 swap and has no period up to any tested bound.
ORDER3_UNIT: Tree = t((("p2", "p1p1"), "p2p1"))
GROWING_UNIT: Tree = t((("p1", "p1p2"), "p2p2"))


# ---------------------------------------------------------------------------
# Random generators

def random_word(rng: random.Random, max_len: int) -> Word:
    return Word(tuple(rng.choices((1, 2), k=rng.randint(0, max_len))))


def random_tree(rng: random.Random, max_degree: int, max_color_len: int = 3) -> Tree:
    return random_tree_of_degree(
        rng, rng.randint(1, max_degree), max_color_len
    )


def random_tree_of_degree(
    rng: random.Random, degree: int, max_color_len: int = 3
) -> Tree:
    if degree == 1:
        return Leaf(random_word(rng, max_color_len))
    split = rng.randint(1, degree - 1)
    return Node(
        random_tree_of_degree(rng, split, max_color_len),
        random_tree_of_degree(rng, degree - split, max_color_len),
    )


def random_uelem(rng: random.Random, max_degree: int, max_color_len: int = 3) -> UElem:
    return reduce(random_tree(rng, max_degree, max_color_len))


def chain_unit(k: int) -> UElem:
    """S(p2, S(p2p1, ... S(p2p1^(k-1), p1^k))): a unit of degree k + 1."""
    tree = Leaf(Word((G1,) * k))
    for j in reversed(range(k)):
        tree = Node(Leaf(Word((G2,) + (G1,) * j)), tree)
    return reduce(tree)


def chain_text(k: int) -> str:
    """chain_unit(k) written out for the CLI."""
    return "".join(f"S(p2{'p1' * j}," for j in range(k)) + "p1" * k + ")" * k


# ---------------------------------------------------------------------------
# Exhaustive enumerators

def shape_to_tree(shape: Tree, colors) -> Tree:
    it = iter(colors)

    def build(sh: Tree) -> Tree:
        if isinstance(sh, Leaf):
            return Leaf(next(it))
        return Node(build(sh.left), build(sh.right))

    return build(shape)


def enumerate_trees(max_degree: int, max_color_len: int):
    """All trees with degree and color lengths within the bounds."""
    colors = list(words_up_to(max_color_len))
    for d in range(1, max_degree + 1):
        for shape in all_shapes(d):
            for assignment in product(colors, repeat=d):
                yield shape_to_tree(shape, assignment)


def enumerate_reduced_trees(max_degree: int, max_color_len: int):
    for tree in enumerate_trees(max_degree, max_color_len):
        if is_reduced(tree):
            yield tree


# ---------------------------------------------------------------------------
# Randomized rewriting

def retractable_addresses(tree: Tree) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def walk(node: Tree, addr: tuple[int, ...]) -> None:
        if isinstance(node, Leaf):
            return
        left, right = node.left, node.right
        if isinstance(left, Leaf) and isinstance(right, Leaf):
            l, r = left.color.syms, right.color.syms
            if l and r and l[0] == 1 and r[0] == 2 and l[1:] == r[1:]:
                out.append(addr)
        walk(left, addr + (LEFT,))
        walk(right, addr + (RIGHT,))

    walk(tree, ())
    return out


def retract_at(tree: Tree, addr: tuple[int, ...]) -> Tree:
    if not addr:
        assert isinstance(tree, Node)
        left, right = tree.left, tree.right
        assert isinstance(left, Leaf) and isinstance(right, Leaf)
        return Leaf(Word(left.color.syms[1:]))
    assert isinstance(tree, Node)
    if addr[0] == LEFT:
        return Node(retract_at(tree.left, addr[1:]), tree.right)
    return Node(tree.left, retract_at(tree.right, addr[1:]))


def reduce_randomized(tree: Tree, rng: random.Random) -> Tree:
    """Apply retractions in random order until none applies."""
    while True:
        candidates = retractable_addresses(tree)
        if not candidates:
            return tree
        tree = retract_at(tree, rng.choice(candidates))


# ---------------------------------------------------------------------------
# Brute-force inverse-search oracles
#
# A product X with tree shape s and subtrees t_i (one per leaf of s, where
# leaf i has path word p_i) reduces to the single identity leaf if and only
# if every t_i reduces to the leaf colored p_i: a non-leaf reduced subtree
# blocks every retraction above it, and retracting leaves down to the root
# forces exactly the path-word coloring at each position.  Both searches
# below exploit only that reduction fact; small-bound literal searches in
# the test suite confirm they match candidate-by-candidate enumeration.

def shape_path_words(shape: Tree) -> list[Word]:
    return shape_taus(shape)


def oracle_left_invertible(b: Tree, max_degree: int = 4, max_color_len: int = 3) -> bool:
    """Whether some tree A with deg <= max_degree and colors of length
    <= max_color_len satisfies A·b = 1 after reduction.

    In the product A·b, the subtree replacing a leaf of A colored c is
    act(c, b), independently of the other leaves, so A exists iff some
    shape has every leaf path word realizable as reduce(act(c, b)).
    """
    realizable: set[Word] = set()
    for c in words_up_to(max_color_len):
        r = reduce(act(c, b)).tree
        if isinstance(r, Leaf):
            realizable.add(r.color)
    for d in range(1, max_degree + 1):
        for shape in all_shapes(d):
            if all(p in realizable for p in shape_path_words(shape)):
                return True
    return False


def oracle_left_invertible_literal(
    b: Tree, max_degree: int, max_color_len: int
) -> bool:
    return any(
        reduce(mul(a, b)) == ONE_U
        for a in enumerate_trees(max_degree, max_color_len)
    )


def oracle_right_invertible(a: Tree, max_degree: int = 4, max_color_len: int = 3) -> bool:
    """Whether some tree B with deg <= max_degree and colors of length
    <= max_color_len satisfies a·B = 1 after reduction.

    For a fixed candidate shape of B, the requirement that act(c_i, B)
    reduce to the leaf colored p_i (for every leaf of a, color c_i at path
    word p_i) determines the colors of the B-leaves it touches: walking
    c_i down the shape either exits at a leaf slot with an unconsumed
    prefix y (slot color must be p_i with prefix y removed), or stops at a
    vertex whose whole subshape must reduce to Leaf(p_i) (each slot below
    gets its subshape path word times p_i).  B exists iff some shape
    admits a conflict-free assignment within the length bound; untouched
    slots are free (the identity color always works).
    """
    constraints = [(entry.path, entry.color) for entry in leaf_listing(a)]
    for d in range(1, max_degree + 1):
        for shape in all_shapes(d):
            slots = _solve_slots(shape, constraints, max_color_len)
            if slots is not None:
                return True
    return False


def _solve_slots(shape, constraints, max_color_len):
    # slot index = position in left-to-right leaf order of the shape
    addresses = _shape_addresses(shape)
    assignment: dict[int, Word] = {}

    def merge(idx: int, color: Word) -> bool:
        if len(color) > max_color_len:
            return False
        if idx in assignment:
            return assignment[idx] == color
        assignment[idx] = color
        return True

    for path_word, c in constraints:
        cur = shape
        addr: tuple[int, ...] = ()
        i = len(c.syms) - 1
        while i >= 0 and not isinstance(cur, Leaf):
            step = c.syms[i]
            addr = addr + (step,)
            cur = cur.left if step == LEFT else cur.right
            i -= 1
        if isinstance(cur, Leaf) and i >= 0:
            # exited at a slot with prefix c[:i+1] unconsumed
            y = c.syms[: i + 1]
            p = path_word.syms
            if len(p) < len(y) or p[: len(y)] != y:
                return None
            if not merge(addresses.index(addr), Word(p[len(y):])):
                return None
        else:
            # word consumed at the vertex addr: the whole subshape there
            # must reduce to the leaf colored path_word
            for idx, slot_addr in enumerate(addresses):
                if _is_prefix(addr, slot_addr):
                    rel = tuple(reversed(slot_addr[len(addr):]))
                    if not merge(idx, Word(rel + path_word.syms)):
                        return None
    return assignment


def _shape_addresses(shape) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def walk(sh, addr):
        if isinstance(sh, Leaf):
            out.append(addr)
        else:
            walk(sh.left, addr + (LEFT,))
            walk(sh.right, addr + (RIGHT,))

    walk(shape, ())
    return out


def _is_prefix(prefix, seq) -> bool:
    return len(prefix) <= len(seq) and seq[: len(prefix)] == prefix


def oracle_right_invertible_literal(
    a: Tree, max_degree: int, max_color_len: int
) -> bool:
    return any(
        reduce(mul(a, b)) == ONE_U
        for b in enumerate_trees(max_degree, max_color_len)
    )


def oracle_unit(a: Tree, max_degree: int = 4, max_color_len: int = 3) -> bool:
    # A one-sided inverse on each side forces a two-sided inverse: if
    # x·a = 1 and a·y = 1 then x = x·(a·y) = (x·a)·y = y.
    return oracle_left_invertible(a, max_degree, max_color_len) and (
        oracle_right_invertible(a, max_degree, max_color_len)
    )


# ---------------------------------------------------------------------------
# Complete-tree inverse constructions
#
# The inverse constructions as first written: a complete binary tree of the
# covering depth, colored leaf by leaf from the element, then reduced.  They
# build 2^d leaves and are kept only as oracles for the trie-shaped
# constructions in cpmonoid.invert, which must give the same element for
# left inverses and units.  The covering depth is found by the enumerating
# search that left_inverse used before it read the depth off the suffix trie.

def _complete_tree(depth: int, color_at) -> Tree:
    """Complete binary tree of the given depth, coloring leaves by path word."""

    def build(dirs: tuple[int, ...]) -> Tree:
        if len(dirs) == depth:
            return Leaf(color_at(Word(tuple(reversed(dirs)))))
        return Node(build(dirs + (LEFT,)), build(dirs + (RIGHT,)))

    return build(())


def left_inverse_complete(b: UElem) -> UElem | None:
    """A with A·b = 1 from the complete tree of the smallest covering depth d.

    The leaf at path v = y·x (x a leaf color of b, chosen longest, ties to
    the leftmost leaf) is colored y·z, z the path word of that leaf in b.
    """
    entries = leaf_listing(b.tree)
    colors = [e.color for e in entries]
    d = covering_depth_enumerated(colors)
    if d is None:
        return None

    def color_at(v: Word) -> Word:
        best = None
        for e in entries:
            if is_left_multiple(v, e.color):
                if best is None or len(e.color) > len(best.color):
                    best = e
        assert best is not None  # coverage at depth d guarantees a match
        return Word(v.syms[: len(v) - len(best.color)]) * best.path

    return reduce(_complete_tree(d, color_at))


def covering_depth_enumerated(colors) -> int | None:
    """The least d at which every length-d word has a color as suffix, or None.

    The depth search of left_inverse as first written: every candidate depth
    up to the longest color length, every word of that length.
    """
    max_len = max(len(c) for c in colors)
    for d in range(max_len + 1):
        if all(
            any(is_left_multiple(v, c) for c in colors) for v in all_words(d)
        ):
            break
    else:
        # Not covered at d = max_len: not left cofinite (see family_left_cofinite).
        return None
    return d


def _expand_colors_to(t: Tree, length: int) -> Tree:
    # Expansion moves only; every leaf ends up with a color of exactly the
    # target length, so the result represents the same quotient element.
    if isinstance(t, Node):
        return Node(
            _expand_colors_to(t.left, length), _expand_colors_to(t.right, length)
        )
    if len(t.color) == length:
        return t
    syms = t.color.syms
    return Node(
        _expand_colors_to(Leaf(Word((G1,) + syms)), length),
        _expand_colors_to(Leaf(Word((G2,) + syms)), length),
    )


def right_inverse_complete(a: UElem) -> UElem | None:
    """B with a·B = 1 from the complete tree of the maximal color length d.

    a is expanded until every color has length d (they are then pairwise
    distinct); the leaf at path v carries the path word of the expanded
    leaf colored v, and every other leaf the identity color.
    """
    colors = leaf_colors(a.tree)
    if family_left_dependent_pairwise(colors):
        return None
    d = max(len(c) for c in colors)
    table = {e.color: e.path for e in leaf_listing(_expand_colors_to(a.tree, d))}
    return reduce(_complete_tree(d, lambda v: table.get(v, ONE)))


# ---------------------------------------------------------------------------
# Pairwise dependence and the enumerated unit test
#
# family_left_dependent and is_unit as first written: every ordered pair of
# members is tested for a suffix, and a unit's colors must cover all 2^L
# words of the longest color length L.  The library now reads dependence and
# cofiniteness off the colors' suffix trie, and must agree.

def family_left_dependent_pairwise(family) -> bool:
    """True iff some member is a left multiple of another member.

    Indices matter: a repeated word makes the family dependent.
    """
    members = tuple(family)
    for i, wi in enumerate(members):
        for j, wj in enumerate(members):
            if i != j and is_left_multiple(wi, wj):
                return True
    return False


def is_unit_enumerated(a: UElem) -> bool:
    """Whether a is two-sided invertible: colors cofinite and independent."""
    colors = leaf_colors(a.tree)
    return not family_left_dependent_pairwise(colors) and family_left_cofinite(colors)


def random_code_family(rng: random.Random, max_len: int) -> list[Word]:
    """A complete suffix code with words up to max_len long, often perturbed.

    Grown from {1} by replacing a word c with p1·c and p2·c, mostly the word
    split last, so long words are common.  Then, on four rolls of five, one
    word is dropped, repeated or lengthened on the left, or a random word is
    added, which makes the code incomplete or dependent, or leaves it whole.
    The family is never empty.
    """
    code: list[tuple[int, ...]] = [()]
    last = 0
    for _ in range(rng.randint(0, 3 * max_len)):
        i = last if rng.random() < 0.6 else rng.randrange(len(code))
        if len(code[i]) < max_len:
            c = code[i]
            code[i:i + 1] = [(G1,) + c, (G2,) + c]
            last = i + rng.randrange(2)
    family = [Word(c) for c in code]
    roll = rng.randrange(5)
    k = rng.randrange(len(family))
    if roll == 0 and len(family) > 1:
        del family[k]
    elif roll == 1:
        family.append(family[k])
    elif roll == 2 and len(family[k]) < max_len:
        family[k] = Word((rng.choice((G1, G2)),) + family[k].syms)
    elif roll == 3:
        family.append(random_word(rng, max_len))
    rng.shuffle(family)
    return family


def small_families() -> list[tuple[Word, ...]]:
    """All 3,876 families of at most 4 words of length <= 3, () first."""
    pool = list(words_up_to(3))
    return [f for size in range(5) for f in combinations_with_replacement(pool, size)]


# ---------------------------------------------------------------------------
# Removal-based minimal cofiniteness
#
# The family_classify body as first written: a cofinite family is minimally
# cofinite iff dropping any one member leaves it not cofinite.  It reruns
# the 2^L cofiniteness check once per member; the library now reads the
# flag off "cofinite and independent", which this checks.

def minimally_cofinite_by_removal(family) -> bool:
    members = tuple(family)
    cofinite = family_left_cofinite(members)
    return cofinite and all(
        not family_left_cofinite(members[:k] + members[k + 1:])
        for k in range(len(members))
    )


# ---------------------------------------------------------------------------
# Character-by-character expression parser
#
# The CLI front end as first written: a lexer that walks the text one
# character at a time into tokens, and a recursive-descent parser class.
# It is kept only as the oracle for cpmonoid.cli.parse, which must give the
# same postfix program or the same ParseError on every text without non-ASCII
# digits (this lexer reads any str.isdigit() character as a digit).

class _Token(NamedTuple):
    kind: str  # WORD NUMBER SIGMA LPAREN RPAREN COMMA STAR CARET END
    value: object
    pos: int


_PUNCTUATION = {
    "S": "SIGMA", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "*": "STAR", "^": "CARET",
}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[ch], ch, i))
            i += 1
        elif ch == "p":
            start = i
            syms = []
            while i < n and text[i] == "p":
                if i + 1 < n and text[i + 1] in "12":
                    syms.append(int(text[i + 1]))
                    i += 2
                else:
                    raise ParseError(i, ["'p1'", "'p2'"], repr(text[i : i + 2]))
            tokens.append(_Token("WORD", Word(tuple(syms)), start))
        elif ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(_Token("NUMBER", int(text[start:i]), start))
        else:
            raise ParseError(i, ["a term"], repr(ch))
    tokens.append(_Token("END", None, n))
    return tokens


_FACTOR_STARTERS = ("WORD", "NUMBER", "SIGMA", "LPAREN")
_FACTOR_EXPECTED = ("'1'", "a word", "'S('", "'('")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.program: list = []  # postfix, as cpmonoid.cli.parse returns it

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, shown: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, [shown], self._describe(tok))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "END":
            return "end of input"
        return repr(str(tok.value))

    def term(self) -> None:
        self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
            elif tok.kind not in _FACTOR_STARTERS:
                return
            self.factor()
            self.program.append(PRODUCT)

    def factor(self) -> None:
        self.primary()
        while self.peek().kind == "CARET":
            self.advance()
            tok = self.expect("NUMBER", "a positive integer")
            if tok.value < 1:
                raise ParseError(tok.pos, ["a positive integer"], str(tok.value))
            self.program.append(tok.value)

    def primary(self) -> None:
        tok = self.peek()
        if tok.kind == "NUMBER":
            if tok.value != 1:
                raise ParseError(tok.pos, list(_FACTOR_EXPECTED), str(tok.value))
            self.advance()
            self.program.append(ONE)
        elif tok.kind == "WORD":
            self.advance()
            self.program.append(tok.value)
        elif tok.kind == "SIGMA":
            self.advance()
            self.expect("LPAREN", "'('")
            self.term()
            self.expect("COMMA", "','")
            self.term()
            self.expect("RPAREN", "')'")
            self.program.append(SIGMA)
        elif tok.kind == "LPAREN":
            self.advance()
            self.term()
            self.expect("RPAREN", "')'")
        else:
            raise ParseError(tok.pos, list(_FACTOR_EXPECTED), self._describe(tok))


def parse_reference(text: str) -> list:
    parser = _Parser(_lex(text))
    parser.term()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(tok.pos, ["end of input"], _Parser._describe(tok))
    return parser.program


# ---------------------------------------------------------------------------
# Finite monoid tables
#
# Constructors for standard monoids as tables over indices 0..n-1, and a
# relabelling that lists the elements in a random order.

def cyclic_monoid(n: int) -> FiniteMonoid:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteMonoid(tuple(f"c{i}" for i in range(n)), 0, table)


def product_monoid(a: FiniteMonoid, b: FiniteMonoid) -> FiniteMonoid:
    pairs = [(x, y) for x in range(a.n) for y in range(b.n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    table = tuple(
        tuple(index[(a.table[x][u], b.table[y][v])] for u, v in pairs) for x, y in pairs
    )
    labels = tuple(f"{a.labels[x]}|{b.labels[y]}" for x, y in pairs)
    return FiniteMonoid(labels, index[(a.identity, b.identity)], table)


def maps_monoid(maps: list[tuple[int, ...]], prefix: str) -> FiniteMonoid:
    """Self-maps of {0..d-1} under composition, f·g = g after f."""
    index = {f: k for k, f in enumerate(maps)}
    table = tuple(tuple(index[tuple(g[v] for v in f)] for g in maps) for f in maps)
    labels = tuple(f"{prefix}{k}" for k in range(len(maps)))
    return FiniteMonoid(labels, index[tuple(range(len(maps[0])))], table)


def symmetric_monoid(d: int) -> FiniteMonoid:
    return maps_monoid(list(permutations(range(d))), "s")


def full_transformation_monoid(d: int) -> FiniteMonoid:
    return maps_monoid(list(product(range(d), repeat=d)), "t")


def monogenic_monoid(index: int, period: int) -> FiniteMonoid:
    """1, a, ..., a^(index+period-1) with a^(index+period) = a^index."""
    n = index + period

    def norm(k: int) -> int:
        return k if k < n else index + (k - index) % period

    table = tuple(tuple(norm(i + j) for j in range(n)) for i in range(n))
    return FiniteMonoid(tuple(f"a{k}" for k in range(n)), 0, table)


def relabel_monoid(rng: random.Random, m: FiniteMonoid) -> FiniteMonoid:
    """The same monoid with its elements listed in a random order."""
    new = list(range(m.n))
    rng.shuffle(new)  # element i gets index new[i]
    table = [[0] * m.n for _ in range(m.n)]
    labels = [""] * m.n
    for i in range(m.n):
        labels[new[i]] = m.labels[i]
        for j in range(m.n):
            table[new[i]][new[j]] = new[m.table[i][j]]
    return FiniteMonoid(tuple(labels), new[m.identity], tuple(map(tuple, table)))


# ---------------------------------------------------------------------------
# All-triples monoid-table validator
#
# validate_finite_monoid as first written: after the shape and identity
# checks it scans all n³ triples for associativity.  The library now runs
# Light's test on a generating set first, and must return the same result:
# None, or the same lexicographically first violation.

def validate_finite_monoid_reference(m: FiniteMonoid) -> TableViolation | None:
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
