"""Command-line interface: term parser, evaluator, renderers, and commands.

Expression grammar (whitespace insensitive)::

    term   := factor (("*")? factor)*
    factor := primary ("^" int)*
    primary:= "1" | word | "S(" term "," term ")" | "(" term ")"
    word   := ("p1" | "p2")+
    int    := [0-9]+

Exit codes: 0 on success, 1 on a domain error (e.g. the element is not a
unit, or a table is not a monoid), 2 on a usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from itertools import islice
from typing import Sequence

from .words import _SYMBOL_TEXT, WORD_PATTERN, Word, ONE
from .tmagma import Leaf, Node, Tree, mul, power, sigma
from .ucp import UElem, from_word, mul_U, power_U, reduce, sigma_U
from .branch import beta
from .dcp import FiniteMonoid, all_shapes, phi, shape_taus
from .invert import left_inverse, right_inverse, unit_inverse, unit_order
from . import dcp, tmagma, ucp, words


# ---------------------------------------------------------------------------
# Parser: text to a postfix program

# The two binary operations of a postfix program (see parse).
SIGMA = "S"
PRODUCT = "*"


class ParseError(Exception):
    def __init__(self, position: int, expected: Sequence[str], found: str):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected "
            f"{' or '.join(expected)}, found {found}"
        )


# The first character no token can start: a "p" that begins no "p1"/"p2",
# or a character outside the grammar.  Whitespace (Unicode \s) separates tokens.
_LEX_ERROR = re.compile(r"p(?![12])|[^\sp0-9S(),*^]")
# With no lexical error, every token is a word, a number or one character.
_TOKEN = re.compile(rf"{WORD_PATTERN}|[0-9]+|\S")

_FACTOR_EXPECTED = ("'1'", "a word", "'S('", "'('")


def _numeral(tok: str) -> str:
    """A numeral without leading zeros, as text: int() limits its length."""
    return tok.lstrip("0") or "0"


def _error(text: str, toks: list[str], i: int, expected: Sequence[str],
           found: str | None = None) -> ParseError:
    """The error at token i; its position is found only now, by rescanning."""
    if i == len(toks) - 1:
        pos = len(text)
    else:
        pos = next(islice(_TOKEN.finditer(text), i, None)).start()
    if found is None:
        tok = toks[i]
        found = "end of input" if not tok else repr(_numeral(tok) if tok[0].isdigit() else tok)
    return ParseError(pos, expected, found)


def parse(text: str) -> list:
    """Parse an expression of the grammar above into a postfix program.

    The program lists the operations in the order they apply: a ``Word``
    pushes that word (``ONE`` for the numeral 1), an ``int`` n >= 1 raises
    the top value to the n-th power, and ``SIGMA`` or ``PRODUCT`` pops two
    values and pushes their pairing or product.  So ``(p1 p2)^2`` gives
    ``[p1, p2, PRODUCT, 2]``.

    A lexical error (a character no token starts with) wins over a syntax
    error before it.  The tokens are plain strings from one regex pass;
    positions are worked out only for an error.  Nesting depth is bounded
    by memory, not by the recursion limit.
    """
    bad = _LEX_ERROR.search(text)
    if bad is not None:
        pos = bad.start()
        if text[pos] == "p":
            raise ParseError(pos, ["'p1'", "'p2'"], repr(text[pos:pos + 2]))
        raise ParseError(pos, ["a term"], repr(text[pos]))
    toks = _TOKEN.findall(text)
    toks.append("")  # end of input
    words: dict[str, Word] = {}  # one Word per distinct word text
    program: list = []
    i = 0  # toks[i] is the next token
    # Each pass reads a primary and its powers, then closes every bracket the
    # next token ends. Open brackets, innermost last, are
    # [its first token, the enclosing bracket's flag, whether "," was seen].
    opened: list[list] = []
    term = False  # whether the innermost bracket has a factor yet
    while True:
        tok = toks[i]
        if tok == "S" or tok == "(":
            i += 1
            if tok == "S":
                if toks[i] != "(":
                    raise _error(text, toks, i, ("'('",))
                i += 1
            opened.append([tok, term, False])
            term = False
            continue
        if tok[:1] == "p":
            word = words.get(tok)
            if word is None:
                word = words[tok] = Word(tuple(map(int, tok[1::2])))
            program.append(word)
        elif tok[:1].isdigit():
            if _numeral(tok) != "1":
                raise _error(text, toks, i, _FACTOR_EXPECTED, _numeral(tok))
            program.append(ONE)
        else:  # the error lists every way a primary can start
            raise _error(text, toks, i, _FACTOR_EXPECTED)
        i += 1
        while True:
            while toks[i] == "^":
                i += 1
                if not toks[i][:1].isdigit():
                    raise _error(text, toks, i, ("a positive integer",))
                digits = _numeral(toks[i])
                if digits == "0":
                    raise _error(text, toks, i, ("a positive integer",), digits)
                try:
                    program.append(int(digits))
                except ValueError:  # more digits than int() converts
                    most = sys.get_int_max_str_digits()
                    raise _error(text, toks, i, (f"at most {most} digits",)) from None
                i += 1
            if term:
                program.append(PRODUCT)
            term = True
            # after a factor, only these end the term; anything else is "*" or a factor
            tok = toks[i]
            if tok != ")" and tok != "," and tok:
                if tok == "*":
                    i += 1
                break
            if not opened:
                if tok:
                    raise _error(text, toks, i, ("end of input",))
                return program
            bracket = opened[-1]
            if bracket[0] == "S" and not bracket[2]:
                if tok != ",":
                    raise _error(text, toks, i, ("','",))
                i += 1
                bracket[2], term = True, False
                break
            if tok != ")":
                raise _error(text, toks, i, ("')'",))
            i += 1
            first, term, _ = opened.pop()
            if first == "S":
                program.append(SIGMA)


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(program: list, mode: str) -> Tree | UElem:
    """Evaluate in the tree monoid ("T") or the quotient monoid ("U").

    One pass over the postfix program from ``parse`` with one stack of
    values: a ``Word`` pushes its leaf, an ``int`` n raises the top value to
    the n-th power, and ``SIGMA`` or ``PRODUCT`` combines the top two.
    """
    # Looked up on every call, not bound once at import, so that a caller
    # that replaces these module attributes (a tracer, say) sees every call.
    if mode == "T":
        leaf, pair, product, pow_ = Leaf, sigma, mul, power
    elif mode == "U":
        leaf, pair, product, pow_ = from_word, sigma_U, mul_U, power_U
    else:
        raise ValueError(f"unknown mode {mode!r}")

    values: list = []
    for x in program:
        if x is SIGMA:
            right = values.pop()
            values[-1] = pair(values[-1], right)
        elif x is PRODUCT:
            right = values.pop()
            values[-1] = product(values[-1], right)
        elif type(x) is int:
            values[-1] = pow_(values[-1], x)
        else:
            values.append(leaf(x))
    return values[0]


def eval_t(program: list) -> Tree:
    """Evaluate without reduction."""
    return eval_expr(program, "T")


def eval_u(program: list) -> UElem:
    """Evaluate, reducing after every operation."""
    return eval_expr(program, "U")


# ---------------------------------------------------------------------------
# Rendering

def _format_word(w: Word, pi: bool) -> str:
    return str(w).replace("p", "π") if pi else str(w)


def render_sexpr(t: Tree) -> str:
    parts: list[str] = []
    # A subtree still to write, followed by ")" * closes + tail.  Counting the
    # closers, rather than prepending one per level, keeps right combs linear.
    stack: list[tuple[Tree, int, str]] = [(t, 0, "")]
    while stack:
        x, closes, tail = stack.pop()
        while type(x) is Node:  # the left spine, written inline
            parts.append("S(")
            stack.append((x.right, closes + 1, tail))
            x, closes, tail = x.left, 0, ","
        syms = x.color.syms  # as Word.__str__ writes it
        parts += ("".join(map(_SYMBOL_TEXT, syms)) if syms else "1", ")" * closes, tail)
    return "".join(parts)


def render_ascii(t: Tree, pi: bool = False) -> str:
    lines = []  # pre-order; every line below a node starts with its indent
    stack: list[tuple[Tree, str, str]] = [(t, "", "")]
    while stack:
        node, head, indent = stack.pop()
        if isinstance(node, Leaf):
            lines.append(head + _format_word(node.color, pi))
        else:
            lines.append(head + "S")
            stack.append((node.right, indent + "`-- ", indent + "    "))
            stack.append((node.left, indent + "|-- ", indent + "|   "))
    return "\n".join(lines)


def render_dot(t: Tree) -> str:
    # stable depth-first ids: a node is declared immediately before the
    # edge from its parent, so identical trees always serialize identically
    lines = ["digraph tree {"]
    stack: list[tuple[Tree, str | None]] = [(t, None)]
    counter = 0
    while stack:
        node, parent = stack.pop()
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            lines.append(f'  {name} [label="{node.color}", shape=box];')
        else:
            lines.append(f'  {name} [label="S"];')
            stack += ((node.right, name), (node.left, name))
        if parent is not None:
            lines.append(f"  {parent} -> {name};")
    lines.append("}")
    return "\n".join(lines)


def render(t: Tree, fmt: str = "sexpr", pi: bool = False) -> str:
    if fmt == "sexpr":
        return render_sexpr(t)
    if fmt == "ascii":
        return render_ascii(t, pi)
    if fmt == "dot":
        return render_dot(t)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Commands

def _finite_monoid_from_json(data: object) -> FiniteMonoid:
    """Build a table from {"elements": [...], "identity": ..., "table": [[...]]}."""
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object")
    try:
        elements = data["elements"]
        identity = data["identity"]
        table = data["table"]
    except KeyError as missing:
        raise ValueError(f"missing key {missing}") from None
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise ValueError('"elements" must be a list of strings')
    if not elements:
        raise ValueError('"elements" must be non-empty')
    if len(set(elements)) != len(elements):
        raise ValueError('"elements" must be distinct')
    index = {label: i for i, label in enumerate(elements)}
    if not isinstance(identity, str) or identity not in index:
        raise ValueError('"identity" must be one of the elements')
    n = len(elements)
    if not isinstance(table, list) or len(table) != n:
        raise ValueError(f'"table" must have {n} rows')
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"table row {i} must have {n} entries")
        for x in row:
            if not isinstance(x, str) or x not in index:
                raise ValueError(f"table row {i} has unknown label {x!r}")
        rows.append(tuple(index[x] for x in row))
    return FiniteMonoid(tuple(elements), index[identity], tuple(rows))


def _cmd_eval(args: argparse.Namespace) -> int:
    value = eval_expr(parse(args.expr), args.mode)
    print(render(value if isinstance(value, (Leaf, Node)) else value.tree, args.format, args.pi))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    result = reduce(eval_t(parse(args.expr)))
    print(render(result.tree, args.format, args.pi))
    return 0


def _cmd_beta(args: argparse.Namespace) -> int:
    print(beta(eval_t(parse(args.expr))))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    same = ucp.equivalent(eval_t(parse(args.expr1)), eval_t(parse(args.expr2)))
    print("true" if same else "false")
    return 0


def _cmd_inv(args: argparse.Namespace) -> int:
    element = eval_u(parse(args.expr))
    if args.side == "unit":
        try:
            inverse = unit_inverse(element)
        except ValueError:
            print("error: not a unit", file=sys.stderr)
            return 1
        print(render_sexpr(inverse.tree))
        return 0
    result = left_inverse(element) if args.side == "left" else right_inverse(element)
    if result is None:
        reason = (
            "leaf colors are not left cofinite"
            if args.side == "left"
            else "leaf colors are not left independent"
        )
        print(f"error: no {args.side} inverse: {reason}", file=sys.stderr)
        return 1
    print(render_sexpr(result.tree))
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    if args.max < 1:
        print("error: --max must be a positive integer", file=sys.stderr)
        return 2
    element = eval_u(parse(args.expr))
    try:
        n = unit_order(element, args.max)
    except ValueError:  # --max is positive, so a is not a unit
        print("error: not a unit", file=sys.stderr)
        return 1
    print(f"order exceeds {args.max}" if n is None else str(n))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    try:
        with open(args.table, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.table}: {exc}", file=sys.stderr)
        return 2
    # JSON text is UTF-8; the decoder recurses once per level of nesting
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"error: invalid JSON in {args.table}: {exc}", file=sys.stderr)
        return 2
    try:
        monoid = _finite_monoid_from_json(data)
    except ValueError as exc:
        print(f"error: bad monoid file: {exc}", file=sys.stderr)
        return 2
    violation, gens = dcp._validate(monoid)
    if violation is not None:
        print(f"error: not a monoid: {violation}", file=sys.stderr)
        return 1
    images = dcp._embed(monoid, gens)
    for label in monoid.labels:
        print(f"{label} -> {render_sexpr(images[label].tree)}")
    return 0


def _cmd_classify_colors(args: argparse.Namespace) -> int:
    colors = tmagma.leaf_colors(eval_t(parse(args.expr)))
    flags = words.family_classify(colors)
    for name in ("cofinite", "independent", "minimally_cofinite", "maximally_independent"):
        print(f"{name}: {'true' if getattr(flags, name) else 'false'}")
    return 0


def _cmd_gen_units(args: argparse.Namespace) -> int:
    from itertools import permutations

    units: set[tuple[int, str]] = set()
    for d in range(1, args.depth + 1):
        for shape in all_shapes(d):
            # perm_hom(shape, g) is phi of the taus ordered by g's inverse;
            # over all g that is every ordering, so list the shape once here.
            taus = [from_word(tau) for tau in shape_taus(shape)]
            for ordered in permutations(taus):
                image = phi(shape, ordered)
                if image.degree > args.max_degree:
                    continue
                units.add((image.degree, render_sexpr(image.tree)))
    for _, text in sorted(units):
        print(text)
    return 0


def _add_render_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("sexpr", "ascii", "dot"), default="sexpr",
        help="output rendering (default sexpr)",
    )
    p.add_argument(
        "--pi", action="store_true",
        help="use the Greek letter for generators in ascii output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmonoid",
        description="Exact computation in the universal product monoids of colored binary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--in", dest="mode", choices=("T", "U"), default="U",
                   help="T: no reduction; U: reduce after every operation (default)")
    _add_render_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reduce", help="normal form of an expression")
    p.add_argument("expr")
    _add_render_flags(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("beta", help="branch set of an expression (evaluated without reduction)")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("equiv", help="whether two expressions have the same normal form")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("inv", help="construct an inverse")
    p.add_argument("expr")
    p.add_argument("--side", choices=("left", "right", "unit"), required=True)
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("order", help="multiplicative order of a unit, up to a bound")
    p.add_argument("expr")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("embed", help="embed a finite monoid given as a JSON table")
    p.add_argument("table", help="path to a JSON file with elements/identity/table")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("classify-colors", help="family flags of the leaf colors")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classify_colors)

    p = sub.add_parser("gen-units", help="enumerate permutation-image units over small shapes")
    p.add_argument("--depth", type=int, default=3, metavar="K",
                   help="maximum number of shape leaves (default 3)")
    p.add_argument("--max-degree", type=int, default=16, metavar="M",
                   help="suppress units of degree above M (default 16)")
    p.set_defaults(func=_cmd_gen_units)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()  # on first use, not at import; parse_args keeps no state


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())
