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
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .words import WORD_PATTERN, Word, ONE
from .tmagma import Leaf, Node, Tree, mul, power, sigma
from .ucp import UElem, from_word, mul_U, power_U, reduce, sigma_U
from .branch import beta
from .dcp import FiniteMonoid, all_shapes, phi, shape_taus
from .invert import is_unit, left_inverse, right_inverse, unit_inverse, unit_order
from . import dcp, tmagma, ucp, words


# ---------------------------------------------------------------------------
# Abstract syntax and parser

@dataclass(frozen=True, slots=True)
class WordLit:
    word: Word


@dataclass(frozen=True, slots=True)
class SigmaApp:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True, slots=True)
class Product:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True, slots=True)
class Power:
    base: "TermExpr"
    exponent: int


TermExpr = WordLit | SigmaApp | Product | Power


class ParseError(Exception):
    def __init__(self, position: int, expected: Sequence[str], found: str):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected "
            f"{' or '.join(expected)}, found {found}"
        )


_TOKEN = re.compile(
    rf"(?P<WORD>{WORD_PATTERN})|(?P<NUMBER>[0-9]+)|(?P<SIGMA>S)|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<STAR>\*)|(?P<CARET>\^)|(?P<BAD>p.?|\S)",
    re.DOTALL,
)

_FACTOR_EXPECTED = ("'1'", "a word", "'S('", "'('")


def _lex(text: str) -> list[tuple]:
    # finditer skips exactly the whitespace: BAD matches every other character
    tokens = []
    words: dict[str, Word] = {}  # one Word per distinct word text
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "BAD":
            expected = ["'p1'", "'p2'"] if value[0] == "p" else ["a term"]
            raise ParseError(m.start(), expected, repr(value))
        if kind == "WORD":
            if value not in words:
                words[value] = Word.from_str(value)
            value = words[value]
        elif kind == "NUMBER":
            value = int(value)
        tokens.append((kind, value, m.start()))
    tokens.append(("END", None, len(text)))
    return tokens


def _expect(toks: list[tuple], kind: str, *shown: str) -> tuple:
    next_kind, value, pos = toks[-1]
    if next_kind != kind:
        raise ParseError(pos, shown, "end of input" if next_kind == "END" else repr(str(value)))
    return toks.pop()


def parse(text: str) -> TermExpr:
    # Lexing all first makes a lexical error win. toks[-1] is the next token.
    toks = _lex(text)[::-1]
    # Each pass reads a primary and its powers, then closes every bracket the
    # next token ends. Open brackets, innermost last, are
    # [kind, the enclosing term so far, the first argument of S].
    opened: list[list] = []
    term: TermExpr | None = None  # the term so far inside the innermost bracket
    while True:
        kind, value, pos = toks[-1]
        if kind == "WORD" or kind == "NUMBER":
            if kind == "NUMBER" and value != 1:
                raise ParseError(pos, _FACTOR_EXPECTED, str(value))
            toks.pop()
            expr = WordLit(value if kind == "WORD" else ONE)
        else:
            if kind == "SIGMA":
                toks.pop()
                _expect(toks, "LPAREN", "'('")
            else:  # the last alternative: the error lists every way a primary can start
                _expect(toks, "LPAREN", *_FACTOR_EXPECTED)
            opened.append([kind, term, None])
            term = None
            continue
        while True:
            while toks[-1][0] == "CARET":
                toks.pop()
                _, n, pos = _expect(toks, "NUMBER", "a positive integer")
                if n < 1:
                    raise ParseError(pos, ["a positive integer"], str(n))
                expr = Power(expr, n)
            term = expr if term is None else Product(term, expr)
            # after a factor, only these end the term; anything else is "*" or a factor
            if toks[-1][0] not in ("RPAREN", "COMMA", "END"):
                if toks[-1][0] == "STAR":
                    toks.pop()
                break
            if not opened:
                _expect(toks, "END", "end of input")
                return term
            bracket = opened[-1]
            if bracket[0] == "SIGMA" and bracket[2] is None:
                _expect(toks, "COMMA", "','")
                bracket[2], term = term, None
                break
            _expect(toks, "RPAREN", "')'")
            kind, outer, left = opened.pop()
            expr = SigmaApp(left, term) if kind == "SIGMA" else term
            term = outer


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(e: TermExpr, mode: str) -> Tree | UElem:
    """Evaluate in the tree monoid ("T") or the quotient monoid ("U")."""
    # Looked up on every call, not bound once at import, so that a caller
    # that replaces these module attributes (a tracer, say) sees every call.
    if mode == "T":
        leaf, pair, product, pow_ = Leaf, sigma, mul, power
    elif mode == "U":
        leaf, pair, product, pow_ = from_word, sigma_U, mul_U, power_U
    else:
        raise ValueError(f"unknown mode {mode!r}")

    values: list = []
    stack: list = [e]  # terms to evaluate, and the operations that combine their values
    while stack:
        x = stack.pop()
        if isinstance(x, WordLit):
            values.append(leaf(x.word))
        elif isinstance(x, (SigmaApp, Product)):
            stack += (pair if isinstance(x, SigmaApp) else product, x.right, x.left)
        elif isinstance(x, Power):
            stack += (x.exponent, x.base)
        elif isinstance(x, int):
            values[-1] = pow_(values[-1], x)
        else:
            right = values.pop()
            values[-1] = x(values[-1], right)
    return values[0]


def eval_t(e: TermExpr) -> Tree:
    """Evaluate without reduction."""
    return eval_expr(e, "T")


def eval_u(e: TermExpr) -> UElem:
    """Evaluate, reducing after every operation."""
    return eval_expr(e, "U")


# ---------------------------------------------------------------------------
# Rendering

def _format_word(w: Word, pi: bool) -> str:
    return str(w).replace("p", "π") if pi else str(w)


def render_sexpr(t: Tree) -> str:
    parts: list[str] = []
    stack: list = [t]  # trees still to write, and the text between them
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, Leaf):
            parts.append(str(x.color))
        else:
            parts.append("S(")
            stack += (")", x.right, ",", x.left)
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
        if not is_unit(element):
            print("error: not a unit", file=sys.stderr)
            return 1
        print(render_sexpr(unit_inverse(element).tree))
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
    if not is_unit(element):
        print("error: not a unit", file=sys.stderr)
        return 1
    n = unit_order(element, args.max)
    print(f"order exceeds {args.max}" if n is None else str(n))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    try:
        with open(args.table, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.table}: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
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
