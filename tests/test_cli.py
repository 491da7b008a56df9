"""Parser, renderers, and the command surface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cpmonoid.words import ONE
from cpmonoid.tmagma import ONE_T, power
from cpmonoid.ucp import ONE_U, mul_U, reduce
from cpmonoid.cli import (
    PRODUCT,
    SIGMA,
    ParseError,
    eval_expr,
    eval_t,
    eval_u,
    main,
    parse,
    render,
)
import cpmonoid.dcp as dcp

from helpers import chain_text, lf, parse_reference, random_tree, t, w
from make_cli_golden import load as load_golden, run_main


ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_examples():
    p1, p2 = w("p1"), w("p2")
    assert parse("S(p1,p2)") == [p1, p2, SIGMA]
    assert parse("S(S(p2,p1p1),p2p1) * S(p2,p1)") == [
        p2, w("p1p1"), SIGMA, w("p2p1"), SIGMA, p2, p1, SIGMA, PRODUCT,
    ]
    assert parse("1") == [ONE]
    assert parse("p1 ^ 3") == [p1, 3]
    assert parse("(p1 p2)^2") == [p1, p2, PRODUCT, 2]


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("S(p1")
    assert err.value.position == 4
    assert err.value.found == "end of input"
    assert "','" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse("S(p1,p2))")
    assert err.value.position == 8

    with pytest.raises(ParseError) as err:
        parse("p3")
    assert err.value.position == 0

    with pytest.raises(ParseError) as err:
        parse("p1^0")
    assert err.value.expected == ("a positive integer",)

    with pytest.raises(ParseError):
        parse("2")
    with pytest.raises(ParseError):
        parse("")

    # a lexical error anywhere wins over an earlier syntax error
    with pytest.raises(ParseError) as err:
        parse("S(p1,,p3")
    assert err.value.position == 6
    assert err.value.expected == ("'p1'", "'p2'")

    # exponents and the identity are ASCII digits only
    for text, position, found in (("p1^²", 3, "'²'"), ("p1^١", 3, "'١'"), ("١", 0, "'١'")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert err.value.expected == ("a term",)
        assert err.value.found == found


PARSE_ALPHABET = "p12S(),*^ 0379x\t\n\u00a0\u2003\x1c"  # no non-ASCII digits
SPACING = ("", "", " ", "\t")


def _random_expr_text(rng, depth):
    """Expression text in the grammar, with random spacing."""
    roll = rng.random() if depth else 0.0
    if roll < 0.4:
        return rng.choice(("1", "p1", "p2", "p2p1", "p1p1p2"))
    if roll < 0.6:
        left, right = _random_expr_text(rng, depth - 1), _random_expr_text(rng, depth - 1)
        return f"S({rng.choice(SPACING)}{left},{rng.choice(SPACING)}{right})"
    if roll < 0.8:
        op = rng.choice(("*", " ", " * "))
        return _random_expr_text(rng, depth - 1) + op + _random_expr_text(rng, depth - 1)
    if roll < 0.9:
        return f"({_random_expr_text(rng, depth - 1)})"
    spaced_caret = rng.choice(SPACING) + "^" + rng.choice(SPACING)
    return f"{_random_expr_text(rng, depth - 1)}{spaced_caret}{rng.randint(0, 3)}"


def _mutate(rng, text):
    i = rng.randint(0, len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + rng.choice(PARSE_ALPHABET) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(PARSE_ALPHABET) + text[i + 1:]


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return (exc.position, exc.expected, exc.found)


def test_parse_matches_reference_parser():
    # the regex tokenizer and parse loop against the character lexer and
    # parser class they replaced: same postfix program, or same error triple
    rng = random.Random(1618)
    texts = ["".join(rng.choices(PARSE_ALPHABET, k=rng.randint(0, 14))) for _ in range(12_000)]
    grammatical = [_random_expr_text(rng, 4) for _ in range(8_000)]
    texts += [_mutate(rng, text) if k % 2 else text for k, text in enumerate(grammatical)]
    texts += [render(random_tree(rng, 8, 3)) for _ in range(300)]
    parsed = 0
    for text in texts:
        outcome = _parse_outcome(parse, text)
        assert outcome == _parse_outcome(parse_reference, text), text
        parsed += not isinstance(outcome, tuple)
    assert parsed > 4000


def test_parse_error_positions_match_reference_parser():
    # a token's position is worked out only when an error is raised, by
    # rescanning the text: check it where the random corpus rarely looks
    run = "p1*p2p1 " * 5_000  # 10^4 valid tokens
    errors = [run + ")", run + "^0", "(" + run, run + "p3"]
    for space in ("\t", "\n", "\u00a0", "\x1c"):
        errors += [
            f"S(p1,{space})", f"p1{space}^0", f"S{space}p1", f"p1{space}p3",
            f"S(p1,p2){space})", f"p1{space}x", f"(p1{space}", f"S(p1{space}p2)",
        ]
    errors += ["p1^0", "p1^000", "p1^007^0", "S(p1,p2) ^ 00", "p1^", "p1^p2", "p1^S", "S 007", "007"]
    errors += ["(p1", "S(p1,p2", "((p1)", "S(S(p1,p2),p1", "S(p1,(p2)", "(" * 50 + "p1" + ")" * 49]
    for text in errors:
        outcome = _parse_outcome(parse, text)
        assert isinstance(outcome, tuple), text
        assert outcome == _parse_outcome(parse_reference, text), text
    for text in ("p1^007", "p1 ^ 01 ^ 2", run + "p1", "(" * 50 + run + ")" * 50):
        assert parse(text) == parse_reference(text), text


def test_eval_modes():
    assert eval_expr(parse("S(p1,p2)"), "U") == reduce(t(("p1", "p2")))
    assert eval_expr(parse("S(p1,p2)"), "T") == t(("p1", "p2"))
    assert eval_t(parse("p1 * S(1,1)")) == ONE_T
    assert eval_t(parse("p2p1")) == lf("p2p1")
    assert eval_t(parse("S(1,1)^2")) == power(t(("1", "1")), 2)
    assert eval_u(parse("S(p2,p1)^2")).tree == ONE_T


def test_eval_u_equals_reduce_of_eval_t():
    rng = random.Random(31)
    expressions = [
        "S(p1,p2)",
        "S(S(p2,p1p1),p2p1) * S(p2,p1)",
        "S(p2,p1)^3 * p1p2",
        "(S(1,1) * p1) S(p2,p2p2)",
    ]
    for text in expressions:
        expr = parse(text)
        assert eval_u(expr) == reduce(eval_t(expr))


def test_render_sexpr_examples():
    assert render(lf("p2p1")) == "p2p1"
    assert render(t(("p1", "p2"))) == "S(p1,p2)"
    assert render(ONE_T) == "1"


def test_render_parse_roundtrip_random():
    rng = random.Random(2718)
    for _ in range(300):
        tree = random_tree(rng, 8, 3)
        assert eval_t(parse(render(tree))) == tree


def test_render_ascii():
    tree = t((("p2", "p2p2"), "1"))
    assert render(tree, "ascii") == "\n".join(
        [
            "S",
            "|-- S",
            "|   |-- p2",
            "|   `-- p2p2",
            "`-- 1",
        ]
    )
    assert "π1" in render(t(("p1", "p2")), "ascii", pi=True)


def test_render_dot_stable():
    tree = t(("p1", ("1", "p2")))
    expected = "\n".join(
        [
            "digraph tree {",
            '  n0 [label="S"];',
            '  n1 [label="p1", shape=box];',
            "  n0 -> n1;",
            '  n2 [label="S"];',
            "  n0 -> n2;",
            '  n3 [label="1", shape=box];',
            "  n2 -> n3;",
            '  n4 [label="p2", shape=box];',
            "  n2 -> n4;",
            "}",
        ]
    )
    assert render(tree, "dot") == expected


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(ONE_T, "svg")


# ---------------------------------------------------------------------------
# command surface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "S(p1,p2)")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "eval", "S(p1,p2)", "--in", "T")
    assert (code, out) == (0, "S(p1,p2)\n")
    worked_product = "S(p2,S(p1p1p1,p2p1)) * S(S(p2,p2p2),S(p2p2p2,p1p2p2))"
    code, out, _ = run_cli(capsys, "eval", worked_product, "--in", "T")
    assert (code, out) == (0, "S(S(p2p2p2,p1p2p2),S(p1p2,p2p2))\n")
    code, out, _ = run_cli(capsys, "eval", worked_product)
    assert (code, out) == (0, "S(S(p2p2p2,p1p2p2),p2)\n")


def test_cmd_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "S(S(p1p1,p2p1),p2)")
    assert (code, out) == (0, "1\n")


def test_cmd_beta(capsys):
    code, out, _ = run_cli(capsys, "beta", "S(p1,p2)")
    assert (code, out) == (0, "{p1*p1, p2*p2}\n")


def test_cmd_equiv(capsys):
    code, out, _ = run_cli(capsys, "equiv", "S(p1,p2)", "1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "equiv", "p1", "p2")
    assert (code, out) == (0, "false\n")


def test_cmd_inv(capsys):
    code, out, _ = run_cli(capsys, "inv", "S(p2,p1)", "--side", "unit")
    assert (code, out) == (0, "S(p2,p1)\n")
    code, out, err = run_cli(capsys, "inv", "p1", "--side", "unit")
    assert code == 1 and out == "" and "not a unit" in err
    code, out, _ = run_cli(capsys, "inv", "p2", "--side", "right")
    assert (code, out) == (0, "S(1,1)\n")
    code, out, _ = run_cli(capsys, "inv", "p2p2", "--side", "right")
    assert (code, out) == (0, "S(1,S(1,1))\n")
    code, _, err = run_cli(capsys, "inv", "S(1,1)", "--side", "right")
    assert code == 1 and "independent" in err
    code, out, _ = run_cli(capsys, "inv", "S(1,1)", "--side", "left")
    assert (code, out) == (0, "p1\n")
    code, _, err = run_cli(capsys, "inv", "p1", "--side", "left")
    assert code == 1 and "cofinite" in err


def test_cmd_order(capsys):
    code, out, _ = run_cli(capsys, "order", "S(p2,p1)", "--max", "5")
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(
        capsys, "order", "S(S(p1,p1p2),p2p2)", "--max", "20"
    )
    assert (code, out) == (0, "order exceeds 20\n")
    code, _, err = run_cli(capsys, "order", "p1", "--max", "5")
    assert code == 1 and "not a unit" in err


def test_cmd_embed(capsys):
    code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "c2.json"))
    assert (code, out) == (0, "e -> 1\na -> S(p2,p1)\n")
    code, _, err = run_cli(capsys, "embed", str(FIXTURES / "missing.json"))
    assert code == 2 and "cannot read" in err


def test_cmd_embed_rejects_bad_tables(tmp_path, capsys):
    bad_law = tmp_path / "bad_law.json"
    bad_law.write_text(
        json.dumps(
            {
                "elements": ["e", "a", "b"],
                "identity": "e",
                "table": [["e", "a", "b"], ["a", "e", "e"], ["b", "e", "a"]],
            }
        )
    )
    # Light's test on the generator b first fails at (a·b)·b, so the exact
    # message pins the fallback to the lexicographically first triple.
    code, _, err = run_cli(capsys, "embed", str(bad_law))
    assert (code, err) == (
        1,
        "error: not a monoid: associativity law fails at (1, 1, 2): (a·a)·b != a·(a·b)\n",
    )

    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps({"elements": ["e"], "identity": "e"}))
    code, _, err = run_cli(capsys, "embed", str(bad_schema))
    assert code == 2 and "bad monoid file" in err

    for name, identity, entry in (("list_identity", ["e"], "e"), ("list_entry", "e", ["e"])):
        unhashable = tmp_path / f"{name}.json"
        unhashable.write_text(
            json.dumps({"elements": ["e"], "identity": identity, "table": [[entry]]})
        )
        code, _, err = run_cli(capsys, "embed", str(unhashable))
        assert code == 2 and "bad monoid file" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    code, _, err = run_cli(capsys, "embed", str(bad_json))
    assert code == 2 and "invalid JSON" in err

    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    code, _, err = run_cli(capsys, "embed", str(not_utf8))
    assert code == 2 and err.startswith(f"error: invalid JSON in {not_utf8}: ")


def test_cmd_classify_colors(capsys):
    code, out, _ = run_cli(capsys, "classify-colors", "S(S(p2,p1p1),p2p1)")
    assert code == 0
    assert out == (
        "cofinite: true\n"
        "independent: true\n"
        "minimally_cofinite: true\n"
        "maximally_independent: true\n"
    )
    code, out, _ = run_cli(capsys, "classify-colors", "p1")
    assert code == 0
    assert out.splitlines()[0] == "cofinite: false"


def test_cmd_gen_units(capsys):
    code, out, _ = run_cli(capsys, "gen-units", "--depth", "2", "--max-degree", "4")
    assert code == 0
    assert out.splitlines() == ["1", "S(p2,p1)"]
    code, out2, _ = run_cli(capsys, "gen-units", "--depth", "3", "--max-degree", "8")
    lines = out2.splitlines()
    assert "S(S(p2,p1p1),p2p1)" in lines
    assert len(lines) == len(set(lines))
    # deterministic: identical invocation gives byte-identical output
    code, out3, _ = run_cli(capsys, "gen-units", "--depth", "3", "--max-degree", "8")
    assert out2 == out3


def test_cmd_parse_error_exit_code(capsys):
    for text in ("S(p1", "p1^²", "p1^١", "١"):
        code, out, err = run_cli(capsys, "eval", text)
        assert code == 2 and out == "" and "syntax error" in err


LONG = 5_000  # digits, past the interpreter's 4,300-digit int-string limit


@pytest.mark.parametrize("long, short", [
    ("p1 " + "2" * LONG, "p1 22"),
    ("p1^" + "0" * (LONG + 1), "p1^00"),
    ("p1^" + "9" * LONG, None),  # its short form parses
], ids=["primary", "zero-exponent", "exponent"])
def test_cmd_long_numerals_are_parse_errors(capsys, long, short):
    # numerals are compared and shown as text; only an exponent is converted
    code, out, err = run_cli(capsys, "eval", long)
    assert (code, out) == (2, "") and err.startswith("error: syntax error at position 3")
    assert err.count("\n") == 1 and err.endswith("\n")
    if short is None:  # converted after its leading zeros are stripped
        assert parse("p1^" + "0" * LONG + "3") == [w("p1"), 3]
        return
    with pytest.raises(ParseError) as long_exc:
        parse(long)
    with pytest.raises(ParseError) as short_exc:
        parse(short)
    assert long_exc.value.expected == short_exc.value.expected
    assert long_exc.value.found == (long[3:].lstrip("0") or "0")


@pytest.mark.parametrize("key", [None, "elements"])
def test_cmd_embed_rejects_deeply_nested_json(tmp_path, capsys, key):
    nested = "[" * 100_000 + "]" * 100_000
    table = tmp_path / "nested.json"
    table.write_text(nested if key is None else f'{{"{key}": {nested}}}')
    code, out, err = run_cli(capsys, "embed", str(table))
    assert code == 2 and out == ""
    assert err.startswith(f"error: invalid JSON in {table}: ") and err.count("\n") == 1


def test_cmd_embed_validates_once(monkeypatch, capsys):
    # validate_finite_monoid returns _validate's violation, so every
    # validation is one _validate call, which runs _generators and shares G
    calls = []
    for name in ("_validate", "_generators"):
        real = getattr(dcp, name)
        monkeypatch.setattr(dcp, name, lambda m, real=real, name=name: calls.append(name) or real(m))
    code, out, _ = run_cli(capsys, "embed", str(FIXTURES / "klein.json"))
    assert code == 0 and len(out.splitlines()) == 4
    assert sorted(calls) == ["_generators", "_validate"]
    calls.clear()
    dcp.embed_finite_monoid(dcp.FiniteMonoid(("e", "a"), 0, ((0, 1), (1, 0))))
    assert sorted(calls) == ["_generators", "_validate"]


def test_shared_parser_keeps_no_state(capsys):
    good = [
        ("eval", "S(p1,p2)", "--in", "T", "--format", "ascii"),
        ("eval", "S(p1,p2)"),
        ("order", "S(p2,p1)", "--max", "5"),
    ]
    before = [run_cli(capsys, *argv) for argv in good]
    assert before[1] == (0, "1\n", "")  # the first call's --in T did not stick
    with pytest.raises(SystemExit) as usage:
        main(["eval", "S(p1,p2)", "--format", "svg"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert [run_cli(capsys, *argv) for argv in good] == before


DEEP = 10_000
DEEP_ASCII = 1_500  # ascii lines indent by depth: 10^4 levels would print ~400 MB


def _right_comb(fmt, pairings, last):
    """S(p1,S(p1,...S(p1,last)...)) with the given number of pairings, rendered."""
    if fmt == "sexpr":
        return "S(p1," * pairings + last + ")" * pairings
    if fmt == "ascii":
        lines = []
        for i in range(pairings):
            lines += [("    " * (i - 1) + "`-- " if i else "") + "S", "    " * i + "|-- p1"]
        return "\n".join(lines + ["    " * (pairings - 1) + "`-- " + last])
    lines = ["digraph tree {", '  n0 [label="S"];']
    for i in range(pairings):
        node = 2 * i
        right = '[label="S"]' if i < pairings - 1 else f'[label="{last}", shape=box]'
        lines += [f'  n{node + 1} [label="p1", shape=box];', f"  n{node} -> n{node + 1};",
                  f"  n{node + 2} {right};", f"  n{node} -> n{node + 2};"]
    return "\n".join(lines + ["}"])


@pytest.mark.parametrize("fmt", ["sexpr", "ascii", "dot"])
@pytest.mark.parametrize("command", [("eval",), ("eval", "--in", "T"), ("reduce",)])
def test_deep_nesting(capsys, command, fmt):
    # parse, evaluate, reduce and render keep no frame per level
    paren = "(" * DEEP + "p1" + ")" * DEEP
    leaf = 'digraph tree {\n  n0 [label="p1", shape=box];\n}' if fmt == "dot" else "p1"
    assert run_cli(capsys, command[0], paren, *command[1:], "--format", fmt) == (0, leaf + "\n", "")
    n = DEEP_ASCII if fmt == "ascii" else DEEP
    comb = "S(p1," * n + "p2" + ")" * n
    # in U, and after reduce, the innermost S(p1,p2) retracts to 1
    expected = _right_comb(fmt, n, "p2") if "T" in command else _right_comb(fmt, n - 1, "1")
    assert run_cli(capsys, command[0], comb, *command[1:], "--format", fmt) == (0, expected + "\n", "")


COMB = 3_000
# S(p1,S(p1,...S(p1,p2)...)): leaves p1 at paths p1p2^j, and p2 at p2^COMB.
# In U the innermost S(p1,p2) retracts, leaving COMB leaves p1 and one 1.
DEEP_COMB_RUNS = [
    (("classify-colors",), 0, "cofinite: true\nindependent: false\n"
     "minimally_cofinite: false\nmaximally_independent: false\n", ""),
    (("beta",), 0, "{" + ", ".join([f"p1{'p2' * j}*p1" for j in range(COMB)]
                                   + ["p2" * COMB + "*p2"]) + "}\n", ""),
    (("inv", "--side", "left"), 0, "p2" * (COMB - 1) + "\n", ""),
    (("inv", "--side", "right"), 1, "",
     "error: no right inverse: leaf colors are not left independent\n"),
    (("inv", "--side", "unit"), 1, "", "error: not a unit\n"),
    (("order", "--max", "2"), 1, "", "error: not a unit\n"),
]


@pytest.mark.parametrize("command, code, out, err", DEEP_COMB_RUNS,
                         ids=[" ".join(run[0]) for run in DEEP_COMB_RUNS])
def test_deep_comb_leaf_walks(capsys, command, code, out, err):
    # leaf listings and leaf colors walk with explicit stacks
    comb = "S(p1," * COMB + "p2" + ")" * COMB
    assert run_cli(capsys, command[0], comb, *command[1:]) == (code, out, err)


def test_inv_unit_of_a_long_chain(capsys):
    # the unit test reads the suffix trie; enumerating 2^64 words never ends
    k = 64
    text = chain_text(k)
    code, out, err = run_cli(capsys, "inv", text, "--side", "unit")
    assert (code, err) == (0, "")
    element, inverse = eval_u(parse(text)), eval_u(parse(out))
    assert inverse.degree == k + 1
    assert mul_U(element, inverse) == ONE_U and mul_U(inverse, element) == ONE_U


@pytest.mark.parametrize("k", [300, 1_500])
def test_inv_sides_of_a_deep_chain(capsys, k):
    # the chain's colors are a complete suffix code, so all three sides give
    # its trie; trie and inverse tree are built without a frame per level
    text = chain_text(k)
    runs = [run_cli(capsys, "inv", text, "--side", side) for side in ("left", "right", "unit")]
    code, out, err = runs[0]
    assert (code, err) == (0, "") and runs == [runs[0]] * 3
    if k <= 300:  # mul_U recurses once per level of its left operand
        element, inverse = eval_u(parse(text)), eval_u(parse(out))
        assert inverse.degree == k + 1
        assert mul_U(element, inverse) == ONE_U and mul_U(inverse, element) == ONE_U


def test_cli_golden_corpus(monkeypatch):
    # every recorded run: same exit code, stdout and stderr, byte for byte
    monkeypatch.chdir(ROOT)
    runs = load_golden()
    assert len(runs) == 455
    for run in runs:
        assert run_main(run["argv"]) == run, run["argv"]


def test_module_entry_point():
    # the subprocess does not see pytest's pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cpmonoid", "eval", "S(p1,p2)"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
    proc = subprocess.run(
        [sys.executable, "-m", "cpmonoid", "eval", "S(p1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
