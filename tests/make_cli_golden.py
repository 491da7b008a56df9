"""Record the CLI golden corpus: argv, exit code, stdout and stderr per run.

Each run calls ``cpmonoid.cli.main`` in process from the repository root.
``tests/test_cli.py::test_cli_golden_corpus`` replays every recorded run
and compares all four fields, so a refactor that changes any CLI byte
fails it.  Regenerate the corpus only when an output change is intended,
and list the changed runs in CHANGES.md:

    PYTHONPATH=src python tests/make_cli_golden.py

With ``--check`` it writes nothing: it replays every recorded run, prints
the argv of each run whose exit code, stdout or stderr now differs, and
exits 1 if any does (0 if none).  Those argvs are the list for CHANGES.md:

    PYTHONPATH=src python tests/make_cli_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from cpmonoid.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden" / "cli_runs.jsonl"

EXPRESSIONS = [
    # values
    "1",
    "p1",
    "p2p1",
    "S(p1,p2)",
    "S(p2,p1)",
    "S(1,1)",
    "S(1,S(1,1))",
    "S(S(p2,p1p1),p2p1)",
    "S(S(p1,p1p2),p2p2)",
    "S(S(p1p1,p2p1),p2)",
    "S(S(p2,p1p1),p2p1) * S(p2,p1)",
    "S(p2,S(p1p1p1,p2p1)) * S(S(p2,p2p2),S(p2p2p2,p1p2p2))",
    "(S(1,1) * p1) S(p2,p2p2)",
    "S(p2,p1)^3 * p1p2",
    "(p1 p2)^2",
    "p1 ^ 3",
    "p1^01",
    "S(S(p2,p1),p1p2)^2^2",
    # whitespace: space, tab, newline, NBSP, EM SPACE, \x1c
    " S ( p1 , p2 ) ",
    "S(p1,\tp2)\n",
    "S(p1, p2) \x1c",
    # parse errors
    "",
    "2",
    "p3",
    "p1p",
    "x",
    "p1^0",
    "S(p1",
    "S(p1,p2))",
    "S p1",
    "S(p1,,p3",
    # non-ASCII digits
    "p1^²",
    "p1^١",
    "١",
]

COMMANDS = [
    ["eval", "{}"],
    ["eval", "{}", "--in", "T"],
    ["eval", "{}", "--format", "ascii", "--pi"],
    ["eval", "{}", "--in", "T", "--format", "dot"],
    ["reduce", "{}"],
    ["reduce", "{}", "--format", "ascii"],
    ["beta", "{}"],
    ["equiv", "{}", "1"],
    ["classify-colors", "{}"],
    ["inv", "{}", "--side", "left"],
    ["inv", "{}", "--side", "right"],
    ["inv", "{}", "--side", "unit"],
    ["order", "{}", "--max", "7"],
]


def argvs() -> list[list[str]]:
    out = [
        [expr if arg == "{}" else arg for arg in command]
        for command in COMMANDS
        for expr in EXPRESSIONS
    ]
    for table in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        out.append(["embed", table.relative_to(ROOT).as_posix()])
    out.append(["gen-units", "--depth", "4"])
    return out


def run_main(argv: list[str]) -> dict:
    """One in-process CLI run; an escaping exception is recorded by type."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # recorded, so that a crash is visible as a change
            code = f"raised {type(exc).__name__}"
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def load() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write(path: Path) -> int:
    runs = [run_main(argv) for argv in argvs()]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(json.dumps(run) + "\n")
    return len(runs)


def check() -> int:
    """Print the argv of every recorded run that now differs; 1 if any does."""
    changed = [run["argv"] for run in load() if run_main(run["argv"]) != run]
    for argv in changed:
        print(json.dumps(argv))
    print(f"{len(changed)} recorded runs differ", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    checking = sys.argv[1:] == ["--check"]
    target = CORPUS if checking or len(sys.argv) < 2 else Path(sys.argv[1]).resolve()
    os.chdir(ROOT)  # fixture paths in argv are relative to the repository root
    if checking:
        sys.exit(check())
    print(f"{write(target)} runs written to {target}")
