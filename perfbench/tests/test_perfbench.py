"""Tests of the benchmark itself: generators, checkers, tracer and output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as R  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

PKG = worker.load_package()
LIB = W.Library(PKG)


def first_pass(workload: str, seed: int):
    ctx = W.context(ROOT, workload)
    return worker.Passes(W.WORKLOADS[workload], LIB, ctx, workload, seed)[0]


@pytest.fixture(scope="module", params=list(W.WORKLOADS))
def workload(request):
    return request.param


def test_generators_are_deterministic(workload):
    a = [(op.kind, op.input) for op in first_pass(workload, 7)]
    b = [(op.kind, op.input) for op in first_pass(workload, 7)]
    c = [(op.kind, op.input) for op in first_pass(workload, 8)]
    assert a == b
    assert a != c


def test_pass_mix_is_fixed(workload):
    kinds = lambda seed: sorted(op.kind for op in first_pass(workload, seed))
    assert kinds(1) == kinds(2)


def corrupt(result):
    """A wrong answer of the same type as the right one."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if result is None:
        return PKG.ucp.from_word(PKG.words.P1)
    if isinstance(result, PKG.words.FamilyClassification):
        return dataclasses.replace(result, cofinite=not result.cofinite)
    if isinstance(result, PKG.ucp.UElem):
        return PKG.ucp.mul_U(result, PKG.ucp.from_word(PKG.words.P2))
    if isinstance(result, tuple):
        code, out = result
        return code, out + "x"
    if isinstance(result, dict):
        labels = sorted(result)
        if len(labels) == 1:
            return {labels[0]: PKG.ucp.from_word(PKG.words.P1)}
        swapped = dict(result)
        swapped[labels[0]], swapped[labels[1]] = result[labels[1]], result[labels[0]]
        return swapped
    raise TypeError(type(result))


def test_corrupted_answers_count_as_failures(workload):
    ops = [op for op in first_pass(workload, 3) if not op.kind.startswith(("deep_", "gen_units"))]
    seen = {}
    for op in ops:
        if op.kind not in seen and op.size <= 40:
            seen[op.kind] = op
    assert seen
    for op in seen.values():
        result = op.run()
        assert op.check(result), op.kind
        tally = worker.Tally()
        tally.add(op, 0.001, corrupt(result), None)
        assert (tally.failed, tally.wrong) == (1, 1), op.kind
        tally.add(op, 0.001, result, None)
        assert (tally.failed, len(tally.latencies)) == (1, 2)


def test_raised_errors_and_exits_count_as_failures():
    def deep():
        raise RecursionError("maximum recursion depth exceeded")

    ops = [W.Op("deep", 1, None, deep, lambda r: True),
           W.Op("exit", 1, None, lambda: sys.exit(2), lambda r: True),
           W.Op("ok", 1, None, lambda: 1, lambda r: r == 1)]
    tally = worker.Tally()
    timed = worker.run_pass(ops, tally)
    assert (tally.failed, tally.wrong) == (2, 0)
    assert tally.errors == {"deep: RecursionError": 1, "exit: SystemExit": 1}
    report = {"latencies": tally.latencies, "seconds": tally.seconds, "failed": tally.failed,
              "peak_rss_mb": 1.0, "kernel": [(0, run.REFERENCE_KERNEL_S)]}
    metrics = run.end_to_end([report], [{"setup_s": 0.1, "setup_kernel": [run.REFERENCE_KERNEL_S]}])
    assert metrics["success_rate"] == pytest.approx(1 / 3)
    assert metrics["latency_p90_ms"] == float("inf")


def test_times_are_divided_by_the_local_slowdown():
    ref = run.REFERENCE_KERNEL_S
    # Forty operations of 10 ms, a kernel sample before every second one;
    # the host runs at half speed for the first twenty.
    report = {"latencies": [0.01] * 39 + [math.inf], "seconds": [0.01] * 40, "failed": 1,
              "peak_rss_mb": 1.0, "kernel": [(i, 2 * ref if i < 20 else ref) for i in range(0, 40, 2)]}
    setup = {"setup_s": 0.3, "setup_kernel": [1.5 * ref, 1.4 * ref, 1.6 * ref]}
    assert run.slowdowns(report) == [2.0] * 20 + [1.0] * 20
    scaled = run.end_to_end([report], [setup])
    raw = run.end_to_end([report], [setup], scaled=False)
    assert raw["ops_per_s"] == pytest.approx(39 / 0.4)
    assert scaled["ops_per_s"] == pytest.approx(39 / 0.3)
    assert (raw["latency_p50_ms"], scaled["latency_p50_ms"]) == pytest.approx((10.0, 5.0))
    assert scaled["setup_s"] == pytest.approx(0.2)
    assert scaled["success_rate"] == raw["success_rate"] == 39 / 40
    assert worker.kernel() > 0


def test_reference_agrees_with_the_library():
    rng = random.Random(5)
    for _ in range(60):
        a = R.random_reduced_tree(rng, rng.randint(1, 25))
        b = R.random_reduced_tree(rng, rng.randint(1, 25))
        e = R.expand(a, rng.randint(0, 40), rng)
        assert R.reduce(e) == a
        assert R.parse(R.render(e)) == e
        assert LIB.ours(PKG.ucp.reduce(LIB.tree(e))) == a
        assert LIB.ours(PKG.ucp.mul_U(LIB.elem(a), LIB.elem(b))) == R.mul_reduced(a, b)
        assert str(PKG.branch.beta(LIB.tree(e))) == R.beta_text(e)
    g = (2, 0, 3, 1)
    for shape in R.all_shapes(4):
        unit = LIB.elem(R.perm_tree(shape, g))
        assert PKG.invert.unit_order(unit, 10) == R.perm_order(g)
        inverse = R.reduce(R.perm_tree(shape, R.perm_inverse(g)))
        assert LIB.ours(PKG.invert.unit_inverse(unit)) == inverse


def test_deep_inputs_nest_as_generated():
    rng = random.Random(2)
    assert R.nesting(W.deep_tree(rng, 500)) == 500
    # The reference handles depths far past the interpreter's recursion limit.
    t = W.deep_tree(rng, 5000)
    text = R.render(t)
    assert R.render(R.parse(text)) == text
    assert R.nesting(R.parse(text)) == 5000


def test_tracer_spans_nest_and_sum_to_wall_time():
    ops = [op for op in first_pass("embed-tables", 1) if op.size <= 12]
    tracer = T.Tracer()
    tracer.install(PKG)
    try:
        tally = worker.Tally()
        wall = worker.run_pass(ops, tally, tracer)
    finally:
        tracer.uninstall()
    spans, created = tracer.take()
    selfs = T.self_times(spans)
    assert T.check_spans(spans, selfs, wall - tracer.excluded) is None
    metrics = T.per_layer(spans, selfs, created)
    assert metrics["dcp.embed_finite_monoid.calls"] == len(ops)
    assert metrics["words.family_left_cofinite.calls"] == 0
    assert metrics["dcp.embed.verify_mul_calls"] == metrics["ucp.mul_U.calls"] > 0
    assert tally.failed == 0
    # Uninstalling restores every patched binding.
    assert PKG.cli.reduce is PKG.invert.reduce is PKG.ucp.reduce
    assert not hasattr(PKG.ucp.reduce, "__wrapped__")


def test_recursive_function_gets_one_span_per_outermost_call():
    tracer = T.Tracer()
    tracer.install(PKG)
    try:
        tree = LIB.tree(R.random_reduced_tree(random.Random(1), 30))
        tracer.op = 0
        PKG.tmagma.mul(tree, tree)
        tracer.op = None
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert [s[T.NAME] for s in spans] == ["tmagma.mul"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(T.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = run.run_workload("invert-families", 1, 1, trace)
        assert line["correct"] and line["attempted"] > 0
        assert [(n, m["unit"]) for n, m in line["metrics"].items()] == [
            (m["name"], m["unit"]) for m in spec[key]
        ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
