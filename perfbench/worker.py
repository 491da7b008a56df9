"""One workload in one fresh process: set up, run passes, report as JSON.

Started by run.py; prints a single JSON object on stdout: the set-up time
and either the raw measurements (latencies, per-operation seconds,
kernel samples, peak memory) or, with ``--trace 1``, the per-layer
metrics.  With ``--setup-only`` it
stops after set-up.

The host's speed drifts by up to half within a minute, so the worker also
times a fixed kernel of the benchmark's own (``kernel``) right after
set-up and every ``SAMPLE_EVERY_S`` of measured time, and reports the
samples with the measurements; run.py scales the times by them.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse
import gc
import json
import math
import random
import resource
import sys
from pathlib import Path

import tracer as T
import workloads as W

ROOT = Path(__file__).resolve().parent.parent

SAMPLE_EVERY_S = 0.2  # measured seconds between two kernel samples
SETUP_SAMPLES = 9


def load_package():
    """Import cpmonoid from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cpmonoid

    if Path(cpmonoid.__file__).resolve().parent != (src / "cpmonoid").resolve():
        raise ImportError(f"cpmonoid was imported from {cpmonoid.__file__}, not {src}")
    for layer in ("words", "tmagma", "ucp", "branch", "invert", "dcp", "cli"):
        __import__(f"cpmonoid.{layer}")
    return cpmonoid


class Passes:
    """Pass p of a workload is built from its own seeded generator.

    Each measuring process of a run is a separate part with passes of its
    own, so a run averages over three times as many instances.
    """

    def __init__(self, build, lib, ctx, workload: str, seed: int, part: int = 0):
        self.build, self.lib, self.ctx = build, lib, ctx
        self.key = f"{workload}:{seed}:{part}"

    def __getitem__(self, p: int):
        return self.build(self.lib, random.Random(f"{self.key}:{p}"), self.ctx)


def warmup_ops(ops):
    """The smallest operation of each kind."""
    smallest = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    return list(smallest.values())


class Tally:
    """Latencies and failures of the measured operations."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds; inf for a failed operation
        self.seconds: list[float] = []  # seconds, failed operations too
        self.timed = 0.0
        self.failed = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}

    def add(self, op, seconds: float, result, error: BaseException | None) -> None:
        self.timed += seconds
        self.seconds.append(seconds)
        if error is not None:
            self.failed += 1
            key = f"{op.kind}: {type(error).__name__}"
            self.errors[key] = self.errors.get(key, 0) + 1
            self.latencies.append(math.inf)
        elif not op.check(result):
            self.failed += 1
            self.wrong += 1
            key = f"{op.kind}: wrong answer"
            self.errors[key] = self.errors.get(key, 0) + 1
            self.latencies.append(math.inf)
        else:
            self.latencies.append(seconds)


def kernel() -> float:
    """Seconds for a fixed loop of integer arithmetic, independent of cpmonoid.

    It stays in the CPU's innermost cache, so the calls measured between
    two samples do not change its time; only the host's speed does.
    """
    t0 = perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    return perf_counter() - t0


def run_op(op, tracer=None, op_id: int = 0):
    """Call op.run once, timed; (seconds, result, error)."""
    result = error = None
    t0 = perf_counter()
    if tracer is not None:
        tracer.op = op_id
        root = tracer.open(T.OP_SPAN)
    try:
        result = op.run()
    except (Exception, SystemExit) as exc:  # a failure to count, not to stop on
        error = exc
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.op = None
    return perf_counter() - t0, result, error


def run_pass(ops, tally: Tally, tracer=None, first_id: int = 0) -> float:
    """Run and check every operation; returns the timed seconds."""
    timed = 0.0
    for i, op in enumerate(ops):
        seconds, result, error = run_op(op, tracer, first_id + i)
        timed += seconds
        tally.add(op, seconds, result, error)
    return timed


def next_pass(passes, p: int):
    """Pass p, built after the previous pass's garbage is collected.

    The new inputs are frozen like the first pass's, so the collector runs
    during the timed calls scan only what the calls themselves allocate.
    """
    gc.unfreeze()
    gc.collect()
    ops = passes[p]
    gc.collect()
    gc.freeze()
    return ops


def measure(passes, seconds: float, first_pass) -> tuple[Tally, int, list[tuple[int, float]]]:
    """Whole passes until the timed seconds reach the budget.

    Between operations, a kernel sample every SAMPLE_EVERY_S timed seconds,
    recorded with the index of the operation that follows it.
    """
    tally = Tally()
    samples: list[tuple[int, float]] = []
    due = 0.0
    p, ops = 0, first_pass
    while True:
        for op in ops:
            if tally.timed >= due:
                samples.append((len(tally.seconds), kernel()))
                due = tally.timed + SAMPLE_EVERY_S
            tally.add(op, *run_op(op))
        p += 1
        if tally.timed >= seconds:
            return tally, p, samples
        ops = None
        ops = next_pass(passes, p)


def measure_traced(passes, seconds: float, first_pass, tracer, spans_path: Path | None):
    """Pairs of (untraced, traced) runs of one pass until the budget is used.

    Returns the per-layer metrics and the self time of each layer, both
    averaged over the traced passes, the tally of every run, a reason when
    the spans are inconsistent, and the number of pairs.
    """
    tally = Tally()
    totals: dict[str, float] = {}
    layers: dict[str, float] = {}
    untraced = traced = 0.0
    p, ops, op_id, problem = 0, first_pass, 0, None
    out = open(spans_path, "w", encoding="utf-8") if spans_path else None
    try:
        while True:
            untraced += run_pass(ops, tally)
            excluded_before = tracer.excluded
            wall = run_pass(ops, tally, tracer, op_id)
            op_id += len(ops)
            traced += wall
            spans, created = tracer.take()
            selfs = T.self_times(spans)
            problem = problem or T.check_spans(spans, selfs, wall - (tracer.excluded - excluded_before))
            for name, value in T.per_layer(spans, selfs, created).items():
                totals[name] = totals.get(name, 0.0) + value
            for s, x in zip(spans, selfs):
                layer = s[T.NAME].partition(".")[0]
                layers[layer] = layers.get(layer, 0.0) + x
            if out is not None:
                T.write(spans, out)
            del spans, selfs
            p += 1
            if untraced + traced >= seconds:
                break
            ops = None
            ops = next_pass(passes, p)
    finally:
        if out is not None:
            out.close()
    metrics = {name: value / p for name, value in totals.items()}
    T.ratios(metrics, traced, untraced)
    return metrics, {k: v / p for k, v in layers.items()}, tally, problem, p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0, help="which measuring process of the run this is")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    package = load_package()
    build = W.WORKLOADS[args.workload]
    lib = W.Library(package)
    ctx = W.context(ROOT, args.workload)
    passes = Passes(build, lib, ctx, args.workload, args.seed, args.part)
    first = passes[0]
    run_pass(warmup_ops(first), Tally())
    gc.collect()
    gc.freeze()  # the benchmark's own inputs stay out of the collector's scans
    setup_s = perf_counter() - START
    report = {"setup_s": setup_s, "setup_kernel": [kernel() for _ in range(SETUP_SAMPLES)]}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace:
        tracer = T.Tracer()
        tracer.install(package)
        metrics, layers, tally, problem, p = measure_traced(passes, args.seconds, first, tracer, args.spans)
        tracer.uninstall()
        report.update(per_layer=metrics, layer_self_s=layers, span_problem=problem)
    else:
        tally, p, samples = measure(passes, args.seconds, first)
        report.update(
            latencies=tally.latencies, seconds=tally.seconds, kernel=samples,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    report.update(
        passes=p, attempted=len(tally.latencies), failed=tally.failed,
        wrong=tally.wrong, errors=tally.errors,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
