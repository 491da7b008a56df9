"""Run a cpmonoid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload invert-families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, 30 s each

Every process runs one workload, fresh, one process at a time.  With
``--trace 0`` four processes only set up (import, input generation,
warm-up) and three set up and then measure a third of ``--seconds``
each; the end-to-end metrics pool the three, and ``setup_s`` is the
median of all seven set-ups.  Spreading the measurement over processes and
time averages out per-process differences.  Every time is divided by the
host's slowdown at that moment, measured on a fixed kernel (see
worker.py), so the values read as on a host of the reference speed and
the host's drifts in speed cancel; the table before the result line also
shows the raw values.
With ``--trace 1`` one process measures and reports the per-layer metrics
and writes its spans under ``.bench_out/``.  The last line of output is
one JSON object: correct, attempted, failed and the metrics with units.
Exits 2 without a result when the checkout has no cpmonoid sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("success_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_ONLY_PROCESSES = 4
REFERENCE_KERNEL_S = 0.002  # the kernel's time on a host of the reference speed
LOCAL_SAMPLES = 9  # kernel samples, about 1.8 measured seconds, that set an operation's slowdown
MEASURING_PROCESSES = 3
DEADLINE_S = 170  # every run ends within the benchmark's 180 s limit


class BenchError(Exception):
    pass


def child(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def slowdowns(report: dict) -> list[float]:
    """Each operation's slowdown: the median of the LOCAL_SAMPLES kernel
    samples nearest to it, over the reference kernel time."""
    at = [i for i, _ in report["kernel"]]
    k = [x / REFERENCE_KERNEL_S for _, x in report["kernel"]]
    w = min(LOCAL_SAMPLES, len(k))
    window = [statistics.median(k[lo:lo + w]) for lo in range(len(k) - w + 1)]
    out, j = [], 0
    for i in range(len(report["seconds"])):
        while j + 1 < len(at) and at[j + 1] <= i:
            j += 1
        out.append(window[min(max(0, j - w // 2), len(k) - w)])
    return out


def setup_slowdown(report: dict) -> float:
    return statistics.median(report["setup_kernel"]) / REFERENCE_KERNEL_S


def end_to_end(reports: list[dict], setups: list[dict], scaled: bool = True) -> dict[str, float]:
    """Pool the measuring processes' raw data into the end-to-end metrics.

    With ``scaled``, each time is divided by the slowdown at which it was
    measured.  A failed operation's latency is infinite, so it counts as
    slower than any latency limit.
    """
    slow = [slowdowns(r) if scaled else [1.0] * len(r["seconds"]) for r in reports]
    lat = sorted(x / f for r, s in zip(reports, slow) for x, f in zip(r["latencies"], s))
    failed = sum(r["failed"] for r in reports)
    completed = len(lat) - failed
    return {
        "ops_per_s": completed / sum(x / f for r, s in zip(reports, slow) for x, f in zip(r["seconds"], s)),
        "latency_p50_ms": percentile(lat, 0.50) * 1e3,
        "latency_p90_ms": percentile(lat, 0.90) * 1e3,
        "success_rate": completed / len(lat),
        "setup_s": statistics.median(r["setup_s"] / (setup_slowdown(r) if scaled else 1.0) for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, pooled worker report) for one workload."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload}-seed{seed}.tsv"
        reports = [child(base + ["--seconds", str(seconds), "--trace", "1", "--spans", str(spans)], deadline)]
        values = reports[0]["per_layer"]
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        setups = [child(base + ["--setup-only", "--part", str(i)], deadline)
                  for i in range(SETUP_ONLY_PROCESSES)]
        share = str(seconds / MEASURING_PROCESSES)
        reports = [child(base + ["--seconds", share, "--trace", "0", "--part", str(i)], deadline)
                   for i in range(MEASURING_PROCESSES)]
        values = end_to_end(reports, setups + reports)
        raw = end_to_end(reports, setups + reports, scaled=False)
        units = [(name, unit) for name, unit, _ in END_TO_END]
    if set(values) != {name for name, _ in units}:
        raise BenchError(f"worker reported metrics {sorted(values)}")
    errors: dict[str, int] = {}
    for r in reports:
        for kind, count in r["errors"].items():
            errors[kind] = errors.get(kind, 0) + count
    pooled = {
        "processes": len(reports),
        "passes": sum(r["passes"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "wrong": sum(r["wrong"] for r in reports),
        "errors": errors,
        "span_problem": reports[0].get("span_problem"),
        "layer_self_s": reports[0].get("layer_self_s"),
    }
    if not trace:
        pooled["raw"] = raw
        pooled["slowdowns"] = ([statistics.median(slowdowns(r)) for r in reports]
                               + [setup_slowdown(r) for r in setups + reports])
    line = {
        "correct": pooled["wrong"] == 0 and pooled["span_problem"] is None,
        "attempted": pooled["attempted"],
        "failed": pooled["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return line, pooled


def show(workload: str, line: dict, report: dict) -> None:
    print(f"== {workload}: {report['attempted']} operations in {report['passes']} passes "
          f"over {report['processes']} processes, {report['failed']} failed, "
          f"{report['wrong']} wrong answers")
    for kind, count in sorted(report["errors"].items()):
        print(f"   failed  {kind} x{count}")
    if report.get("span_problem"):
        print(f"   spans inconsistent: {report['span_problem']}")
    if report.get("layer_self_s"):
        total = sum(report["layer_self_s"].values())
        shares = ", ".join(f"{k} {v / total:.0%}" for k, v in sorted(
            report["layer_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"   self time by layer: {shares}")
    if "raw" in report:
        print("   slowdown against the reference kernel: "
              + ", ".join(f"{x:.3f}" for x in report["slowdowns"])
              + " (median of each measuring process, then set-ups); raw values in brackets")
    for name, metric in line["metrics"].items():
        raw = f"  [{report['raw'][name]:.6g}]" if "raw" in report else ""
        print(f"   {name:34s} {metric['value']:>14.6g} {metric['unit']}{raw}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cpmonoid" / "__init__.py").is_file():
        print(f"error: no cpmonoid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for workload in names:
            line, report = run_workload(workload, args.seed, args.seconds, args.trace)
            show(workload, line, report)
            print(json.dumps(line))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
