"""The chronocas benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload bst-update --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it runs repetitions of
the workload, each in a fresh interpreter with instrumentation and poisoning
off, until ``--seconds`` of measured time have passed (at least
``MIN_REPS``), and reports the end-to-end metrics of ``BENCHMARK.json``:
throughputs, set-up time and peak RSS as medians over repetitions, latency
percentiles over the pooled samples.  With ``--trace 1`` it runs one
untraced repetition, the same repetition traced, one under ``tracemalloc``,
the exact gate count and the per-call table, and reports the per-layer
metrics.

Every operation result is checked against the sequential oracle.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it gives the details (sample counts, error rate, worker errors,
interpreter).  Any worker error or oracle mismatch prints the error, reports
no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("bst-update", "bst-rq", "queue-churn")
# The read-side operation of each workload, reported under the read_* metrics.
READ_OP = {"bst-update": "find", "bst-rq": "range_query", "queue-churn": "scan"}
MIN_REPS = 3
DEADLINE_S = 150.0
TRACE_KINDS = ("timed", "traced", "mem", "gate", "micro")


def launch(kind: str, name: str, seed: int, idx: int, timeout: float) -> dict:
    """Run one child measurement in a fresh interpreter and parse its report."""
    cmd = [sys.executable, str(HERE / "child.py"), kind, name, str(seed), str(idx)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return _lost(f"{kind} measurement still running after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _lost(f"{kind} measurement exited {proc.returncode}:\n"
                     f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _lost(message: str) -> dict:
    return {"attempted": 1, "failed": 1, "errors": [message]}


def end_to_end(name: str, seed: int, seconds: float, run_child) -> tuple:
    started = time.monotonic()
    reports, measured = [], 0.0
    while len(reports) < MIN_REPS or measured < seconds:
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 0:
            reports.append(_lost(f"deadline of {DEADLINE_S:.0f} s reached after "
                                 f"{len(reports)} repetitions"))
            break
        report = run_child("timed", name, seed, len(reports), left)
        reports.append(report)
        if report["failed"]:
            break
        measured += report["figures"]["window_s"]
    if any(r["failed"] for r in reports):
        return reports, {}, {}
    figs = [r["figures"] for r in reports]
    update_lat = sorted(ns for f in figs for ns in f["update_lat_ns"])
    read_lat = sorted(ns for f in figs for ns in f["read_lat_ns"])

    def median(fn):
        return statistics.median(fn(f) for f in figs)

    metrics = {
        "ops_per_s": median(lambda f: (f["update_ops"] + f["read_ops"]) / f["window_s"]),
        "update_ops_per_s": median(lambda f: f["update_ops"] / f["window_s"]),
        "read_ops_per_s": median(lambda f: f["read_ops"] / f["window_s"]),
        "update_p50_us": _pct_us(update_lat, 0.50),
        "update_p95_us": _pct_us(update_lat, 0.95),
        "read_p50_us": _pct_us(read_lat, 0.50),
        "rss_peak_mb": median(lambda f: f["rss_peak_mb"]),
        "setup_s": median(lambda f: f["setup_s"]),
    }
    # p99 tails are reported but carry no bound: on bst-rq they sit on the
    # knees that the interpreter lock's switch interval puts into both latency
    # distributions, and spread by 0.3 to 0.6 over seeds (DESIGN.md).
    details = {"repetitions": len(reports), "measured_s": measured,
               "samples": {"update": len(update_lat), "read": len(read_lat)},
               "tails": {"update_p99_us": _pct_us(update_lat, 0.99),
                         "read_p99_us": _pct_us(read_lat, 0.99)},
               "switchinterval": reports[0]["switchinterval"]}
    return reports, metrics, details


def _pct_us(ordered: list, q: float) -> float:
    """Nearest-rank percentile of ascending ns samples, in us; 0 if none."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] / 1e3


def per_layer(name: str, seed: int, run_child) -> tuple:
    started = time.monotonic()
    reports, metrics = {}, {}
    for kind in TRACE_KINDS:
        left = DEADLINE_S - (time.monotonic() - started)
        report = run_child(kind, name, seed, 0, left) if left > 0 else _lost(
            f"deadline of {DEADLINE_S:.0f} s reached before the {kind} measurement")
        reports[kind] = report
        if report["failed"]:
            return list(reports.values()), {}, {}
        metrics.update(report.get("metrics", {}))
    untraced, traced = reports["timed"]["figures"], reports["traced"]["figures"]

    def rate(f):
        return (f["update_ops"] + f["read_ops"]) / f["window_s"]

    metrics["trace.overhead_ratio"] = rate(untraced) / rate(traced)
    metrics["bst.range_query.cpu_p99_us"] = _pct_us(
        sorted(reports["traced"]["range_query_cpu_ns"]), 0.99)
    details = {"traced_ops": traced["update_ops"] + traced["read_ops"],
               "traced_window_s": traced["window_s"]}
    return list(reports.values()), metrics, details


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None, run_child=launch) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "chronocas" / "__init__.py").is_file():
        print(f"error: chronocas sources not found under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    if args.trace:
        reports, metrics, details = per_layer(args.workload, args.seed, run_child)
    else:
        reports, metrics, details = end_to_end(args.workload, args.seed,
                                               args.seconds, run_child)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r.get("errors", [])]
    missing = sorted(set(units) - set(metrics)) if not failed else []
    if missing:
        errors.append(f"metrics not produced: {missing}")
    correct = not failed and not missing
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "read_op": READ_OP[args.workload],
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": errors, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    })
    print(json.dumps(details))
    for e in errors:
        print(e, file=sys.stderr)
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": ({n: {"value": metrics[n], "unit": u} for n, u in units.items()}
                          if correct else {})}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
