"""One measurement of the chronocas benchmark in a fresh interpreter.

    python3 perfbench/child.py KIND WORKLOAD SEED REP

KIND is one of:

* ``timed``  - one repetition with instrumentation and poisoning off;
* ``traced`` - the same repetition with layer spans and ``instrument`` on;
* ``mem``    - the same repetition under ``tracemalloc``;
* ``gate``   - the exact gated-access count per operation;
* ``micro``  - per-call costs of single layers and the plain-CAS ratio.

Prints one JSON object on stdout.  A worker error or an oracle mismatch is
reported in that object; the parent decides the exit status of the run.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chronocas import instrument, reclaim  # noqa: E402
from chronocas.vcas import VNode  # noqa: E402

import micro  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def require_clean_conditions() -> None:
    """Timed figures are taken with instrumentation and poisoning off."""
    if instrument.ENABLED:
        raise RuntimeError("instrument.ENABLED is set in a timed run")
    if "CHRONOCAS_DEBUG_POISON" in os.environ or reclaim.POISON_ON:
        raise RuntimeError("CHRONOCAS_DEBUG_POISON is set in a timed run")


def measure(rep: workloads.Rep, before_verify=None) -> dict:
    """Set up, run and verify one repetition; ``before_verify`` may add
    fields read right after the timed window."""
    rep.setup()
    rep.run()
    extra = before_verify() if before_verify else {}
    out = rep.verify()
    out["figures"] = rep.figures()
    out.update(extra)
    return out


def timed(name: str, seed: int, idx: int) -> dict:
    require_clean_conditions()
    out = measure(workloads.Rep(name, seed, idx))
    out["switchinterval"] = sys.getswitchinterval()
    return out


def traced(name: str, seed: int, idx: int) -> dict:
    instrument.enable(True)
    instrument.reset()
    tracer = spans.Tracer()
    rep = workloads.Rep(name, seed, idx)
    rep.setup()
    tracer.install()
    try:
        rep.run()
    finally:
        tracer.uninstall()
    hops = instrument.hop_histogram()
    out = rep.verify()
    out["figures"] = rep.figures()
    totals = tracer.totals()
    out["metrics"] = layer_metrics(totals, hops)
    # a breached traversal bound is a defect of the program, so it fails the run
    violations = instrument.violation_count()
    out["metrics"]["instrument.step_bound_violations"] = violations
    out["failed"] += violations
    out["errors"] += instrument.violations()[:workloads.MAX_MESSAGES]
    out["range_query_cpu_ns"] = totals["bst.range_query"]["cpu_ns"]
    return out


def layer_metrics(totals: dict, hops: dict) -> dict:
    m = {}

    def calls(name):
        return totals[name]["calls"]

    def self_us(name):
        c = calls(name)
        return totals[name]["self_ns"] / c / 1e3 if c else 0.0

    def fail_ratio(name):
        c = calls(name)
        return totals[name]["fails"] / c if c else 0.0

    for name in ("atomic.cas", "atomic.field_cas", "camera.take_snapshot",
                 "vcas.cas", "vcas.read_snapshot", "reclaim.retire",
                 "reclaim.advance"):
        m[f"{name}.calls"] = calls(name)
    for name in ("camera.take_snapshot", "vcas.read", "vcas.cas",
                 "vcas.read_snapshot", "reclaim.pin", "reclaim.retire",
                 "bst.insert", "bst.delete", "bst.find", "bst.range_query",
                 "msqueue.enqueue", "msqueue.dequeue", "msqueue.scan"):
        m[f"{name}.self_us"] = self_us(name)
    m["atomic.cas.fail_ratio"] = fail_ratio("atomic.cas")
    m["vcas.cas.fail_ratio"] = fail_ratio("vcas.cas")
    m["reclaim.advance.success_ratio"] = (1.0 - fail_ratio("reclaim.advance")
                                          if calls("reclaim.advance") else 0.0)
    reads = sum(hops.values())
    m["vcas.read_snapshot.hops_mean"] = (
        sum(k * v for k, v in hops.items()) / reads if reads else 0.0)
    m["vcas.read_snapshot.hops_max"] = max(hops, default=0)
    return m


def mem(name: str, seed: int, idx: int) -> dict:
    """Memory the structure holds after the run, its inputs and results
    freed, and the traced peak during the run."""
    require_clean_conditions()
    tracemalloc.start()
    rep = workloads.Rep(name, seed, idx)
    out = measure(rep, before_verify=lambda: {
        "peak": tracemalloc.get_traced_memory()[1]})
    structure, epoch = rep.structure, rep.structure.epoch
    rep.inputs = rep.workers = rep.prefill_results = None
    out.pop("figures")
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    out["metrics"] = {
        "mem.retained_bytes": retained,
        "mem.traced_peak_bytes": out.pop("peak"),
        "vcas.versions_retained": count_reachable(structure, VNode),
        "reclaim.freed_ratio": (epoch.freed_total / epoch.retired_total
                                if epoch.retired_total else 0.0),
        "reclaim.live_retired_hwm": epoch.live_retired_hwm,
    }
    return out


def count_reachable(root, cls) -> int:
    """Instances of ``cls`` reachable from ``root`` through chronocas objects
    and plain containers (version records held by limbo bags included)."""
    containers = (list, tuple, dict, set)
    seen = {id(root)}
    todo = [root]
    count = 0
    while todo:
        obj = todo.pop()
        if type(obj) is cls:
            count += 1
        for ref in gc.get_referents(obj):
            t = type(ref)
            if id(ref) in seen or not (t in containers
                                       or t.__module__.startswith("chronocas")):
                continue
            seen.add(id(ref))
            todo.append(ref)
    return count


def gate(name: str, seed: int, idx: int) -> dict:
    return {"attempted": 0, "failed": 0, "errors": [],
            "metrics": {"gate.steps_per_op": micro.steps_per_op(name, seed)}}


def micro_table(name: str, seed: int, idx: int) -> dict:
    require_clean_conditions()
    metrics = {f"micro.{k}_ns": v for k, v in micro.per_call_table().items()}
    metrics["bst.plain_ratio"] = micro.plain_ratio(seed)
    return {"attempted": 0, "failed": 0, "errors": [], "metrics": metrics}


RUNNERS = {"timed": timed, "traced": traced, "mem": mem, "gate": gate,
           "micro": micro_table}


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in RUNNERS:
        print(__doc__, file=sys.stderr)
        return 2
    kind, name, seed, idx = argv[0], argv[1], int(argv[2]), int(argv[3])
    print(json.dumps(RUNNERS[kind](name, seed, idx)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
