"""Benchmark and stress driver.

``run`` prefills a structure, drives a timed operation mix from per-thread
seeded PRNG streams, and reports throughput per operation kind and the
reclamation high-water mark.  With ``instrument`` set (``--instrument``) it
also builds the structure instrumented and reports the snapshot-read hop
histogram and the step-bound violation count (which must be zero); those
checks take the checked path on every access, so the throughput of such a
run is not comparable with an uninstrumented one.  ``stress`` interleaves
short recorded windows with quiescent checkpoints and feeds every window to
the linearizability checker.

Output is a single versioned JSON document on stdout; ``--csv`` emits one
flat row instead.  Setting CHRONOCAS_DEBUG_POISON=1 arms reclamation
poisoning for the whole process (the checked path too).

Throughput numbers are machine-dependent; nothing here asserts them beyond
being positive.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from . import instrument
from .bst import LeafBst
from .harris_list import HarrisList
from .lincheck import CheckBoundsError, Recorder, check_linearizable
from .msqueue import MsQueue
from .oracle import SeqOrderedSet, SeqQueue

STRUCTURES = ("queue", "list", "bst", "bst-direct", "bst-plain-cas-baseline")

SCHEMA_VERSION = 1

_KEY_CAP = 10 ** 9


class ConfigError(ValueError):
    pass


@dataclass
class WorkloadConfig:
    structure: str = "bst"
    prefill: int = 1000
    ins: int = 30
    delete: int = 20
    find: int = 50
    rq: int = 0
    rqsize: int = 64
    threads: int = 4
    seconds: float = 2.0
    seed: int = 42
    sorted_insert: bool = False
    instrument: bool = False

    def validate(self) -> None:
        if self.structure not in STRUCTURES:
            raise ConfigError(f"unknown structure {self.structure!r}")
        if (min(self.ins, self.delete, self.find, self.rq) < 0
                or self.ins + self.delete + self.find + self.rq != 100):
            raise ConfigError("operation percentages must be >= 0 and sum to 100")
        if self.rq > 0 and self.rqsize < 1:
            raise ConfigError("rqsize must be >= 1 when range queries run")
        if self.threads < 1 or self.seconds <= 0 or self.prefill < 0:
            raise ConfigError("threads, seconds, prefill out of range")

    @property
    def key_range(self) -> int:
        """Key universe sized so the structure stays near its prefill size
        under an asymmetric update mix."""
        if self.ins > 0:
            return max(1, round(self.prefill * (self.ins + self.delete) / self.ins))
        return max(1, 2 * self.prefill)


@dataclass
class RunReport:
    config: WorkloadConfig
    throughput: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    elapsed: float = 0.0
    hop_histogram: dict | None = None        # None: run not instrumented
    retired: int = 0
    freed: int = 0
    max_live_retired: int = 0
    step_bound_violations: int | None = None
    overhead_ratio_vs_plain: float | None = None

    def to_dict(self) -> dict:
        cfg = dict(vars(self.config))
        return {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "key_range": self.config.key_range,
            "elapsed_seconds": self.elapsed,
            "ops": self.ops,
            "throughput": self.throughput,
            "hop_histogram": (None if self.hop_histogram is None else
                              {str(k): v for k, v in sorted(self.hop_histogram.items())}),
            "retired": self.retired,
            "freed": self.freed,
            "max_live_retired": self.max_live_retired,
            "step_bound_violations": self.step_bound_violations,
            "overhead_ratio_vs_plain": self.overhead_ratio_vs_plain,
        }

    def to_csv_row(self) -> str:
        d = self.to_dict()
        cols = [self.config.structure, self.config.threads, self.config.prefill,
                self.config.ins, self.config.delete, self.config.find,
                self.config.rq, self.config.rqsize, self.config.seed,
                f"{self.elapsed:.3f}",
                f"{sum(self.throughput.values()):.1f}",
                self.max_live_retired, self.step_bound_violations]
        return ",".join("" if c is None else str(c) for c in cols)


CSV_HEADER = ("structure,threads,prefill,ins,del,find,rq,rqsize,seed,"
              "elapsed,total_ops_per_s,max_live_retired,step_bound_violations")


# ---------------------------------------------------------------------------
# structure adapters
# ---------------------------------------------------------------------------

def build_structure(name: str):
    if name == "queue":
        return MsQueue()
    if name == "list":
        return HarrisList()
    if name == "bst":
        return LeafBst(mode="indirect")
    if name == "bst-direct":
        return LeafBst(mode="direct")
    if name == "bst-plain-cas-baseline":
        return LeafBst(mode="plain")
    raise ConfigError(f"unknown structure {name!r}")


def _ops_for(structure, config: WorkloadConfig):
    """(ins, del, find, rq) callables taking an rng."""
    kr = config.key_range

    def key(rng):
        return rng.randint(1, kr)

    if isinstance(structure, MsQueue):
        return (lambda rng: structure.enqueue(key(rng)),
                lambda rng: structure.dequeue(),
                lambda rng: structure.peek_endpoints(),
                lambda rng: structure.scan())
    if isinstance(structure, HarrisList):
        return (lambda rng: structure.insert(key(rng)),
                lambda rng: structure.delete(key(rng)),
                lambda rng: structure.contains(key(rng)),
                lambda rng: structure.range_query(
                    (s := key(rng)), s + config.rqsize - 1))
    return (lambda rng: structure.insert(key(rng)),
            lambda rng: structure.delete(key(rng)),
            lambda rng: structure.find(key(rng)),
            lambda rng: structure.range_query(
                (s := key(rng)), s + config.rqsize - 1))


def _prefill(structure, config: WorkloadConfig) -> None:
    if isinstance(structure, MsQueue):
        rng = random.Random(f"{config.seed}-prefill")
        for _ in range(config.prefill):
            structure.enqueue(rng.randint(1, config.key_range))
        return
    if config.sorted_insert:
        _prefill_sorted(structure, config)
        return
    rng = random.Random(f"{config.seed}-prefill")
    inserted = 0
    while inserted < config.prefill:
        if structure.insert(rng.randint(1, config.key_range)):
            inserted += 1


def _prefill_sorted(structure, config: WorkloadConfig) -> None:
    """Sorted key stream split into 1024-key chunks on a shared work queue."""
    keys = list(range(1, config.prefill + 1))
    chunks = [keys[i:i + 1024] for i in range(0, len(keys), 1024)]
    chunk_lock = threading.Lock()

    def worker():
        while True:
            with chunk_lock:
                if not chunks:
                    return
                chunk = chunks.pop(0)
            for k in chunk:
                structure.insert(k)

    threads = [threading.Thread(target=worker) for _ in range(config.threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def run(config: WorkloadConfig) -> RunReport:
    config.validate()
    was_enabled = instrument.ENABLED
    instrument.enable(config.instrument)
    try:
        if config.instrument:
            instrument.reset()
        structure = build_structure(config.structure)
        _prefill(structure, config)
        report = RunReport(config)
        report.ops, report.elapsed = _timed_mix(structure, config)
        if config.instrument:
            report.hop_histogram = instrument.hop_histogram()
            report.step_bound_violations = instrument.violation_count()
    finally:
        instrument.enable(was_enabled)
    total = max(report.elapsed, 1e-9)
    report.throughput = {k: v / total for k, v in report.ops.items()}
    report.retired = structure.epoch.retired_total
    report.freed = structure.epoch.freed_total
    report.max_live_retired = structure.epoch.live_retired_hwm
    return report


def _timed_mix(structure, config: WorkloadConfig):
    do_ins, do_del, do_find, do_rq = _ops_for(structure, config)
    cut_ins = config.ins
    cut_del = cut_ins + config.delete
    cut_find = cut_del + config.find
    counts = [dict(ins=0, delete=0, find=0, rq=0) for _ in range(config.threads)]
    start_gate = threading.Barrier(config.threads + 1)
    stop = threading.Event()
    errors: list = []

    def worker(tid: int):
        rng = random.Random(f"{config.seed}-{tid}")
        mine = counts[tid]
        start_gate.wait()
        try:
            while not stop.is_set():
                roll = rng.random() * 100
                if roll < cut_ins:
                    do_ins(rng)
                    mine["ins"] += 1
                elif roll < cut_del:
                    do_del(rng)
                    mine["delete"] += 1
                elif roll < cut_find:
                    do_find(rng)
                    mine["find"] += 1
                else:
                    do_rq(rng)
                    mine["rq"] += 1
        except Exception as exc:  # surfaced below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(config.threads)]
    for t in threads:
        t.start()
    start_gate.wait()
    t0 = time.perf_counter()
    time.sleep(config.seconds)
    stop.set()
    elapsed = time.perf_counter() - t0
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    totals = {k: sum(c[k] for c in counts) for k in ("ins", "delete", "find", "rq")}
    return totals, elapsed


def run_with_baseline(config: WorkloadConfig) -> RunReport:
    """Paired run: a versioned tree build against the plain-CAS tree."""
    if config.structure not in ("bst", "bst-direct"):
        raise ConfigError("--baseline pairs only bst and bst-direct with the plain tree")
    report = run(config)
    base_cfg = WorkloadConfig(**{**vars(config),
                                 "structure": "bst-plain-cas-baseline"})
    base = run(base_cfg)
    mine = sum(report.throughput.values())
    theirs = max(sum(base.throughput.values()), 1e-9)
    report.overhead_ratio_vs_plain = mine / theirs
    return report


# ---------------------------------------------------------------------------
# stress: recorded windows fed to the checker
# ---------------------------------------------------------------------------

@dataclass
class StressReport:
    windows: int = 0
    accepted: int = 0
    rejected: int = 0
    inconclusive: int = 0
    first_witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.rejected == 0 and self.windows == self.accepted + self.inconclusive

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "kind": "stress",
                "windows": self.windows, "accepted": self.accepted,
                "rejected": self.rejected, "inconclusive": self.inconclusive,
                "first_witness": self.first_witness}


def stress(config: WorkloadConfig, windows: int, ops_per_window: int = 3,
           key_range: int | None = None) -> StressReport:
    """Quiesce, checkpoint the abstract state, record a burst of concurrent
    operations, and check the window against the sequential spec."""
    config.validate()
    if config.threads > 8 or windows < 1:
        raise ConfigError("stress runs >= 1 window and <= 8 threads")
    structure = build_structure(config.structure)
    _prefill(structure, config)
    # fine-grained preemption so the recorded windows actually interleave
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    kr = key_range or max(4, config.threads * 2)
    is_queue = isinstance(structure, MsQueue)

    report = StressReport()
    barrier = threading.Barrier(config.threads)
    shared: dict = {}
    errors: list = []

    def snapshot_state():
        if is_queue:
            return tuple(structure.scan())
        return tuple(structure.range_query(-_KEY_CAP, _KEY_CAP))

    def window_ops(recorder: Recorder, tid: int, rng: random.Random):
        for _ in range(ops_per_window):
            k = rng.randint(1, kr)
            roll = rng.random()
            if is_queue:
                if roll < 0.35:
                    recorder.run(tid, "enqueue", (k,), lambda: structure.enqueue(k))
                elif roll < 0.7:
                    recorder.run(tid, "dequeue", (), structure.dequeue)
                elif roll < 0.8:
                    recorder.run(tid, "scan", (), structure.scan)
                elif roll < 0.9:
                    recorder.run(tid, "peek", (), structure.peek_endpoints)
                else:
                    recorder.run(tid, "ith", (1,), lambda: structure.ith(1))
            else:
                contains = (structure.contains if isinstance(structure, HarrisList)
                            else structure.find)
                if roll < 0.3:
                    recorder.run(tid, "insert", (k,), lambda: structure.insert(k))
                elif roll < 0.6:
                    recorder.run(tid, "delete", (k,), lambda: structure.delete(k))
                elif roll < 0.8:
                    recorder.run(tid, "contains", (k,), lambda: contains(k))
                else:
                    recorder.run(tid, "range", (1, kr),
                                 lambda: structure.range_query(1, kr))

    def worker(tid: int):
        rng = random.Random(f"{config.seed}-stress-{tid}")
        try:
            for _ in range(windows):
                barrier.wait()
                if tid == 0:
                    shared["initial"] = snapshot_state()
                    shared["recorder"] = Recorder()
                barrier.wait()
                window_ops(shared["recorder"], tid, rng)
                barrier.wait()
                if tid == 0:
                    _judge(shared, report, is_queue)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            barrier.abort()

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(config.threads)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(old_switch)
    if errors:
        raise errors[0]
    return report


def _judge(shared: dict, report: StressReport, is_queue: bool) -> None:
    history = shared["recorder"].history()
    spec = (SeqQueue(shared["initial"]) if is_queue
            else SeqOrderedSet(shared["initial"]))
    try:
        verdict = check_linearizable(history, spec)
    except CheckBoundsError:
        report.windows += 1
        report.inconclusive += 1
        return
    report.windows += 1
    if verdict.accepted:
        report.accepted += 1
    elif verdict.rejected:
        report.rejected += 1
        if report.first_witness is None:
            report.first_witness = verdict.witness
    else:
        report.inconclusive += 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chronocas-bench",
        description="Benchmark and stress driver for the chronocas structures. "
                    "Set CHRONOCAS_DEBUG_POISON=1 to arm reclamation poisoning.")
    p.add_argument("--structure", choices=STRUCTURES, default="bst")
    p.add_argument("--prefill", type=int, default=1000)
    p.add_argument("--ins", type=int, default=30)
    p.add_argument("--del", dest="delete", type=int, default=20)
    p.add_argument("--find", type=int, default=50)
    p.add_argument("--rq", type=int, default=0)
    p.add_argument("--rqsize", type=int, default=64)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sorted", dest="sorted_insert", action="store_true")
    p.add_argument("--instrument", action="store_true",
                   help="check every snapshot read's step bound and report "
                        "the hop histogram and violation count (slower)")
    p.add_argument("--baseline", action="store_true",
                   help="also run the plain-CAS tree (bst, bst-direct only) "
                        "and report the ratio")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--stress", action="store_true")
    p.add_argument("--windows", type=int, default=100)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = WorkloadConfig(
        structure=args.structure, prefill=args.prefill, ins=args.ins,
        delete=args.delete, find=args.find, rq=args.rq, rqsize=args.rqsize,
        threads=args.threads, seconds=args.seconds, seed=args.seed,
        sorted_insert=args.sorted_insert, instrument=args.instrument)
    try:
        config.validate()
        if args.stress:
            for flag in ("instrument", "baseline", "csv"):
                if getattr(args, flag):
                    raise ConfigError(f"--stress does not take --{flag}")
            result = stress(config, args.windows)
            print(json.dumps(result.to_dict(), indent=2))
            return 0 if result.passed else 1
        report = run_with_baseline(config) if args.baseline else run(config)
        if args.csv:
            print(CSV_HEADER)
            print(report.to_csv_row())
        else:
            print(json.dumps(report.to_dict(), indent=2))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a worker died: fail loudly, emit no report
        traceback.print_exception(exc)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
