"""Workloads of the chronocas benchmark: seeded inputs, one closed-loop
repetition, and the oracle gate that checks every result.

A repetition builds a fresh structure, prefills it (timed as set-up), runs a
fixed amount of work on its worker threads and then, outside the timed
window, replays the same streams through the sequential specifications in
``chronocas.oracle``.  Every worker issues its next operation only after the
previous one returned.  Inputs are generated before set-up starts, from the
run's seed and the repetition index only.

The caller must have put the repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from array import array
from dataclasses import dataclass

from chronocas import LeafBst, MsQueue
from chronocas.oracle import SeqOrderedSet, SeqQueue

UPDATE_KINDS = frozenset(("insert", "delete", "enqueue", "dequeue"))

BST_UPDATE_KEYS = 16_667
BST_UPDATE_PREFILL = 10_000
BST_UPDATE_OPS = 60_000

BST_RQ_KEYS = 8_192
BST_RQ_PREFILL = 4_096
BST_RQ_SPAN = 1_024
BST_RQ_UPDATES = 24_000
BST_RQ_QUERIES = 20_000   # more than the querier can reach before the updater ends

QUEUE_PREFILL = 256
QUEUE_OPS = 90_000
QUEUE_BLOCK = (99, 99, 2)  # enqueues, dequeues, scans per shuffled block of 200

MAX_MESSAGES = 10


@dataclass
class Inputs:
    prefill: list           # operations run during set-up
    streams: list           # one operation list per worker


def make_inputs(name: str, seed: int, rep: int) -> Inputs:
    """Operations are ``(kind, args)`` pairs."""
    rng = random.Random(f"chronocas-bench/{name}/{seed}/{rep}")
    if name == "bst-update":
        keys = rng.sample(range(1, BST_UPDATE_KEYS + 1), BST_UPDATE_PREFILL)
        ops = []
        for _ in range(BST_UPDATE_OPS):
            roll = rng.random()
            kind = "insert" if roll < 0.3 else "delete" if roll < 0.5 else "find"
            ops.append((kind, (rng.randint(1, BST_UPDATE_KEYS),)))
        return Inputs([("insert", (k,)) for k in keys], [ops])
    if name == "bst-rq":
        keys = rng.sample(range(1, BST_RQ_KEYS + 1), BST_RQ_PREFILL)
        updates = [("insert" if i % 2 == 0 else "delete",
                    (rng.randint(1, BST_RQ_KEYS),))
                   for i in range(BST_RQ_UPDATES)]
        queries = []
        for _ in range(BST_RQ_QUERIES):
            lo = rng.randint(1, BST_RQ_KEYS - BST_RQ_SPAN + 1)
            queries.append(("range", (lo, lo + BST_RQ_SPAN - 1)))
        return Inputs([("insert", (k,)) for k in keys], [updates, queries])
    if name == "queue-churn":
        prefill = [("enqueue", (rng.randint(1, 1 << 30),))
                   for _ in range(QUEUE_PREFILL)]
        ops = []
        enq, deq, scans = QUEUE_BLOCK
        for _ in range(QUEUE_OPS // sum(QUEUE_BLOCK)):
            block = ([("enqueue", (rng.randint(1, 1 << 30),)) for _ in range(enq)]
                     + [("dequeue", ())] * deq + [("scan", ())] * scans)
            rng.shuffle(block)
            ops.extend(block)
        return Inputs(prefill, [ops])
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, mode: str = "indirect"):
    if name in ("bst-update", "bst-rq"):
        return LeafBst(mode=mode)
    if name == "queue-churn":
        return MsQueue()
    raise ValueError(f"unknown workload {name!r}")


def bind(structure) -> dict:
    """Operation kind -> callable taking the operation's args."""
    if isinstance(structure, MsQueue):
        return {"enqueue": structure.enqueue, "dequeue": structure.dequeue,
                "scan": structure.scan}
    return {"insert": structure.insert, "delete": structure.delete,
            "find": structure.find, "range": structure.range_query}


class Worker(threading.Thread):
    """Runs one operation stream in a closed loop and captures its error.

    A worker that follows another (the range querier of ``bst-rq``) stops
    when the followed worker has finished, and records that worker's
    completed-operation count before and after each of its operations.
    """

    def __init__(self, name: str, ops: list, fns: dict, start: threading.Barrier,
                 follow: "Worker | None" = None) -> None:
        super().__init__(name=name, daemon=True)
        self.ops = ops
        self.fns = fns
        self.start_gate = start
        self.follow = follow
        self.results = [None] * len(ops)
        self.lat_ns = array("q", bytes(8 * len(ops)))
        self.seen = [] if follow is not None else None
        self.done = 0
        self.elapsed_ns = 0
        self.finished = False
        self.error = None

    def run(self) -> None:
        clock = time.perf_counter_ns
        fns, results, lat = self.fns, self.results, self.lat_ns
        self.start_gate.wait()
        t_start = clock()
        try:
            if self.follow is None:
                for i, (kind, args) in enumerate(self.ops):
                    t0 = clock()
                    r = fns[kind](*args)
                    lat[i] = clock() - t0
                    results[i] = r
                    self.done = i + 1
            else:
                leader, seen = self.follow, self.seen
                for i, (kind, args) in enumerate(self.ops):
                    if leader.finished:
                        break
                    before = leader.done
                    t0 = clock()
                    r = fns[kind](*args)
                    lat[i] = clock() - t0
                    seen.append((before, leader.done))
                    results[i] = r
                    self.done = i + 1
        except Exception:
            self.error = traceback.format_exc()
        finally:
            self.elapsed_ns = clock() - t_start
            self.finished = True


class Rep:
    """One repetition of a workload: ``setup``, ``run``, then ``verify``."""

    def __init__(self, name: str, seed: int, rep: int, factory=None) -> None:
        self.name = name
        self.inputs = make_inputs(name, seed, rep)
        self.factory = factory or (lambda: build(name))
        self.structure = None
        self.workers: list[Worker] = []
        self.prefill_results: list = []
        self.setup_s = 0.0
        self.window_ns = 0
        self.rss_peak_mb = 0.0

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.structure = self.factory()
        fns = bind(self.structure)
        self.prefill_results = [fns[kind](*args)
                                for kind, args in self.inputs.prefill]
        self.setup_s = time.perf_counter() - t0

    def run(self, timeout: float = 150.0) -> None:
        fns = bind(self.structure)   # after set-up, so traced methods are bound
        streams = self.inputs.streams
        gate = threading.Barrier(len(streams))
        first = Worker(f"{self.name}-0", streams[0], fns, gate)
        self.workers = [first] + [
            Worker(f"{self.name}-{i}", ops, fns, gate, follow=first)
            for i, ops in enumerate(streams[1:], start=1)]
        for w in self.workers:
            w.start()
        for w in self.workers:
            w.join(timeout)
            if w.is_alive():
                w.error = w.error or f"worker {w.name} still running after {timeout} s"
        self.window_ns = max(w.elapsed_ns for w in self.workers)
        self.rss_peak_mb = peak_rss_mb()

    # -- the oracle gate --------------------------------------------------------

    def verify(self) -> dict:
        """Compare every result with the oracle; count failed operations.

        A failed operation raised, disagreed with the oracle, or was left
        unfinished by a worker that died.
        """
        messages: list[str] = []
        failed = attempted = 0
        for w in self.workers:
            attempted += w.done
            if w.error is not None:
                lost = len(w.ops) - w.done
                attempted += lost
                failed += lost
                messages.append(f"{w.name} died after {w.done} operations:\n{w.error}")
        oracle = SeqQueue() if self.name == "queue-churn" else SeqOrderedSet()
        failed += _replay(oracle, self.inputs.prefill, self.prefill_results,
                          len(self.inputs.prefill), "prefill", messages)
        initial = set(oracle.keys) if self.name == "bst-rq" else None
        first = self.workers[0]
        failed += _replay(oracle, first.ops, first.results, first.done, "op", messages)
        if self.name == "bst-rq":
            failed += self._verify_queries(oracle, initial, messages)
        return {"attempted": attempted, "failed": failed,
                "errors": messages[:MAX_MESSAGES]}

    def _verify_queries(self, oracle, initial: set, messages: list) -> int:
        upd, qry = self.workers
        bad = 0
        if upd.error is None:
            final = self.structure.range_query(1, BST_RQ_KEYS)
            if final != oracle.keys:
                bad += 1
                _note(messages, f"final set differs from the oracle: "
                                f"{len(final)} keys against {len(oracle.keys)}")
        return bad + check_range_queries(initial, upd.ops, upd.done, qry.ops,
                                         qry.results, qry.seen, messages)

    # -- figures ----------------------------------------------------------------

    def figures(self) -> dict:
        upd_lat, read_lat = [], []
        for w in self.workers:
            for (kind, _), ns in zip(w.ops[:w.done], w.lat_ns):
                (upd_lat if kind in UPDATE_KINDS else read_lat).append(ns)
        return {"setup_s": self.setup_s, "window_s": self.window_ns / 1e9,
                "update_ops": len(upd_lat), "read_ops": len(read_lat),
                "update_lat_ns": upd_lat, "read_lat_ns": read_lat,
                "rss_peak_mb": self.rss_peak_mb}


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    ``ru_maxrss`` is not used: Linux carries it across ``exec``, so a child
    started by vfork reports at least its parent's peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


_ORACLE_OP = {"find": "contains"}


def _replay(oracle, ops, results, count, label, messages) -> int:
    bad = 0
    for i in range(count):
        kind, args = ops[i]
        want = oracle.step((_ORACLE_OP.get(kind, kind),) + args)
        if results[i] != want:
            bad += 1
            _note(messages, f"{label} {i} {kind}{args}: got {_short(results[i])}, "
                            f"oracle {_short(want)}")
    return bad


def check_range_queries(initial: set, updates: list, done: int, queries: list,
                        results: list, seen: list, messages: list) -> int:
    """Each range result must equal the updater's set, restricted to the range,
    after some prefix of the update stream that lies within the query's
    real-time window: at least the updates finished before it began, at most
    those finished when it returned plus the one then in flight.

    Queries are checked in order of their window start against one forward
    replay; inside a window only the keys the window's updates touch change,
    so each query costs its span plus its window.
    """
    present = bytearray(BST_RQ_KEYS + 2)
    for k in initial:
        present[k] = 1
    applied = 0
    bad = 0
    for qi in sorted(range(len(seen)), key=lambda i: seen[i][0]):
        lo_p, hi_done = seen[qi]
        hi_p = min(hi_done + 1, done)
        while applied < lo_p:
            kind, (k,) = updates[applied]
            present[k] = kind == "insert"
            applied += 1
        (s, e) = queries[qi][1]
        got = results[qi]
        if got != sorted(set(got)):
            bad += 1
            _note(messages, f"range {s}..{e} not strictly ascending")
            continue
        gotset = set(got)
        diff = {k for k in range(s, e + 1) if present[k]} ^ gotset
        p = lo_p
        while diff and p < hi_p:
            kind, (k,) = updates[p]
            if s <= k <= e:
                if (kind == "insert") == (k in gotset):
                    diff.discard(k)
                else:
                    diff.add(k)
            p += 1
        if diff:
            bad += 1
            _note(messages, f"range {s}..{e} matches no update prefix in "
                            f"[{lo_p}, {hi_p}]; keys off: {sorted(diff)[:8]}")
    return bad


def _note(messages: list, text: str) -> None:
    if len(messages) < MAX_MESSAGES:
        messages.append(text)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
