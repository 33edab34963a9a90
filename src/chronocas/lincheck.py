"""History recording and brute-force linearizability checking.

``Recorder`` stamps invocations and responses with a global event sequence.
``check_linearizable`` searches for a total order of the completed
operations that extends real-time order and replays to the observed results
under a sequential specification from :mod:`chronocas.oracle` (a
:class:`~chronocas.oracle.SeqSpec`, which alone says what each operation
returns); pending operations of the spec's ``UPDATES`` kinds may be woven
in or dropped, other pending operations are always dropped.  The search is
a DFS over (spec state, set of linearized ops) with pruning memoized on the
spec's ``key()`` and a step budget; exhausting the budget yields an
inconclusive verdict, never a pass.  Each step runs on a ``copy()``, so
the spec passed in is never changed and one spec can judge many histories.

``explore`` runs a small closed multi-thread program under a cooperative
scheduler that serializes shared-memory accesses (the gate in
``chronocas._gate``), enumerating every interleaving by stateless replay:
each run follows a forced schedule prefix and then a fixed default policy,
and every untaken branch becomes a new prefix.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from . import _gate


class RecorderError(RuntimeError):
    """Malformed history: broken per-thread invoke/response alternation."""


@dataclass
class OpRecord:
    idx: int
    thread_id: int
    kind: str
    args: tuple
    result: object
    invoke_seq: int
    response_seq: int | None

    @property
    def pending(self) -> bool:
        return self.response_seq is None

    def describe(self) -> str:
        span = (f"[{self.invoke_seq},{self.response_seq}]"
                if not self.pending else f"[{self.invoke_seq},pending]")
        res = "?" if self.pending else repr(self.result)
        return f"T{self.thread_id} {span} {self.kind}{self.args} -> {res}"


@dataclass
class History:
    records: list[OpRecord]

    def completed(self) -> list[OpRecord]:
        return [r for r in self.records if not r.pending]

    def pending(self) -> list[OpRecord]:
        return [r for r in self.records if r.pending]

    def validate(self) -> None:
        by_thread: dict[int, list[OpRecord]] = {}
        for r in self.records:
            by_thread.setdefault(r.thread_id, []).append(r)
        for tid, recs in by_thread.items():
            recs.sort(key=lambda r: r.invoke_seq)
            last_resp = -1
            for i, r in enumerate(recs):
                if not r.pending and r.response_seq <= r.invoke_seq:
                    raise RecorderError(f"T{tid}: response before invoke")
                if r.invoke_seq <= last_resp:
                    raise RecorderError(f"T{tid}: overlapping operations")
                if r.pending and i != len(recs) - 1:
                    raise RecorderError(f"T{tid}: operation after a pending one")
                last_resp = r.response_seq if not r.pending else r.invoke_seq
        self.records.sort(key=lambda r: r.invoke_seq)
        for i, r in enumerate(self.records):
            r.idx = i

    def describe(self) -> str:
        return "\n".join(r.describe() for r in self.records)


class Recorder:
    """Concurrent-safe recorder with a global atomic event counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._records: list[OpRecord] = []

    def next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def invoke(self, thread_id: int, kind: str, args: tuple = ()) -> OpRecord:
        rec = OpRecord(0, thread_id, kind, args, None, self.next_seq(), None)
        with self._lock:
            self._records.append(rec)
        return rec

    def respond(self, rec: OpRecord, result) -> None:
        rec.result = result
        rec.response_seq = self.next_seq()

    def run(self, thread_id: int, kind: str, args: tuple, fn):
        rec = self.invoke(thread_id, kind, args)
        result = fn()
        self.respond(rec, result)
        return result

    def history(self) -> History:
        h = History(list(self._records))
        h.validate()
        return h


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    status: str                  # "accepted" | "rejected" | "inconclusive"
    witness: str | None = None
    explored: int = 0

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"


class CheckBoundsError(ValueError):
    """History exceeds the configured checker size bounds."""


def check_linearizable(history: History, spec, *, max_ops: int = 24,
                       max_threads: int = 8, step_budget: int = 2_000_000,
                       memoize: bool = True) -> Verdict:
    completed = history.completed()
    if len(completed) > max_ops:
        raise CheckBoundsError(f"{len(completed)} completed ops > bound {max_ops}")
    if len({r.thread_id for r in history.records}) > max_threads:
        raise CheckBoundsError("too many threads")

    candidates = completed + [r for r in history.pending()
                              if r.kind in spec.UPDATES]
    need = frozenset(r.idx for r in completed)

    seen: set = set()
    steps = 0
    best: list[OpRecord] = []

    def dfs(state, done: frozenset, path: list[OpRecord]) -> bool:
        nonlocal steps, best
        if need <= done:
            return True
        if len(path) > len(best):
            best = list(path)
        if memoize:
            key = (state.key(), done)
            if key in seen:
                return False
            seen.add(key)
        live = [r for r in candidates if r.idx not in done]
        horizon = min((r.response_seq for r in live
                       if r.response_seq is not None), default=None)
        for rec in live:
            if horizon is not None and rec.invoke_seq > horizon:
                continue
            steps += 1
            if steps > step_budget:
                raise _BudgetExhausted
            ns = state.copy()
            op = (rec.kind, *rec.args)
            if rec.pending:
                ns.step(op)
            elif not ns.check(op, rec.result):
                continue
            path.append(rec)
            if dfs(ns, done | {rec.idx}, path):
                return True
            path.pop()
        return False

    try:
        ok = dfs(spec, frozenset(), [])
    except _BudgetExhausted:
        return Verdict("inconclusive", witness=None, explored=steps)
    if ok:
        return Verdict("accepted", explored=steps)
    lines = ["no linearization explains this history:",
             history.describe(),
             f"longest linearizable prefix ({len(best)} ops):"]
    lines += ["  " + r.describe() for r in best]
    return Verdict("rejected", witness="\n".join(lines), explored=steps)


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Cooperative interleaving exploration
# ---------------------------------------------------------------------------

class ExploreError(RuntimeError):
    pass


@dataclass
class ExploreResult:
    histories: list[History]
    runs: int
    complete: bool
    schedules: list[tuple] = field(default_factory=list)


def _held_lock() -> threading.Lock:
    """A binary semaphore at 0: a raw lock, released by one thread and
    acquired by another.  The handoff alternates strictly, so it is never
    released while free."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class _Worker:
    __slots__ = ("index", "thread", "go", "done", "error")

    def __init__(self, index: int, body, controller: "_Controller") -> None:
        self.index = index
        self.go = _held_lock()
        self.done = False
        self.error = None
        self.thread = threading.Thread(
            target=self._main, args=(body, controller), daemon=True)

    def _main(self, body, controller: "_Controller") -> None:
        self.go.acquire()
        try:
            body()
        except BaseException as exc:  # surfaced by the driver
            self.error = exc
        finally:
            self.done = True
            controller._ctl.release()


class _Controller:
    """Grants gated shared accesses to one worker at a time."""

    _TIMEOUT = 30.0

    def __init__(self, bodies) -> None:
        self._ctl = _held_lock()
        self._workers = [_Worker(i, body, self) for i, body in enumerate(bodies)]
        self._by_thread = {w.thread: w for w in self._workers}

    def on_access(self, thread) -> None:
        w = self._by_thread.get(thread)
        if w is None:
            return
        self._ctl.release()
        w.go.acquire()

    def _handoff(self, w: _Worker) -> None:
        w.go.release()
        if not self._ctl.acquire(timeout=self._TIMEOUT):
            raise ExploreError("worker made no progress (wedged schedule)")

    def run(self, prefix: tuple, policy=None):
        """Execute one full schedule; returns (decisions, enabled_sets)."""
        _gate.install_controller(self)
        try:
            for w in self._workers:
                w.thread.start()
                self._handoff(w)   # run to first shared access (or completion)
            decisions: list[int] = []
            enabled_sets: list[tuple] = []
            while True:
                enabled = tuple(w.index for w in self._workers if not w.done)
                if not enabled:
                    break
                if len(decisions) < len(prefix):
                    choice = prefix[len(decisions)]
                    if choice not in enabled:
                        raise ExploreError("schedule prefix diverged")
                elif policy is not None:
                    choice = policy(enabled)
                else:
                    choice = enabled[0]
                decisions.append(choice)
                enabled_sets.append(enabled)
                self._handoff(self._workers[choice])
            for w in self._workers:
                w.thread.join(timeout=self._TIMEOUT)
            for w in self._workers:
                if w.error is not None:
                    raise w.error
            return decisions, enabled_sets
        finally:
            _gate.remove_controller()


def run_schedule(make_program, prefix: tuple = (), policy=None):
    """Run one cooperative schedule of ``make_program``; returns
    (decisions, enabled_sets, history)."""
    bodies, finish = make_program()
    controller = _Controller(bodies)
    decisions, enabled_sets = controller.run(tuple(prefix), policy)
    return decisions, enabled_sets, finish()


def explore(make_program, *, max_runs: int = 200_000, sample: int | None = None,
            seed: int | None = None) -> ExploreResult:
    """Enumerate (or sample) interleavings of a small closed program.

    ``make_program()`` must return ``(bodies, finish)`` where ``bodies`` is a
    list of zero-argument callables (one per logical thread) over a fresh
    program instance and ``finish()`` yields the recorded ``History``.
    """
    histories: list[History] = []
    schedules: list[tuple] = []
    if sample is not None:
        rng = random.Random(seed)
        for _ in range(sample):
            _, _, hist = run_schedule(make_program, (), policy=rng.choice)
            histories.append(hist)
        return ExploreResult(histories, len(histories), complete=False)

    stack: list[tuple] = [()]
    runs = 0
    while stack:
        if runs >= max_runs:
            return ExploreResult(histories, runs, complete=False,
                                 schedules=schedules)
        prefix = stack.pop()
        decisions, enabled_sets, hist = run_schedule(make_program, prefix)
        runs += 1
        histories.append(hist)
        schedules.append(tuple(decisions))
        for i in range(len(prefix), len(decisions)):
            for t in enabled_sets[i]:
                if t != decisions[i]:
                    stack.append(tuple(decisions[:i]) + (t,))
    return ExploreResult(histories, runs, complete=True, schedules=schedules)
