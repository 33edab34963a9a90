"""Instrumentation: hop counters, step-bound checks, violation accounting.

When enabled (before the instrumented objects are constructed), every
versioned cell keeps a :class:`VersionLog` of published versions so that
each ``read_snapshot`` can be checked against its traversal bound: the hop
count must not exceed the number of versions already published when the head
was read whose timestamp exceeds the handle.  Bound breaches are counted,
never raised, so a benchmark run can report them; the suites assert the
count stays at zero.  Enabling instrumentation arms the gate, so every
operation takes the checked path and every snapshot read walks.
"""

from __future__ import annotations

import bisect
import threading

from . import _gate
from .camera import INVALID_NEXTV, TBD

ENABLED = False

_lock = threading.Lock()
_violations: list[str] = []
_tls = threading.local()
_hop_sinks: list[dict] = []


def enable(on: bool = True) -> None:
    global ENABLED
    ENABLED = on
    _gate._set_check("instrument", on)


def reset() -> None:
    global _hop_sinks
    with _lock:
        _violations.clear()
        for sink in _hop_sinks:
            sink.clear()


def violation(message: str) -> None:
    with _lock:
        if len(_violations) < 100:
            _violations.append(message)
        else:
            _violations.append("...")


def violations() -> list[str]:
    with _lock:
        return list(_violations)


def violation_count() -> int:
    with _lock:
        return len(_violations)


def note_hops(n: int) -> None:
    """Record one read_snapshot hop count into this thread's histogram."""
    sink = getattr(_tls, "hops", None)
    if sink is None:
        sink = {}
        _tls.hops = sink
        with _lock:
            _hop_sinks.append(sink)
    sink[n] = sink.get(n, 0) + 1


class VersionLog:
    """Timestamps of a cell's published versions, oldest first.

    Only the newest entry is the version record itself (its timestamp may
    still be TBD).  When a cas displaces it, the entry becomes its installed
    timestamp, so the log holds no displaced record nor anything a record
    references; a displaced head still at TBD (only a fault-injected build
    leaves one) stays a record.

    Entries up to the newest version whose link reclamation has cut (to
    ``INVALID_NEXTV``, or to the trap when poisoning) are dropped.  A freed
    version was displaced before any handle a pinned walk can still hold was
    taken, and its timestamp was installed before that, so it and every
    older entry sit at or below the handle and never count toward a bound.
    ``len`` still counts dropped entries.  The log runs in step with the
    cell's version list, so the newest freed version is found by walking the
    list from the head, each time the log has doubled since the last walk.

    Appends run inside the cell's critical section.  A trim swaps in a new
    entry list rather than shrinking the old one, so a walk's :meth:`view`
    stays a stable prefix.
    """

    __slots__ = ("_state", "_trim_at")

    _MIN_TRIM = 8

    def __init__(self, first) -> None:
        """``first`` is the cell's initial record."""
        self._state = (0, [first])  # (base, entries)
        self._trim_at = self._MIN_TRIM

    def append(self, new) -> None:
        """Log ``new``, which just displaced the newest entry."""
        base, entries = self._state
        ts = entries[-1].ts
        if ts != TBD:
            entries[-1] = ts
        entries.append(new)
        if len(entries) >= self._trim_at:
            self._trim(base, entries, new)

    def _trim(self, base: int, entries: list, node) -> None:
        n = len(entries)
        for newer in range(n):          # node is entries[n - 1 - newer]
            nxt = node.nextv
            if nxt is INVALID_NEXTV or node._poisoned:
                entries = entries[n - newer:]
                self._state = (base + n - newer, entries)
                break
            if nxt is None:
                break
            node = nxt
        self._trim_at = max(self._MIN_TRIM, 2 * len(entries))

    def view(self) -> tuple[list, int]:
        """The live entry list and its length, for one walk's bound check."""
        entries = self._state[1]
        return entries, len(entries)

    def __len__(self) -> int:
        base, entries = self._state
        return base + len(entries)


def _ts(entry) -> int:
    return entry if entry.__class__ is int else entry.ts


def note_walk(view, handle: int, hops: int) -> None:
    """Record one read_snapshot walk of ``hops`` hops and check its bound.

    ``view`` is the cell's :meth:`VersionLog.view` taken when the walk read
    the head (None when the cell was built with instrumentation off).  Log
    timestamps are nondecreasing at every instant (only the newest entry can
    still be TBD, which sorts above any handle), so the versions newer than
    the handle form a suffix found by bisection.
    """
    note_hops(hops)
    if view is None:
        return
    entries, log_len = view
    allowed = log_len - bisect.bisect_right(entries, handle, 0, log_len,
                                            key=_ts)
    if hops > allowed:
        violation(f"read_snapshot walked {hops} hops, bound {allowed}")


def hop_histogram() -> dict[int, int]:
    merged: dict[int, int] = {}
    with _lock:
        for sink in _hop_sinks:
            for k, v in list(sink.items()):
                merged[k] = merged.get(k, 0) + v
    return merged
