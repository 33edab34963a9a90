"""Instrumentation: hop counters, step-bound checks, violation accounting.

When enabled (before the instrumented objects are constructed), every
versioned cell keeps an append-only log of published versions so that each
``read_snapshot`` can be checked against its traversal bound: the hop count
must not exceed the number of versions already published when the head was
read whose timestamp exceeds the handle.  Bound breaches are counted, never
raised, so a benchmark run can report them; the suites assert the count
stays at zero.
"""

from __future__ import annotations

import bisect
import threading

ENABLED = False

_lock = threading.Lock()
_violations: list[str] = []
_tls = threading.local()
_hop_sinks: list[dict] = []


def enable(on: bool = True) -> None:
    global ENABLED
    ENABLED = on


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


def note_walk(log, log_len: int, handle: int, hops: int) -> None:
    """Record one read_snapshot walk of ``hops`` hops and check its bound.

    ``log`` is the cell's published-version log (None when the cell was
    built with instrumentation off) and ``log_len`` its length when the walk
    read the head.  Log timestamps are nondecreasing at every instant (only
    the newest entry can still be TBD, which sorts above any handle), so the
    versions newer than the handle form a suffix found by bisection.
    """
    note_hops(hops)
    if log is None:
        return
    allowed = log_len - bisect.bisect_right(log, handle, 0, log_len,
                                            key=lambda n: n.ts)
    if hops > allowed:
        violation(f"read_snapshot walked {hops} hops, bound {allowed}")


def hop_histogram() -> dict[int, int]:
    merged: dict[int, int] = {}
    with _lock:
        for sink in _hop_sinks:
            for k, v in list(sink.items()):
                merged[k] = merged.get(k, 0) + v
    return merged
