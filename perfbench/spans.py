"""Per-layer spans for the traced run.

``Tracer.install`` wraps public methods of the chronocas layers in this
process only.  Each wrapped call is a span: the tracer counts calls, counts
failed outcomes for calls that return a success flag, and accumulates self
time, which is the span's duration minus the durations of the wrapped calls
it encloses.  Methods that are not wrapped (``AtomicCell.read``, the gate
step) are charged to the self time of the span that calls them, as is the
tracer's own cost for its child spans.  Statistics are kept per thread and
merged at the end.
"""

from __future__ import annotations

import threading
import time

from chronocas import atomic, camera, msqueue, reclaim, vcas, vcas_direct
from chronocas import bst as bst_mod

# (owner, attribute, span name, records outcome, records thread CPU time)
LAYER_METHODS = (
    (atomic.AtomicCell, "cas", "atomic.cas", True, False),
    (camera.Camera, "take_snapshot", "camera.take_snapshot", False, False),
    (vcas.VersionedCas, "read", "vcas.read", False, False),
    (vcas.VersionedCas, "cas", "vcas.cas", True, False),
    (vcas.VersionedCas, "read_snapshot", "vcas.read_snapshot", False, False),
    (reclaim.EpochManager, "pin", "reclaim.pin", False, False),
    (reclaim.EpochManager, "retire", "reclaim.retire", False, False),
    (reclaim.EpochManager, "try_advance_epoch", "reclaim.advance", True, False),
    (bst_mod.LeafBst, "insert", "bst.insert", False, False),
    (bst_mod.LeafBst, "delete", "bst.delete", False, False),
    (bst_mod.LeafBst, "find", "bst.find", False, False),
    (bst_mod.LeafBst, "range_query", "bst.range_query", False, True),
    (msqueue.MsQueue, "enqueue", "msqueue.enqueue", False, False),
    (msqueue.MsQueue, "dequeue", "msqueue.dequeue", False, False),
    (msqueue.MsQueue, "scan", "msqueue.scan", False, False),
)

# field_cas is a module function that vcas and vcas_direct import by name.
FIELD_CAS_MODULES = (atomic, vcas, vcas_direct)

SPAN_NAMES = tuple(m[2] for m in LAYER_METHODS) + ("atomic.field_cas",)


class _ThreadStats:
    __slots__ = ("stack", "calls", "self_ns", "fails", "cpu_ns")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.fails = dict.fromkeys(SPAN_NAMES, 0)
        self.cpu_ns: dict[str, list] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._patches: list = []

    def _stats(self) -> _ThreadStats:
        st = _ThreadStats()
        self._local.st = st
        with self._lock:
            self._threads.append(st)
        return st

    def _wrap(self, fn, name: str, outcome: bool, cpu: bool):
        local, new_stats = self._local, self._stats
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns

        def span(*args, **kwargs):
            st = getattr(local, "st", None) or new_stats()
            stack = st.stack
            stack.append(0)
            if cpu:
                c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls[name] += 1
                st.self_ns[name] += dt - inner
                if cpu:
                    st.cpu_ns.setdefault(name, []).append(cpu_clock() - c0)
            if outcome and not result:
                st.fails[name] += 1
            return result

        return span

    def install(self) -> None:
        for owner, attr, name, outcome, cpu in LAYER_METHODS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, outcome, cpu))
        field_cas = self._wrap(atomic.field_cas, "atomic.field_cas", True, False)
        for module in FIELD_CAS_MODULES:
            self._patch(module, "field_cas", field_cas)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Span name -> {"calls", "self_ns", "fails", "cpu_ns"} over all threads."""
        out = {n: {"calls": 0, "self_ns": 0, "fails": 0, "cpu_ns": []}
               for n in SPAN_NAMES}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for n in SPAN_NAMES:
                rec = out[n]
                rec["calls"] += st.calls[n]
                rec["self_ns"] += st.self_ns[n]
                rec["fails"] += st.fails[n]
                rec["cpu_ns"].extend(st.cpu_ns.get(n, ()))
        return out
