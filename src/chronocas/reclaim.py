"""Epoch-based reclamation for structure nodes and displaced version records.

A global epoch counter starts at 1.  Threads announce the epoch when they pin
and go quiescent when they unpin.  Retired records land in the limbo bag of
the current epoch; only the bags of the last three epochs are retained.  A
bag for epoch ``e`` may be emptied once every non-quiescent announcement is
at least ``e + 2``; the winner of an epoch advance sweeps inline, and
``collect`` performs the same certified sweep without advancing.

Freeing is simulated: Python reclaims unreferenced objects, so freeing a
record runs its ``_free`` hook, which severs what the record would otherwise
keep alive.  A version record (an indirect ``VNode`` or a direct
``Versionable`` node) cuts its version link, so history older than a freed
version becomes garbage; each cell's version list then holds at most its
head, its displaced records not yet freed and the one freed record that ends
the list.  A BST info record drops its node references.  With poisoning
armed, ``_poison`` runs instead: the record is stamped with a trap pattern
(its link included) and any later algorithm read of it raises
:class:`PoisonedReadError`.  The stress suites assert that the trap never
fires.

Cutting a link is safe by the epoch argument below: a record retired in
epoch ``e`` is freed only once every pinned thread announced at least
``e + 2``, so each of them pinned after the record was displaced.  Its
snapshot handle is then no older than the record's timestamp, which the
displacing ``cas`` installed before the swap, so its walks stop at the
record at the latest and never follow the cut link.  A walk that does reach
one (a handle used without its pin) raises instead of returning a value.

Queries must pin for their whole snapshot lifetime, and a thread holds at
most one snapshot handle at a time; every data-structure query runs inside
:meth:`EpochManager.query`, which fuses pin + take_snapshot so the epoch
argument for timestamp-based safety holds.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

POISON_ON = os.environ.get("CHRONOCAS_DEBUG_POISON") == "1"

_TRAP = object()


class PoisonedReadError(RuntimeError):
    """An operation touched a record that was already freed."""


class ReclaimError(RuntimeError):
    """Protocol misuse: nested pin, double retire, stray release."""


def enable_poisoning(on: bool = True) -> None:
    global POISON_ON
    POISON_ON = on


def check_live(record) -> None:
    """Trap check on the algorithm read path; no-op unless poisoning is on."""
    if record._poisoned:
        raise PoisonedReadError(f"read of freed record {type(record).__name__}")


class _Slot:
    """Single-writer per-thread announcement: epoch when pinned, else None."""

    __slots__ = ("epoch", "snapshot")

    def __init__(self) -> None:
        self.epoch = None
        self.snapshot = None


class Guard:
    __slots__ = ("_slot", "active")

    def __init__(self, slot: _Slot) -> None:
        self._slot = slot
        self.active = True


class EpochManager:
    """Shared reclamation domain for one data structure (or several)."""

    def __init__(self, advance_every: int = 64) -> None:
        self._lock = threading.Lock()
        self._epoch = 1
        self._slots: dict[int, _Slot] = {}
        self._local = threading.local()
        self._bags: dict[int, list] = {1: []}
        self._retired_ids: set[int] = set()
        self._advance_every = advance_every
        self._retire_tick = 0
        self.retired_total = 0
        self.freed_total = 0
        self.live_retired_hwm = 0

    # -- announcements -----------------------------------------------------

    def _my_slot(self) -> _Slot:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            slot = _Slot()
            self._local.slot = slot
            with self._lock:
                self._slots[threading.get_ident()] = slot
        return slot

    def pin(self) -> Guard:
        slot = self._my_slot()
        if slot.epoch is not None:
            raise ReclaimError("nested pin")
        slot.epoch = self._epoch
        return Guard(slot)

    def unpin(self, guard: Guard) -> None:
        if not guard.active:
            raise ReclaimError("guard already released")
        guard.active = False
        guard._slot.epoch = None

    def pinned(self) -> "_PinContext":
        return _PinContext(self)

    def is_pinned(self) -> bool:
        slot = getattr(self._local, "slot", None)
        return slot is not None and slot.epoch is not None

    def maybe_pinned(self) -> "_PinContext":
        """Pin unless the calling thread already holds a pin (an operation
        running inside an outer critical section is covered by it)."""
        return _PinContext(self, skip_if_pinned=True)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, camera) -> int:
        """Take a snapshot handle under the caller's pin (one per thread)."""
        slot = self._my_slot()
        if slot.epoch is None:
            raise ReclaimError("snapshot taken without a pin")
        if slot.snapshot is not None:
            raise ReclaimError("thread already holds a snapshot handle")
        handle = camera.take_snapshot()
        slot.snapshot = handle
        return handle

    def release_snapshot(self, handle: int) -> None:
        slot = self._my_slot()
        if slot.snapshot is not None and slot.snapshot != handle:
            raise ReclaimError("releasing a handle this thread does not hold")
        slot.snapshot = None

    @contextmanager
    def query(self, camera):
        """Pin (unless already pinned, as ``maybe_pinned``) and hold one
        snapshot handle of ``camera`` for the block; yields the handle.
        With ``camera`` None no snapshot is taken and None is yielded."""
        guard = None if self.is_pinned() else self.pin()
        handle = None
        try:
            if camera is not None:
                handle = self.snapshot(camera)
            yield handle
        finally:
            if handle is not None:
                self.release_snapshot(handle)
            if guard is not None:
                self.unpin(guard)

    # -- retire / advance / collect ------------------------------------------

    def retire(self, record) -> None:
        with self._lock:
            rid = id(record)
            if rid in self._retired_ids:
                raise ReclaimError("double retire")
            self._retired_ids.add(rid)
            self._bags.setdefault(self._epoch, []).append(record)
            self.retired_total += 1
            live = self.retired_total - self.freed_total
            if live > self.live_retired_hwm:
                self.live_retired_hwm = live
            self._retire_tick += 1
            tick = self._retire_tick
        if self._advance_every and tick % self._advance_every == 0:
            self.try_advance_epoch()

    def _all_caught_up(self, epoch: int) -> bool:
        for slot in list(self._slots.values()):
            e = slot.epoch
            if e is not None and e != epoch:
                return False
        return True

    def try_advance_epoch(self) -> bool:
        """Advance by one iff every non-quiescent announcement is current.

        The winner sweeps every bag at least two epochs stale (certified by
        the announcements just checked).
        """
        cur = self._epoch
        if not self._all_caught_up(cur):
            return False
        with self._lock:
            if self._epoch != cur:
                return False
            self._epoch = cur + 1
            self._bags.setdefault(cur + 1, [])
            doomed = self._sweep_locked(cur - 2)
        self._free_batch(doomed)
        return True

    def collect(self) -> int:
        """Free all bags certified safe without advancing; returns count."""
        cur = self._epoch
        if not self._all_caught_up(cur):
            return 0
        with self._lock:
            if self._epoch != cur:
                return 0
            doomed = self._sweep_locked(cur - 2)
        self._free_batch(doomed)
        return len(doomed)

    def _sweep_locked(self, up_to: int) -> list:
        doomed = []
        for e in [e for e in self._bags if e <= up_to]:
            doomed.extend(self._bags.pop(e))
        return doomed

    def _free_batch(self, records: list) -> None:
        if not records:
            return
        with self._lock:
            for rec in records:
                self._retired_ids.discard(id(rec))
            self.freed_total += len(records)
        hook = "_poison" if POISON_ON else "_free"
        for rec in records:
            free = getattr(rec, hook, None)
            if free is not None:
                free()

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def live_retired(self) -> int:
        return self.retired_total - self.freed_total


class _PinContext:
    __slots__ = ("_mgr", "_guard", "_skip")

    def __init__(self, mgr: EpochManager, skip_if_pinned: bool = False) -> None:
        self._mgr = mgr
        self._guard = None
        self._skip = skip_if_pinned

    def __enter__(self) -> Guard | None:
        if self._skip and self._mgr.is_pinned():
            return None
        self._guard = self._mgr.pin()
        return self._guard

    def __exit__(self, *exc) -> None:
        if self._guard is not None:
            self._mgr.unpin(self._guard)
