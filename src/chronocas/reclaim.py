"""Epoch-based reclamation for structure nodes and displaced version records.

A global epoch counter starts at 1.  Threads announce the epoch when they pin
and go quiescent when they unpin.  Retired records land in the limbo bag of
the current epoch; only the bags of the last three epochs are retained.  A
bag for epoch ``e`` may be emptied once every non-quiescent announcement is
at least ``e + 2``; the winner of an epoch advance sweeps inline, and
``collect`` performs the same certified sweep without advancing.

Freeing is simulated: Python reclaims unreferenced objects, so freeing a
record runs its ``_free`` hook, the one place that decides what a freed
record keeps alive.  A version record (an indirect ``VNode`` or a direct
``Versionable`` node, both ``vcas.VersionRecord``) cuts its version link to
``INVALID_NEXTV``, the one value that ends a version list early, and drops
what it carries: a ``VNode`` its value, a BST internal node its child cells
and the value of its own update word.  Each cell's version list then holds
at most its head, its displaced records not yet freed and one freed record
that ends it and holds nothing, so nothing else stays reachable through it.
A BST info record drops its node references.  With poisoning on, a record
that a walk can reach (a version record, a structure node) runs ``_poison``
instead: it is stamped with a trap pattern (its link included) and any later
algorithm read of it raises :class:`PoisonedReadError`.  A record with no
``_poison`` (a BST info record, which no walk reaches) is freed as usual, so
poisoning never keeps more alive than freeing.  The stress suites assert
that the trap never fires.  Poisoning arms the gate, so every operation
takes the checked path, and each walk and each queue query runs
:func:`check_live` on every record whose fields it reads.

Freeing is safe by the epoch argument below.  A displaced version is
retired only after its successor is stamped, pinned or not:
``VersionedCas.cas`` retires the head it displaced once ``_swap`` has
stamped the successor, and a structure retires a node it unlinked after the
swing that unlinked it returns.  A record retired in epoch ``e`` is freed
only once every pinned thread announced at least ``e + 2``, so every thread
pinned at the retire has unpinned by then, and every thread pinned since
took its handle after the successor's stamp.  Every pinned handle is at or
above that stamp, so a pinned walk stops at the successor at the latest and
never returns a freed record; one that meets it anyway (a handle used
without its pin) raises.

Queries must pin for their whole snapshot lifetime, and a thread holds at
most one snapshot handle at a time; every data-structure query runs inside
:meth:`EpochManager.query`, which fuses pin + take_snapshot so the epoch
argument for timestamp-based safety holds.  Its context is one small object
over the thread's slot: entering it announces the epoch unless the thread
is already pinned, then takes and records the handle; leaving it clears the
handle and withdraws only an announcement it made itself.  No structure
calls :meth:`EpochManager.pin`: updates pin through ``maybe_pinned`` and
queries through ``query``, both of which write the slot directly.

A pinned ``retire`` takes no lock: it appends to the current bag,
``_cur_bag``, with one ``list.append``, which the GIL makes atomic.  This is
safe because the advancer publishes the new bag before it bumps the epoch,
so any bag a thread reads after pinning at ``p`` is labelled at least
``p``; that bag is swept only once every announcement is at least its label
+ 2, which the appender's own announcement ``p`` prevents until it unpins.
So a pinned appender never writes into a swept bag.  An unpinned ``retire``
appends under the lock, which the sweeps hold too.  All threads share one
bag per epoch: per-thread bags would strand the records of threads that
have exited, each holding its cell's history until it is freed.

The counters are derived, not kept per retire: ``live_retired`` is the sum
of the bag lengths, ``retired_total`` is ``freed_total + live_retired``, and
``freed_total`` is bumped under the lock that pops the swept bags.  Between
two sweeps ``live_retired`` only grows, so the high-water mark is sampled
under the lock just before each sweep and read as the larger of that sample
and the current ``live_retired``: exact in any serial run, and short by at
most the lock-free appends that land between a sweep's sample and its pop.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager, nullcontext

from . import _gate

POISON_ON = False

_TRAP = object()


class PoisonedReadError(RuntimeError):
    """An operation touched a record that was already freed."""


class ReclaimError(RuntimeError):
    """Protocol misuse: nested pin, double retire, stray release."""


def enable_poisoning(on: bool = True) -> None:
    global POISON_ON
    POISON_ON = on
    _gate._set_check("poison", on)


enable_poisoning(os.environ.get("CHRONOCAS_DEBUG_POISON") == "1")


def check_live(record) -> None:
    """Trap check on the armed read path; only a poisoned record fails it."""
    if record._poisoned:
        raise PoisonedReadError(f"read of freed record {type(record).__name__}")


class _Slot:
    """Single-writer per-thread announcement: epoch when pinned, else None.

    A slot is also its thread's reusable ``maybe_pinned`` context, entered
    only while unpinned: enter announces the current epoch, exit clears it."""

    __slots__ = ("epoch", "snapshot", "_mgr")

    def __init__(self, mgr: "EpochManager") -> None:
        self.epoch = None
        self.snapshot = None
        self._mgr = mgr

    def __enter__(self) -> None:
        self.epoch = self._mgr._epoch

    def __exit__(self, *exc) -> None:
        self.epoch = None


_COVERED = nullcontext()   # maybe_pinned under an outer pin: nothing to do


class _Local(threading.local):
    slot = None   # the calling thread's _Slot once it has one


class _Query:
    """``EpochManager.query``'s context: one snapshot handle of ``camera``
    held for the block, under a pin taken on entry unless the thread
    already holds one."""

    __slots__ = ("_slot", "_camera", "_took_pin")

    def __init__(self, slot: _Slot, camera) -> None:
        self._slot = slot
        self._camera = camera

    def __enter__(self) -> int:
        slot = self._slot
        if slot.snapshot is not None:
            raise ReclaimError("thread already holds a snapshot handle")
        took_pin = slot.epoch is None
        if took_pin:
            slot.epoch = slot._mgr._epoch
        try:
            handle = slot.snapshot = self._camera.take_snapshot()
        except BaseException:
            if took_pin:
                slot.epoch = None
            raise
        self._took_pin = took_pin
        return handle

    def __exit__(self, *exc) -> None:
        slot = self._slot
        slot.snapshot = None
        if self._took_pin:
            slot.epoch = None


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
        self._local = _Local()
        self._cur_bag: list = []
        self._bags: dict[int, list] = {1: self._cur_bag}
        # id -> the number of its retire call: setdefault is one atomic
        # test-and-set, so the double-retire check needs no lock, and the
        # call numbers pace the advances.
        self._retired_ids: dict[int, int] = {}
        self._retire_count = itertools.count(1)
        self._advance_every = advance_every
        self._hwm_sample = 0
        self.freed_total = 0

    # -- announcements -----------------------------------------------------

    def _my_slot(self) -> _Slot:
        slot = self._local.slot
        if slot is None:
            slot = _Slot(self)
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

    @contextmanager
    def pinned(self):
        guard = self.pin()
        try:
            yield guard
        finally:
            self.unpin(guard)

    def maybe_pinned(self):
        """Pin for a ``with`` block unless the calling thread already holds
        a pin (an operation inside an outer critical section is covered by
        it).  Allocates nothing once the thread has a slot: the context is
        the slot itself, or a shared no-op one when already pinned."""
        slot = self._local.slot or self._my_slot()
        return _COVERED if slot.epoch is not None else slot

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, camera) -> int:
        """Take a snapshot handle under the caller's pin (one per thread)."""
        slot = self._my_slot()
        if slot.epoch is None:
            raise ReclaimError("snapshot taken without a pin")
        return _Query(slot, camera).__enter__()   # covered by the pin

    def release_snapshot(self, handle: int) -> None:
        slot = self._my_slot()
        if slot.snapshot is not None and slot.snapshot != handle:
            raise ReclaimError("releasing a handle this thread does not hold")
        slot.snapshot = None

    def query(self, camera) -> _Query:
        """Pin (unless already pinned, as ``maybe_pinned``) and hold one
        snapshot handle of ``camera`` for a ``with`` block, which receives
        the handle."""
        return _Query(self._local.slot or self._my_slot(), camera)

    # -- retire / advance / collect ------------------------------------------

    def retire(self, record) -> None:
        """Hand ``record`` to the current epoch's bag; lock-free when the
        caller is pinned (see the module docstring for why that is safe)."""
        slot = self._local.slot
        n = next(self._retire_count)
        if slot is not None and slot.epoch is not None:
            if self._retired_ids.setdefault(id(record), n) != n:
                raise ReclaimError("double retire")
            self._cur_bag.append(record)
        else:
            with self._lock:
                if self._retired_ids.setdefault(id(record), n) != n:
                    raise ReclaimError("double retire")
                self._cur_bag.append(record)
        if self._advance_every and n % self._advance_every == 0:
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
            self._sample_hwm_locked()
            self._cur_bag = self._bags[cur + 1] = []   # publish, then bump
            self._epoch = cur + 1
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
            self._sample_hwm_locked()
            doomed = self._sweep_locked(cur - 2)
        self._free_batch(doomed)
        return len(doomed)

    def _live_locked(self) -> int:
        return sum(len(bag) for bag in self._bags.values())

    def _sample_hwm_locked(self) -> None:
        self._hwm_sample = max(self._hwm_sample, self._live_locked())

    def _sweep_locked(self, up_to: int) -> list:
        doomed = []
        for e in [e for e in self._bags if e <= up_to]:
            doomed.extend(self._bags.pop(e))
        for rec in doomed:
            del self._retired_ids[id(rec)]
        self.freed_total += len(doomed)
        return doomed

    def _free_batch(self, records: list) -> None:
        # A record without a poison hook is freed as usual under poisoning.
        poison = POISON_ON
        for rec in records:
            free = ((poison and getattr(rec, "_poison", None))
                    or getattr(rec, "_free", None))
            if free is not None:
                free()

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def live_retired(self) -> int:
        with self._lock:
            return self._live_locked()

    @property
    def retired_total(self) -> int:
        with self._lock:
            return self.freed_total + self._live_locked()

    @property
    def live_retired_hwm(self) -> int:
        with self._lock:
            return max(self._hwm_sample, self._live_locked())
