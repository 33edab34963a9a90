"""Versioned compare-and-swap: one versioned pointer, two cell forms.

A cell keeps its history as a singly-linked list of version records, newest
first.  A successful ``cas`` pushes a record whose timestamp starts as TBD;
the winner installs it afterwards with ``init_ts``, and every operation that
meets a TBD head helps install it first.  That helping makes append +
timestamp-read + timestamp-install appear atomic, so a snapshot read
resolves any handle by walking to the first record stamped at or below it.
``read``, ``cas`` and the walk help inline (one gated step, then a
``field_cas`` only when the head is still TBD); ``init_ts`` is the same
check as a method, for the publish tail and racing helpers.
:class:`VersionedPointer` holds that protocol once, and is itself the
atomic word: the head record and the lock that guards its swap are slots of
the pointer, as in the paper's vCAS object.  The lock comes from
:mod:`chronocas.atomic`'s shared table and obeys its rules: the swap's
critical section takes no other table lock and no gated step.
:class:`VersionedCas` wraps each value in a :class:`VNode`, and
:class:`~chronocas.vcas_direct.DirectVersionedCas` threads the list through
the user's nodes.  ``read`` and ``cas`` touch a constant number of shared
locations; a snapshot read walks one link per newer version.  A cell whose
head is stamped at or below the handle returns the head's value without
walking, unless the gate is armed or poisoning is on.

:class:`~chronocas.bst.LeafBst` inlines two branches of
:class:`VersionedCas` in its indirect descents: ``read``'s stamped-head
case and ``read_snapshot``'s no-walk case.  A change to either branch must
update both.

A handle older than the cell's first record is rejected before any walk,
and a freed record holds nothing: its link is cut to :data:`INVALID_NEXTV`
and its value dropped, so a walk raises on any record with that link (a
published head never has it; a pinned walk never meets one, see
:mod:`chronocas.reclaim`).  Both raise :class:`SnapshotPreconditionError`.
"""

from __future__ import annotations

from . import _gate, instrument, reclaim
from .atomic import _next_stripe, field_cas
from .camera import INVALID_NEXTV, TBD, Camera

# Test-only fault injection:  "no_read_help" drops the helping step from
# read(); "no_init_before_swing" drops the pre-append helping step from
# cas().  Both are load-bearing; the linearizability suite proves it.  They
# are consulted only while the gate is armed: the explorer that exposes them
# always arms it, and unarmed accesses skip the set lookup.
_mutations: frozenset = frozenset()


def _help_step(mutation: str) -> bool:
    """Armed path of an inline helping check: False if ``mutation`` drops
    the check, else the check's gated step is taken."""
    if mutation in _mutations:
        return False
    _gate.step()
    return True


class SnapshotPreconditionError(RuntimeError):
    """read_snapshot was given a handle older than the cell's retained
    history: older than the cell, or older than a version already freed."""


class VersionRecord:
    """Write-once timestamp and link to the next older version."""

    __slots__ = ("ts", "nextv", "_poisoned")

    def _free(self) -> None:
        self.nextv = INVALID_NEXTV

    def _poison(self) -> None:
        self._poisoned = True
        self.nextv = reclaim._TRAP


class VNode(VersionRecord):
    """One version of an indirect cell; value and link fixed until freed."""

    __slots__ = ("val",)

    def __init__(self, val, nextv) -> None:
        self.val = val
        self.nextv = nextv
        self.ts = TBD
        self._poisoned = False

    def _free(self) -> None:
        VersionRecord._free(self)
        self.val = None

    def _poison(self) -> None:
        VersionRecord._poison(self)
        self.val = reclaim._TRAP


class VersionedPointer:
    """One versioned pointer: the head of a version list, held in its own
    slot and guarded by a lock from the shared table, plus the camera it is
    synchronized with.

    The head is read without the lock (one slot read after the gated step)
    and swung only under it.  A successful swap runs ``_appended(old, new)``
    (a no-op unless a subclass refuses the swap there), then appends to the
    instrumented log, both inside the critical section, before the new head
    becomes visible.  ``_appended`` must take no gated step and no table
    lock; if it raises, nothing is logged and the head is not swung.
    """

    __slots__ = ("_head", "_lock", "_camera", "_floor_ts", "_log")

    def __init__(self, first, camera: Camera) -> None:
        # The subclass stamps ``first`` and sets the floor: its timestamp, or
        # -1 for an empty direct cell (``first`` None).
        self._camera = camera
        self._head = first
        self._lock = _next_stripe()
        self._log = instrument.VersionLog(first) if instrument.ENABLED else None

    def init_ts(self, node) -> None:
        """Install a current timestamp into ``node`` unless one is there.
        Exposed: racing helpers are part of the contract."""
        if _gate.armed:
            _gate.step()
        if node.ts == TBD:
            field_cas(node, "ts", TBD, self._camera.peek_timestamp())

    def _swap(self, head, new) -> bool:
        """Swing the head from ``head`` to ``new`` (records compare by
        identity).  The winner installs its own timestamp; a loser helps
        whatever head beat it."""
        if _gate.armed:
            _gate.step()
        with self._lock:
            won = self._head is head
            if won:
                self._appended(head, new)
                if self._log is not None:
                    self._log.append(new)
                self._head = new
        if won:
            self.init_ts(new)
            return True
        if _gate.armed:
            _gate.step()
        cur = self._head
        if cur is not None:
            self.init_ts(cur)
        return False

    def _appended(self, old, new) -> None:
        pass

    def _walk(self, handle: int):
        """The record (or None) this cell held at ``handle``, never a freed
        one: a freed record on the walk raises."""
        if handle < self._floor_ts:
            raise SnapshotPreconditionError(
                f"handle {handle} predates this cell "
                f"(its first version is stamped {self._floor_ts})")
        armed = _gate.armed
        if armed:
            _gate.step()
        node = self._head
        if node is not None:
            if armed:
                _gate.step()
            if node.ts == TBD:
                field_cas(node, "ts", TBD, self._camera.peek_timestamp())
        view = self._log.view() if self._log is not None else None
        hops = 0
        poison = reclaim.POISON_ON
        while node is not None:
            if poison:
                reclaim.check_live(node)
            if node.nextv is INVALID_NEXTV:
                raise SnapshotPreconditionError(
                    f"handle {handle} predates this cell's retained history "
                    f"(a version on its walk was freed)")
            if node.ts <= handle:
                break
            node = node.nextv
            hops += 1
        if instrument.ENABLED:
            instrument.note_walk(view, handle, hops)
        return node


class VersionedCas(VersionedPointer):
    """Versioned cell over arbitrary values, one :class:`VNode` per version."""

    __slots__ = ("_reclaim",)

    def __init__(self, initial, camera: Camera, reclaim_mgr=None) -> None:
        self._reclaim = reclaim_mgr
        # The first record is private until the constructor returns, so it
        # is stamped directly rather than installed with ``init_ts``.
        first = VNode(initial, None)
        first.ts = self._floor_ts = camera.peek_timestamp()
        super().__init__(first, camera)

    def read(self):
        # LeafBst._descend inlines the unarmed, stamped-head case.
        armed = _gate.armed
        if armed:
            _gate.step()
        head = self._head
        if (not armed or _help_step("no_read_help")) and head.ts == TBD:
            field_cas(head, "ts", TBD, self._camera.peek_timestamp())
        return head.val

    def cas(self, old_val, new_val) -> bool:
        armed = _gate.armed
        if armed:
            _gate.step()
        head = self._head
        if ((not armed or _help_step("no_init_before_swing"))
                and head.ts == TBD):
            field_cas(head, "ts", TBD, self._camera.peek_timestamp())
        if head.val != old_val:
            return False
        if new_val == old_val:
            return True
        # A losing record was never visible; plain disposal.  The winner
        # retires the displaced head only after ``_swap`` has stamped its
        # successor, outside the critical section (see chronocas.reclaim).
        if not self._swap(head, VNode(new_val, head)):
            return False
        if self._reclaim is not None:
            self._reclaim.retire(head)
        return True

    def read_snapshot(self, handle: int):
        """The value this cell held at ``handle``.  A head stamped at or
        below the handle is that value, returned without a walk (0 hops; the
        floor check holds, as handle >= head.ts >= floor).  A TBD head, an
        armed gate (its steps) or poisoning (the head's trap check) walk.
        LeafBst._keys inlines the no-walk case."""
        head = self._head
        if head.ts <= handle and not _gate.armed and not reclaim.POISON_ON:
            if instrument.ENABLED:
                instrument.note_hops(0)
            return head.val
        return self._walk(handle).val
