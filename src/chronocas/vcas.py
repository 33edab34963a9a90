"""Versioned compare-and-swap cell (indirect form).

The cell keeps its history as a singly-linked list of version records,
newest first.  A successful ``cas`` pushes a record whose timestamp starts
as TBD; the timestamp is installed afterwards by ``_init_ts``, and every
operation that encounters a TBD head helps install it first.  That helping
is what makes append + timestamp-read + timestamp-install appear atomic, so
``read_snapshot`` can resolve any handle by walking to the first record
whose timestamp does not exceed it.

``read`` and ``cas`` touch a constant number of shared locations regardless
of history length; ``read_snapshot`` walks one link per newer version.

Reclamation frees displaced records and cuts their link to None, the same
end marker the oldest record carries, so a walk that reaches a cut link
raises :class:`SnapshotPreconditionError` rather than returning a value.  A
walk under the pin its handle was taken with never does (see
:mod:`chronocas.reclaim`).
"""

from __future__ import annotations

import operator

from . import _gate, instrument, reclaim
from .atomic import AtomicCell, field_cas
from .camera import TBD, Camera

# Test-only fault injection:  "no_read_help" drops the helping step from
# read(); "no_init_before_swing" drops the pre-append helping step from
# cas().  Both are load-bearing; the linearizability suite proves it.
_mutations: frozenset = frozenset()


class SnapshotPreconditionError(RuntimeError):
    """read_snapshot was given a handle older than the cell's retained
    history: older than the cell, or older than a version already freed."""


class VNode:
    """One version: immutable value, write-once timestamp, immutable link."""

    __slots__ = ("val", "nextv", "ts", "_poisoned")

    def __init__(self, val, nextv) -> None:
        self.val = val
        self.nextv = nextv
        self.ts = TBD
        self._poisoned = False

    def _free(self) -> None:
        self.nextv = None

    def _poison(self) -> None:
        self._poisoned = True
        self.val = reclaim._TRAP
        self.nextv = reclaim._TRAP


class VersionedCas:
    """Head of a version list plus the camera it is synchronized with."""

    __slots__ = ("_head", "_camera", "_reclaim", "_eq", "_birth", "_log",
                 "succ_cas_count", "max_success")

    def __init__(self, initial, camera: Camera, reclaim_mgr=None, eq=None,
                 max_success=None) -> None:
        self._camera = camera
        self._reclaim = reclaim_mgr
        self._eq = eq or operator.eq
        node = VNode(initial, None)
        self._head = AtomicCell(node)
        self._log = instrument.VersionLog(None, node) if instrument.ENABLED else None
        self.succ_cas_count = 0
        self.max_success = max_success
        self._init_ts(node)
        self._birth = camera.peek_timestamp()

    # -- helping -------------------------------------------------------------

    def _init_ts(self, node: VNode) -> None:
        """Install a current timestamp into ``node`` unless one is there."""
        _gate.step()
        if node.ts == TBD:
            cur = self._camera.peek_timestamp()
            field_cas(node, "ts", TBD, cur)

    init_ts = _init_ts  # exposed: racing helpers are part of the contract

    # -- current-state operations ---------------------------------------------

    def read(self):
        head = self._head.read()
        if "no_read_help" not in _mutations:
            self._init_ts(head)
        return head.val

    def cas(self, old_val, new_val) -> bool:
        head = self._head.read()
        if "no_init_before_swing" not in _mutations:
            self._init_ts(head)
        if not self._eq(head.val, old_val):
            return False
        if self._eq(new_val, old_val):
            return True
        new_node = VNode(new_val, head)
        if self._head.cas(head, new_node, on_success=self._appended):
            self._init_ts(new_node)
            return True
        # The unpublished record was never visible; plain disposal.
        self._init_ts(self._head.read())
        return False

    def _appended(self, old: VNode, new: VNode) -> None:
        # Runs inside the head cell's critical section.
        self.succ_cas_count += 1
        if self.max_success is not None and self.succ_cas_count > self.max_success:
            instrument.violation("cell exceeded its write-once budget")
        if self._log is not None:
            self._log.append(new)
        if self._reclaim is not None:
            self._reclaim.retire(old)

    # -- snapshot reads --------------------------------------------------------

    def read_snapshot(self, handle: int):
        head = self._head.read()
        self._init_ts(head)
        view = self._log.view() if self._log is not None else None
        node = head
        hops = 0
        poison = reclaim.POISON_ON
        while node.ts > handle:
            if poison:
                reclaim.check_live(node)
            nxt = node.nextv
            if nxt is None:
                raise SnapshotPreconditionError(
                    f"handle {handle} predates this cell's retained history "
                    f"(born at {self._birth}; older versions may be freed)")
            node = nxt
            hops += 1
        if poison:
            reclaim.check_live(node)
        if instrument.ENABLED:
            instrument.note_walk(view, handle, hops)
        return node.val

    # -- introspection (tests, bench) -------------------------------------------

    def version_count(self) -> int:
        """Length of the version list; not linearizable, test use only."""
        n = 0
        node = self._head.read()
        while node is not None:
            n += 1
            node = node.nextv
        return n

    def retire_head(self) -> None:
        """Retire the current head record with its owning node."""
        if self._reclaim is not None:
            self._reclaim.retire(self._head.read())
