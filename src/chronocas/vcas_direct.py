"""Versioned compare-and-swap without indirection (recorded-once clients).

Here the timestamp and the version link live inside the user's node, so a
version list is a chain of user nodes.  Legal only when every node is the
new value of at most one successful ``cas`` anywhere (recorded-once) and all
attempts publishing a node name the same expected value; under that
discipline version lists behave as if disjoint and no walk ever follows the
version link of the oldest node of its own list.

Values are node references (or None); comparison is identity.
"""

from __future__ import annotations

from . import _gate, instrument, reclaim
from .atomic import AtomicCell, field_cas, _install_lock
from .camera import TBD, Camera

# Program-lifetime dummy marking "version link not yet initialized".
# Never dereferenced; distinguishes a fresh node from one linked to None.
INVALID_NEXTV = object()


class RecordedOnceError(RuntimeError):
    """A node was the new value of two successful publications."""


class Versionable:
    """Embeds the version fields a direct cell needs in a user node."""

    __slots__ = ("ts", "nextv", "_published", "_poisoned")

    def __init__(self) -> None:
        self.ts = TBD
        self.nextv = INVALID_NEXTV
        self._published = False
        self._poisoned = False

    def _poison(self) -> None:
        self._poisoned = True
        self.nextv = reclaim._TRAP


class DirectVersionedCas:
    """Atomic node link whose history is threaded through the nodes."""

    __slots__ = ("_head", "_camera", "_origin", "succ_cas_count", "_log")

    def __init__(self, initial, camera: Camera) -> None:
        self._camera = camera
        self._head = AtomicCell(initial)
        self._origin = initial
        self.succ_cas_count = 0
        self._log = [] if instrument.ENABLED else None
        if initial is not None:
            self.init_nextv(initial)
            self.init_ts(initial)

    def init_nextv(self, node) -> None:
        """Normalize an uninitialized version link to None."""
        if _read_nextv(node) is INVALID_NEXTV:
            field_cas(node, "nextv", INVALID_NEXTV, None)

    def init_ts(self, node) -> None:
        if _read_ts(node) == TBD:
            cur = self._camera.peek_timestamp()
            field_cas(node, "ts", TBD, cur)

    def read(self):
        head = self._head.read()
        if head is not None:
            self.init_ts(head)
        return head

    def cas(self, old_node, new_node) -> bool:
        head = self._head.read()
        if head is not None:
            self.init_ts(head)
        if head is not old_node:
            return False
        if new_node is old_node:
            return True
        # Publication: link the new node to the version it displaces, then
        # swing the head.  The link CAS can lose only to a normalization of
        # an initialized-but-unpublished node.
        field_cas(new_node, "nextv", INVALID_NEXTV, head)
        state = {}
        if self._head.cas(head, new_node,
                          on_success=lambda: self._appended(head, new_node, state)):
            if state.get("republished"):
                raise RecordedOnceError(
                    f"{type(new_node).__name__} published twice")
            self.init_ts(new_node)
            return True
        cur = self._head.read()
        if cur is not None:
            self.init_ts(cur)
        return False

    def _appended(self, old, new, state) -> None:
        # Displaced nodes are retired by the owning structure: in a
        # recorded-once client the displaced head is exactly the node the
        # structure just unlinked.
        self.succ_cas_count += 1
        if self._log is not None:
            self._log.append(new)
        with _install_lock:
            if new._published:
                state["republished"] = True
            new._published = True

    def read_snapshot(self, handle: int):
        node = self._head.read()
        if node is not None:
            self.init_ts(node)
        log_len = len(self._log) if self._log is not None else 0
        hops = 0
        poison = reclaim.POISON_ON
        while node is not None and node.ts > handle:
            if poison:
                reclaim.check_live(node)
            if node is self._origin:
                raise SnapshotIsolationError(
                    "walk attempted to leave this cell's own version list")
            nxt = node.nextv
            assert nxt is not INVALID_NEXTV
            node = nxt
            hops += 1
        if poison and node is not None:
            reclaim.check_live(node)
        if instrument.ENABLED:
            instrument.note_walk(self._log, log_len, handle, hops)
        return node

    def version_count(self) -> int:
        n = 0
        node = self._head.read()
        while node is not None and node is not INVALID_NEXTV:
            n += 1
            if node is self._origin:
                break
            node = node.nextv
        return n


class SnapshotIsolationError(RuntimeError):
    """A snapshot walk tried to traverse past its list's oldest node."""


def _read_nextv(node):
    _gate.step()
    return node.nextv


def _read_ts(node):
    _gate.step()
    return node.ts
