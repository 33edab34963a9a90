"""Versioned compare-and-swap without indirection (recorded-once clients).

Here the timestamp and the version link live inside the user's node, so a
version list is a chain of user nodes; the head, helping, publish tail, floor
check and walk are :class:`~chronocas.vcas.VersionedPointer`'s.  Legal only
when every node is the new value of at most one successful ``cas`` anywhere
(recorded-once) and all attempts publishing a node name the same expected
value; under that discipline version lists behave as if disjoint, and the
floor check keeps every walk from following the version link of the oldest
node of its own list.

Values are node references (or None, which stays a legal value: a cell that
starts empty reads None at every handle before its first publication);
comparison is identity.
"""

from __future__ import annotations

from . import _gate
from .atomic import _install_lock, field_cas
from .camera import INVALID_NEXTV, TBD, Camera
from .vcas import VersionedPointer, VersionRecord


class RecordedOnceError(RuntimeError):
    """A node was the new value of two successful publications."""


class Versionable(VersionRecord):
    """Embeds the version fields a direct cell needs in a user node."""

    __slots__ = ("_published",)

    def __init__(self) -> None:
        self.ts = TBD
        self.nextv = INVALID_NEXTV
        self._published = False
        self._poisoned = False


class DirectVersionedCas(VersionedPointer):
    """Atomic node link whose history is threaded through the nodes."""

    __slots__ = ()

    def __init__(self, initial, camera: Camera) -> None:
        super().__init__(initial, camera)
        self._floor_ts = -1
        if initial is not None:
            # The initial node may already be published: install, not set.
            self.init_nextv(initial)
            self.init_ts(initial)
            self._floor_ts = initial.ts

    def init_nextv(self, node) -> None:
        """Normalize an uninitialized version link to None."""
        if _gate.armed:
            _gate.step()
        if node.nextv is INVALID_NEXTV:
            field_cas(node, "nextv", INVALID_NEXTV, None)

    def read(self):
        armed = _gate.armed
        if armed:
            _gate.step()
        head = self._head
        if head is not None:
            if armed:
                _gate.step()
            if head.ts == TBD:
                field_cas(head, "ts", TBD, self._camera.peek_timestamp())
        return head

    def cas(self, old_node, new_node) -> bool:
        armed = _gate.armed
        if armed:
            _gate.step()
        head = self._head
        if head is not None:
            if armed:
                _gate.step()
            if head.ts == TBD:
                field_cas(head, "ts", TBD, self._camera.peek_timestamp())
        if head is not old_node:
            return False
        if new_node is old_node:
            return True
        # Publication: link the new node to the version it displaces, then
        # swing the head.  The link CAS can lose only to a normalization of
        # an initialized-but-unpublished node.
        field_cas(new_node, "nextv", INVALID_NEXTV, head)
        return self._swap(head, new_node)

    def _appended(self, old, new) -> None:
        # Displaced nodes are retired by the owning structure: in a
        # recorded-once client the displaced head is exactly the node the
        # structure just unlinked.  A republication is refused here, before
        # the swing, so the head never names a node another cell published.
        with _install_lock:
            if new._published:
                raise RecordedOnceError(f"{type(new).__name__} published twice")
            new._published = True

    def read_snapshot(self, handle: int):
        """The node this cell held at ``handle`` (the value is the record
        itself).  As in :meth:`VersionedCas.read_snapshot`, a head stamped
        at or below the handle is returned without a walk unless the gate
        is armed; an empty cell walks."""
        head = self._head
        if head is not None and head.ts <= handle and not _gate.armed:
            return head
        return self._walk(handle)
