"""Versioned compare-and-swap without indirection (recorded-once clients).

Here the timestamp and the version link live inside the user's node, so a
version list is a chain of user nodes and a record's value is the node
itself (:attr:`Versionable.val`).  ``read``, ``cas`` (comparing with ``==``,
as the indirect form does), the head, helping, publish tail, floor check and
walk are :class:`~chronocas.vcas.VersionedPointer`'s; this form keeps only
how a winning ``cas`` publishes its node (link it to the head it displaces,
or refuse a node whose link ``init_nextv`` already set) and the
recorded-once check.  Legal only when every node is the new value of
at most one successful ``cas`` anywhere (recorded-once) and all attempts
publishing a node name the same expected value; under that discipline
version lists behave as if disjoint, and the floor check keeps every walk
from following the version link of the oldest node of its own list.

Values are node references, or None: a cell that starts empty has as its
first record one shared, private sentinel that carries None and is stamped
-1, below every handle, so it reads None at every handle before its first
publication.  The sentinel is never published, retired or freed.
"""

from __future__ import annotations

from . import _gate
from .atomic import field_cas
from .camera import INVALID_NEXTV, TBD, Camera
from .vcas import VersionedPointer, VersionRecord, VNode

# The first record of every empty direct cell.
_EMPTY = VNode(None, None)
_EMPTY.ts = -1


class RecordedOnceError(RuntimeError):
    """A node was the new value of two successful publications, or was
    published after ``init_nextv`` had set its link."""


class Versionable(VersionRecord):
    """Embeds the version fields a direct cell needs in a user node."""

    __slots__ = ("_published",)

    def __init__(self) -> None:
        self.ts = TBD
        self.nextv = INVALID_NEXTV
        self._published = False

    @property
    def val(self):
        """The value this record carries in a direct cell: the node."""
        return self


class DirectVersionedCas(VersionedPointer):
    """Atomic node link whose history is threaded through the nodes."""

    __slots__ = ()

    def __init__(self, initial, camera: Camera) -> None:
        first = _EMPTY if initial is None else initial
        super().__init__(first, camera)
        if initial is not None:
            # The initial node may already be published: install, not set.
            self.init_nextv(initial)
            self.init_ts(initial)
        self._floor_ts = first.ts

    def init_nextv(self, node) -> None:
        """Normalize an uninitialized version link to None."""
        if _gate.armed:
            _gate.step()
        if node.nextv is INVALID_NEXTV:
            field_cas(node, "nextv", INVALID_NEXTV, None)

    @staticmethod
    def _record(new_node, head):
        # Publication links the new node to the version it displaces, then
        # the swap swings the head.  The link CAS loses to a racing attempt
        # that published the same node over the same head (the link is then
        # already ``head``), or to a normalization of an initialized node:
        # its link is then None and publishing it would cut the cell's
        # history below it, so the publication is refused before the swing.
        if (not field_cas(new_node, "nextv", INVALID_NEXTV, head)
                and new_node.nextv is not head):
            raise RecordedOnceError(
                f"{type(new_node).__name__} was initialized before its "
                f"publication")
        return new_node

    def _appended(self, old, new) -> None:
        # Displaced nodes are retired by the owning structure: in a
        # recorded-once client the displaced head is exactly the node the
        # structure just unlinked.  A republication is refused here, under
        # ``_install_lock`` and before the swing: no two heads name a node.
        if new._published:
            raise RecordedOnceError(f"{type(new).__name__} published twice")
        new._published = True
