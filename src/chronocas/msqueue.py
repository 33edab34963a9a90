"""Michael-Scott queue with atomic multi-point queries.

Head and tail are versioned cells sharing one camera; a query takes a
snapshot handle and reads both at that cut.  A node is its own next link:
:class:`QueueNode` is an :class:`~chronocas.atomic.AtomicCell` whose value
is the next node, so a node is one object.  The link is written once, from
None, before the tail can swing past its node (enqueues linearize at the
tail swing), and a query follows links only from the head up to the tail it
read at its handle.  Every link it follows was therefore set before the cut
and never changes afterwards, so a current read gives the link's value at
the cut.

The queries' walks (``peek_endpoints``, ``ith``, ``scan``) read
``_gate.armed`` once.  Unarmed, each link is one load of the node's
``_value``, the value ``AtomicCell.read`` returns; armed, they call
``read()`` on every node and trap-check it.

Keys must not be None; None is the empty indication.
"""

from __future__ import annotations

from . import _gate, reclaim
from .atomic import AtomicCell
from .camera import Camera
from .reclaim import EpochManager
from .vcas import VersionedCas


class QueueNode(AtomicCell):
    """A queue node and its write-once next link (the cell's value)."""

    __slots__ = ("key", "_poisoned")

    def __init__(self, key) -> None:
        super().__init__(None)
        self.key = key
        self._poisoned = False

    def _poison(self) -> None:
        self._poisoned = True
        self.key = reclaim._TRAP


class MsQueue:
    def __init__(self, camera: Camera | None = None,
                 epoch: EpochManager | None = None) -> None:
        self.camera = camera or Camera()
        self.epoch = epoch or EpochManager()
        dummy = QueueNode(None)
        self._head = VersionedCas(dummy, self.camera, self.epoch)
        self._tail = VersionedCas(dummy, self.camera, self.epoch)

    # -- updates ---------------------------------------------------------------

    def enqueue(self, key) -> None:
        node = QueueNode(key)
        with self.epoch.maybe_pinned():
            while True:
                last = self._tail.read()
                nxt = last.read()
                if nxt is None:
                    if last.cas(None, node):
                        self._tail.cas(last, node)
                        return
                else:
                    self._tail.cas(last, nxt)   # help a lagging tail

    def dequeue(self):
        with self.epoch.maybe_pinned():
            while True:
                first = self._head.read()
                last = self._tail.read()
                nxt = first.read()
                if first is last:
                    if nxt is None:
                        return None
                    self._tail.cas(last, nxt)   # tail lags; head must not pass it
                else:
                    key = nxt.key
                    if self._head.cas(first, nxt):
                        self.epoch.retire(first)
                        return key

    # -- queries (each runs against one snapshot cut) ---------------------------

    def peek_endpoints(self):
        with self.epoch.query(self.camera) as h:
            head = self._head.read_snapshot(h)
            tail = self._tail.read_snapshot(h)
            if head is tail:
                return (None, None)
            if _gate.armed:
                first = head.read()
                for node in (head, first, tail):
                    reclaim.check_live(node)
            else:
                first = head._value
            return (first.key, tail.key)

    def scan(self, at: int | None = None) -> list:
        """Full contents, head-to-tail order, at one cut.

        ``at`` replays an earlier handle; call it inside the
        ``epoch.query(camera)`` block that returned that handle.
        """
        if at is not None:
            return self._scan_at(at)
        with self.epoch.query(self.camera) as h:
            return self._scan_at(h)

    def _scan_at(self, h: int) -> list:
        out = []
        node = self._head.read_snapshot(h)
        last = self._tail.read_snapshot(h)
        if _gate.armed:
            # Each node is trap-checked once, as soon as it is reached.
            reclaim.check_live(node)
            while node is not last:
                node = node.read()
                reclaim.check_live(node)
                out.append(node.key)
            return out
        while node is not last:
            node = node._value
            out.append(node.key)
        return out

    def ith(self, i: int):
        """The i-th element (1-based) from the head at the cut, else None."""
        if i < 1:
            raise ValueError("ith index is 1-based")
        with self.epoch.query(self.camera) as h:
            node = self._head.read_snapshot(h)
            last = self._tail.read_snapshot(h)
            armed = _gate.armed
            if armed:
                reclaim.check_live(node)
            for _ in range(i):
                if node is last:
                    return None
                if armed:
                    node = node.read()
                    reclaim.check_live(node)
                else:
                    node = node._value
            return node.key
