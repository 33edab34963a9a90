"""Harris sorted linked list with atomic multi-point queries.

Each node's next field is one versioned cell holding a (link, marked) pair;
marking a node is a versioned CAS from (link, False) to (link, True), so the
history can reconstruct logical-deletion timing.  A deletion linearizes at
the marking CAS; queries resolve every next field at their snapshot cut and
skip any node whose own next is marked at that cut, even if the physical
unlink happened later.

Sentinel nodes bound the list below and above every key; they are never
marked or removed, and no operation takes their keys.
"""

from __future__ import annotations

from . import _gate, reclaim
from .camera import Camera
from .ordered import NEG_INF, POS_INF, OrderedQueries
from .reclaim import EpochManager
from .vcas import VersionedCas


class ListNode:
    __slots__ = ("key", "next", "_poisoned")

    def __init__(self, key) -> None:
        self.key = key
        self.next = None
        self._poisoned = False

    def _poison(self) -> None:
        self._poisoned = True
        self.key = reclaim._TRAP


class HarrisList(OrderedQueries):
    def __init__(self, camera: Camera | None = None,
                 epoch: EpochManager | None = None) -> None:
        self.camera = camera or Camera()
        self.epoch = epoch or EpochManager()
        self.tail = ListNode(POS_INF)
        self.tail.next = VersionedCas((None, False), self.camera, self.epoch)
        self.head = ListNode(NEG_INF)
        self.head.next = VersionedCas((self.tail, False), self.camera, self.epoch)

    # -- internal search with physical cleanup ----------------------------------

    def _find(self, key):
        """Returns (pred, curr): curr is the first unmarked node with
        key >= search key; unlinks marked runs it passes."""
        armed = _gate.armed
        while True:
            pred = self.head
            curr = pred.next.read()[0]
            while True:
                if armed:
                    reclaim.check_live(curr)
                succ, cmark = curr.next.read()
                if cmark:
                    if not pred.next.cas((curr, False), (succ, False)):
                        break   # restart from the head
                    self.epoch.retire(curr)
                    curr = succ
                else:
                    if curr.key >= key:
                        return pred, curr
                    pred, curr = curr, succ

    # -- updates -----------------------------------------------------------------

    def insert(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            while True:
                pred, curr = self._find(key)
                if curr.key == key:
                    return False
                node = ListNode(key)
                node.next = VersionedCas((curr, False), self.camera, self.epoch)
                if pred.next.cas((curr, False), (node, False)):
                    return True

    def delete(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            while True:
                pred, curr = self._find(key)
                if curr.key != key:
                    return False
                succ, marked = curr.next.read()
                if marked:
                    continue
                if curr.next.cas((succ, False), (succ, True)):
                    if pred.next.cas((curr, False), (succ, False)):
                        self.epoch.retire(curr)
                    else:
                        self._find(key)   # leave cleanup to a fresh search
                    return True

    def contains(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            curr = self.head.next.read()[0]
            armed = _gate.armed
            while curr.key < key:
                if armed:
                    reclaim.check_live(curr)
                curr = curr.next.read()[0]
            if curr.key != key:
                return False
            return not curr.next.read()[1]

    # -- snapshot queries ----------------------------------------------------------

    def get_next(self, node: ListNode, handle: int):
        """First successor of ``node`` at the cut whose own next is unmarked;
        skips logically deleted nodes.  Returns None past the high sentinel."""
        n = node.next.read_snapshot(handle)[0]
        armed = _gate.armed
        while n is not None:
            if armed:
                reclaim.check_live(n)
            link, marked = n.next.read_snapshot(handle)
            if not marked:
                break
            n = link
        return n

    def _keys(self, h, lo, hi):
        """The keys in [lo, hi] at handle ``h``, in order, read as the
        consumer asks for them."""
        node = self.get_next(self.head, h)
        while node is not self.tail and node.key <= hi:
            if node.key >= lo:
                yield node.key
            node = self.get_next(node, h)

    def multisearch(self, keys) -> dict:
        found = self._user_keys(keys)
        if found:
            with self.epoch.query(self.camera) as h:
                for k in self._keys(h, min(found), max(found)):
                    if k in found:
                        found[k] = True
        return found
