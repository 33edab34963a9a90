"""Lock-free leaf-oriented BST with atomic multi-point queries.

Keys live only in leaves; internal keys route searches (left subtree keys <
key <= right subtree keys).  Updates use the flag/mark/help protocol: an
operation records what it intends in an info object, flags the nodes whose
child pointers it will change, performs the single child-pointer swing that
linearizes it, then unflags.  Any thread meeting a flag helps that operation
first, so updates are lock-free.

Child pointers are versioned cells; the update (flag) word is the internal
node's own unversioned word, because queries only ever read key/left/right,
so its history is never needed.  Three builds share the code:

* ``indirect`` - child cells are VersionedCas (the default);
* ``direct``   - child cells are DirectVersionedCas; nodes embed their
  timestamp and version link.  Deletion then publishes a fresh copy of the
  surviving sibling (after marking the original so helpers redirect), which
  keeps every node the new value of at most one successful CAS;
* ``plain``    - unversioned cells, non-atomic queries; baseline for
  overhead measurements only.

Two sentinel leaves (with keys above every user key) keep every real leaf at
depth two or more, so a deletable leaf always has a grandparent.
"""

from __future__ import annotations

from . import _gate, reclaim
from .atomic import AtomicCell, PlainCell, _next_stripe
from .camera import TBD, Camera
from .ordered import Bound, OrderedQueries
from .reclaim import EpochManager
from .vcas import VersionedCas
from .vcas_direct import DirectVersionedCas, Versionable

CLEAN, IFLAG, DFLAG, MARK = 0, 1, 2, 3
# The update word of every new internal node; words compare by value.
_FRESH = (CLEAN, None)


# Routing sentinels, above every user key and above POS_INF, the top of a
# whole-set query's interval, so no walk a query asks for yields them.
INF1 = Bound(2)
INF2 = Bound(3)


def _below(key, node) -> bool:
    """``key < node.key`` for a key an operation routes: a user key, or the
    INF1 key of the root's left child.  A sentinel's bound sorts above
    every such key, so it is answered without a comparison (a ``Bound``
    comparison is a Python call)."""
    k = node.key
    return k is INF1 or k is INF2 or key < k


class BstLeaf(Versionable):
    __slots__ = ("key",)

    def __init__(self, key) -> None:
        super().__init__()
        self.key = key

    def _poison(self) -> None:
        Versionable._poison(self)
        self.key = reclaim._TRAP


class BstInternal(Versionable):
    """An internal node; ``_value``, under ``_lock``, is its update word."""

    __slots__ = ("key", "left", "right", "_value", "_lock")
    read_update = AtomicCell.read
    cas_update = AtomicCell.cas

    def __init__(self, key, left_cell, right_cell) -> None:
        super().__init__()
        self.key = key
        self.left = left_cell
        self.right = right_cell
        self._value = _FRESH
        self._lock = _next_stripe()

    def _free(self) -> None:
        Versionable._free(self)
        self.left = self.right = self._value = None

    def _poison(self) -> None:
        Versionable._poison(self)
        self.key = reclaim._TRAP


class IInfo:
    __slots__ = ("p", "l", "new_internal")

    def __init__(self, p, l, new_internal) -> None:
        self.p = p
        self.l = l
        self.new_internal = new_internal

    def _free(self) -> None:
        # Freed only after its flag was cleared: a CLEAN word that still
        # names it is never helped, so its fields are never read again.
        self.p = self.l = self.new_internal = None


class DInfo:
    __slots__ = ("gp", "p", "l", "pupdate")

    def __init__(self, gp, p, l, pupdate) -> None:
        self.gp = gp
        self.p = p
        self.l = l
        self.pupdate = pupdate

    def _free(self) -> None:
        # As IInfo; a MARK naming it stays only on nodes already unlinked.
        self.gp = self.p = self.l = self.pupdate = None


class LeafBst(OrderedQueries):
    def __init__(self, camera: Camera | None = None,
                 epoch: EpochManager | None = None,
                 mode: str = "indirect") -> None:
        if mode not in ("indirect", "direct", "plain"):
            raise ValueError(f"unknown mode {mode!r}")
        self.camera = camera or Camera()
        self.epoch = epoch or EpochManager()
        self.mode = mode
        # indirect child cells are read inline by the descents (see _descend)
        self._inline = mode == "indirect"
        self._root = self._internal(INF2, BstLeaf(INF1), BstLeaf(INF2))

    # -- construction helpers ----------------------------------------------------

    def _cell(self, value):
        if self.mode == "indirect":
            return VersionedCas(value, self.camera, self.epoch)
        if self.mode == "direct":
            return DirectVersionedCas(value, self.camera)
        return PlainCell(value)

    def _internal(self, key, left_node, right_node) -> BstInternal:
        return BstInternal(key, self._cell(left_node), self._cell(right_node))

    # -- search ------------------------------------------------------------------
    #
    # Every key a search is given is a user key (``_check_key`` guards each
    # entry point), so it sorts below both sentinels and turns left at both:
    # the descents start at ``root.left`` and pass the INF1 node, when there
    # is one, by its left child, comparing only user keys below it.  The
    # update search's re-reads and the helpers that pick a child by key do
    # the same through ``_below``.
    #
    # In the indirect build with the gate unarmed, the descents take a child
    # cell's step inline: a stamped head is the value ``VersionedCas.read``
    # returns (and ``read_snapshot`` at a handle at or above the stamp), so
    # its value is used without the call.  A TBD head, or one newer than the
    # handle, calls the method, which helps it and walks.  An armed gate (a
    # hook, instrumentation or poisoning), the direct build and the plain
    # build call the method for every cell.  Each operation reads
    # ``_gate.armed`` once: hooks and modes change only between operations.

    def _descend(self, key, h=None):
        """The last three nodes on ``key``'s path, ``(gp, p, l)``, found by
        child cells alone, read now or, given a handle ``h``, at ``h``;
        ``gp`` is None when ``p`` is the root.

        ``key`` is a user key, and ``root.left`` is either the INF1 leaf
        (the set is empty) or the INF1 node, whose right child is always
        the INF1 leaf; so the walk reads ``root.left``, then the INF1
        node's ``left``, and compares no bound.  Below that, a level tests
        for a leaf, compares ``key`` and reads the child cell: unarmed in
        the indirect build it takes a stamped head inline, otherwise it
        calls the cell's method, with the gated steps that takes.  Armed,
        the INF1 node, whose key the walk skips, is checked live."""
        armed = _gate.armed
        inline = self._inline and not armed
        newest = TBD - 1 if h is None else h
        root = self._root
        cell = root.left
        if inline and (head := cell._head).ts <= newest:
            p = head.val
        else:
            p = cell.read() if h is None else cell.read_snapshot(h)
        if not isinstance(p, BstInternal):          # the INF1 leaf
            return None, root, p
        if armed:
            reclaim.check_live(p)
        gp, cell = root, p.left
        while True:
            if inline and (head := cell._head).ts <= newest:
                node = head.val
            else:
                node = cell.read() if h is None else cell.read_snapshot(h)
            if not isinstance(node, BstInternal):
                return gp, p, node
            gp, p = p, node
            cell = node.left if key < node.key else node.right

    def _search(self, key):
        """EFRB's update search: ``(gp, p, l)`` with the update words of
        ``p`` and ``gp``, each read before a read of the child pointer it
        guards that still names the node below.

        EFRB reads every update word on the path, but an update uses only
        the last two, and only through that order: a child pointer changes
        only while its parent is flagged, and every flag names a fresh info
        record, so a flag CAS that expects ``pupdate`` succeeds only if
        ``p``'s child was still ``l`` in between.  The upper update words are
        dead reads.  So the search descends by child cells alone, then reads
        ``gp``'s update word and re-reads ``gp``'s child, then does the same
        at ``p``, and restarts if a re-read names another node.  A node
        is never relinked once unlinked (a deletion swings in the sibling, or
        in the direct build a fresh copy), so an identity check cannot pass
        on a node that left the path and came back (no ABA).  A restart
        follows a successful child swing, so the search stays lock-free.
        """
        while True:
            gp, p, l = self._descend(key)
            gpupdate = None
            if gp is not None:
                gpupdate = gp.read_update()
                if (gp.left if _below(key, gp) else gp.right).read() is not p:
                    continue
            pupdate = p.read_update()
            if (p.left if _below(key, p) else p.right).read() is l:
                return gp, p, l, pupdate, gpupdate

    def find(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            return self._descend(key)[2].key == key

    # -- helping -----------------------------------------------------------------

    def _help(self, update) -> None:
        state, info = update
        if state == IFLAG:
            self._help_insert(info)
        elif state == MARK:
            self._help_marked(info)
        elif state == DFLAG:
            self._help_delete(info)

    def _cas_child(self, parent, old, new) -> bool:
        cell = parent.left if _below(old.key, parent) else parent.right
        return cell.cas(old, new)

    # -- insert ------------------------------------------------------------------

    def insert(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            while True:
                gp, p, l, pupdate, gpupdate = self._search(key)
                if l.key == key:
                    return False
                if pupdate[0] != CLEAN:
                    self._help(pupdate)
                    continue
                new_leaf, sib = BstLeaf(key), BstLeaf(l.key)
                if _below(key, l):
                    ni = self._internal(l.key, new_leaf, sib)
                else:
                    ni = self._internal(key, sib, new_leaf)
                op = IInfo(p, l, ni)
                if p.cas_update(pupdate, (IFLAG, op)):
                    self._help_insert(op)
                    return True
                self._help(p.read_update())

    def _help_insert(self, op: IInfo) -> None:
        if self._cas_child(op.p, op.l, op.new_internal):
            self.epoch.retire(op.l)
        if op.p.cas_update((IFLAG, op), (CLEAN, op)):
            self.epoch.retire(op)

    # -- delete ------------------------------------------------------------------

    def delete(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            while True:
                gp, p, l, pupdate, gpupdate = self._search(key)
                if l.key != key:
                    return False
                assert gp is not None  # real leaves sit at depth >= 2
                if gpupdate[0] != CLEAN:
                    self._help(gpupdate)
                    continue
                if pupdate[0] != CLEAN:
                    self._help(pupdate)
                    continue
                op = DInfo(gp, p, l, pupdate)
                if gp.cas_update(gpupdate, (DFLAG, op)):
                    if self._help_delete(op):
                        return True
                else:
                    self._help(gp.read_update())

    def _help_delete(self, op: DInfo) -> bool:
        if (op.p.cas_update(op.pupdate, (MARK, op))
                or op.p.read_update() == (MARK, op)):
            self._help_marked(op)
            return True
        if op.gp.cas_update((DFLAG, op), (CLEAN, op)):
            self.epoch.retire(op)
        return False

    def _help_marked(self, op: DInfo) -> None:
        p, l = op.p, op.l
        other = p.right if _below(l.key, p) else p.left
        sibling = other.read()
        publish = self._frozen_copy(op, sibling) if self.mode == "direct" else sibling
        if self._cas_child(op.gp, p, publish):
            self.epoch.retire(p)
            self.epoch.retire(l)
            if self.mode == "direct":
                self.epoch.retire(sibling)
        if op.gp.cas_update((DFLAG, op), (CLEAN, op)):
            self.epoch.retire(op)

    def _frozen_copy(self, op: DInfo, sibling):
        """Copy the surviving sibling so the grandparent swing publishes a
        fresh node.  An internal sibling is marked first: its children are
        then frozen, and helpers that meet the mark redirect to this very
        deletion."""
        if isinstance(sibling, BstLeaf):
            return BstLeaf(sibling.key)
        while True:
            su = sibling.read_update()
            if su[0] == MARK:
                if su[1] is not op:
                    raise RuntimeError("sibling marked by a foreign operation")
                break
            if su[0] == CLEAN:
                if sibling.cas_update(su, (MARK, op)):
                    break
                continue
            self._help(su)
        return self._internal(sibling.key, sibling.left.read(),
                              sibling.right.read())

    # -- snapshot queries ----------------------------------------------------------
    #
    # The ordered queries (``OrderedQueries``) are folds over one lazy walk,
    # ``_keys``.  It keeps an explicit stack of child cells, pushed right
    # before left, so it visits leaves in key order and resolves each cell at
    # the handle only when it reaches it; the tree is unbalanced, so
    # recursion would overflow on deep trees.

    def _keys(self, h, lo, hi):
        """The user keys in [lo, hi] at handle ``h``, in order, read as the
        consumer asks for them; subtrees outside the interval are pruned."""
        node, stack = self._root, []
        armed = _gate.armed
        inline = self._inline and not armed   # _descend's inline step
        while True:
            if armed:
                reclaim.check_live(node)
            if isinstance(node, BstLeaf):
                key = node.key
                if lo <= key <= hi:
                    yield key
            else:
                if hi >= node.key:
                    stack.append(node.right)
                if lo < node.key:
                    stack.append(node.left)
            if not stack:
                return
            cell = stack.pop()
            if inline:
                head = cell._head
                node = head.val if head.ts <= h else cell.read_snapshot(h)
            else:
                node = cell.read_snapshot(h)

    def multisearch(self, keys) -> dict:
        found = self._user_keys(keys)
        with self.epoch.query(self.camera) as h:
            for k in found:
                found[k] = self._descend(k, h)[2].key == k
        return found

    def height(self) -> int:
        """Longest path through the key-bearing part of the tree at the cut:
        0 for an empty set, 1 for a single key."""
        with self.epoch.query(self.camera) as h:
            deepest = 0
            node, d, stack = self._root, 0, []
            armed = _gate.armed
            inline = self._inline and not armed   # _descend's inline step
            while True:
                if armed:
                    reclaim.check_live(node)
                if isinstance(node, BstLeaf):
                    if d > deepest and not isinstance(node.key, Bound):
                        deepest = d
                else:
                    stack.append((node.right, d + 1))
                    stack.append((node.left, d + 1))
                if not stack:
                    return deepest - 1 if deepest else 0
                cell, d = stack.pop()
                if inline:
                    head = cell._head
                    node = head.val if head.ts <= h else cell.read_snapshot(h)
                else:
                    node = cell.read_snapshot(h)
