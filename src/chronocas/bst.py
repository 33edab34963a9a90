"""Lock-free leaf-oriented BST with atomic multi-point queries.

Keys live only in leaves; internal keys route searches (left subtree keys <
key <= right subtree keys).  Updates use the flag/mark/help protocol: an
operation records what it intends in an info object, flags the nodes whose
child pointers it will change, performs the single child-pointer swing that
linearizes it, then unflags.  Any thread meeting a flag helps that operation
first, so updates are lock-free.

Child pointers are versioned cells; the update (flag) word is a plain
:class:`AtomicCell` because queries only ever read key/left/right, so its
history is never needed.  Three builds share the code:

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

from . import reclaim
from .atomic import AtomicCell, PlainCell
from .camera import Camera
from .reclaim import EpochManager
from .vcas import VersionedCas
from .vcas_direct import DirectVersionedCas, Versionable

CLEAN, IFLAG, DFLAG, MARK = 0, 1, 2, 3


class _TopKey:
    """Routing key above every user key; ranked among themselves."""

    __slots__ = ("_rank",)

    def __init__(self, rank: int) -> None:
        self._rank = rank

    def __lt__(self, other):
        if isinstance(other, _TopKey):
            return self._rank < other._rank
        return False
    def __gt__(self, other):
        if isinstance(other, _TopKey):
            return self._rank > other._rank
        return True
    def __le__(self, other):
        return self is other or self < other
    def __ge__(self, other):
        return self is other or self > other
    def __repr__(self):
        return f"<top{self._rank}>"


INF1 = _TopKey(1)
INF2 = _TopKey(2)


class BstLeaf(Versionable):
    __slots__ = ("key",)

    def __init__(self, key) -> None:
        super().__init__()
        self.key = key

    def _poison(self) -> None:
        Versionable._poison(self)
        self.key = reclaim._TRAP


class BstInternal(Versionable):
    __slots__ = ("key", "left", "right", "update")

    def __init__(self, key, left_cell, right_cell, update_cell) -> None:
        super().__init__()
        self.key = key
        self.left = left_cell
        self.right = right_cell
        self.update = update_cell

    def _poison(self) -> None:
        Versionable._poison(self)
        self.key = reclaim._TRAP


class IInfo:
    __slots__ = ("p", "l", "new_internal", "_poisoned")

    def __init__(self, p, l, new_internal) -> None:
        self.p = p
        self.l = l
        self.new_internal = new_internal
        self._poisoned = False

    def _free(self) -> None:
        # Freed only after its flag was cleared: a CLEAN word that still
        # names it is never helped, so its fields are never read again.
        self.p = self.l = self.new_internal = None

    def _poison(self) -> None:
        self._poisoned = True


class DInfo:
    __slots__ = ("gp", "p", "l", "pupdate", "_poisoned")

    def __init__(self, gp, p, l, pupdate) -> None:
        self.gp = gp
        self.p = p
        self.l = l
        self.pupdate = pupdate
        self._poisoned = False

    def _free(self) -> None:
        # As IInfo; a MARK naming it stays only on nodes already unlinked.
        self.gp = self.p = self.l = self.pupdate = None

    def _poison(self) -> None:
        self._poisoned = True


class LeafBst:
    def __init__(self, camera: Camera | None = None,
                 epoch: EpochManager | None = None,
                 mode: str = "indirect") -> None:
        if mode not in ("indirect", "direct", "plain"):
            raise ValueError(f"unknown mode {mode!r}")
        self.camera = camera or Camera()
        self.epoch = epoch or EpochManager()
        self.mode = mode
        # plain builds answer queries from current values: no snapshot
        self._query_camera = None if mode == "plain" else self.camera
        self._root = self._internal(INF2, BstLeaf(INF1), BstLeaf(INF2))

    # -- construction helpers ----------------------------------------------------

    def _cell(self, value):
        if self.mode == "indirect":
            return VersionedCas(value, self.camera, self.epoch)
        if self.mode == "direct":
            return DirectVersionedCas(value, self.camera)
        return PlainCell(value)

    def _internal(self, key, left_node, right_node) -> BstInternal:
        return BstInternal(key, self._cell(left_node), self._cell(right_node),
                           AtomicCell((CLEAN, None)))

    @staticmethod
    def _check_key(key) -> None:
        if isinstance(key, _TopKey):
            raise ValueError("sentinel keys are reserved")

    @staticmethod
    def _is_real(leaf: BstLeaf) -> bool:
        return not isinstance(leaf.key, _TopKey)

    # -- search ------------------------------------------------------------------

    def _search(self, key):
        gp = gpupdate = None
        p = self._root
        pupdate = p.update.read()
        l = (p.left if key < p.key else p.right).read()
        while isinstance(l, BstInternal):
            gp, gpupdate = p, pupdate
            p = l
            pupdate = p.update.read()
            l = (p.left if key < p.key else p.right).read()
        return gp, p, l, pupdate, gpupdate

    def find(self, key) -> bool:
        self._check_key(key)
        with self.epoch.maybe_pinned():
            return self._search(key)[2].key == key

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
        cell = parent.left if old.key < parent.key else parent.right
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
                if key < l.key:
                    ni = self._internal(l.key, new_leaf, sib)
                else:
                    ni = self._internal(key, sib, new_leaf)
                op = IInfo(p, l, ni)
                if p.update.cas(pupdate, (IFLAG, op)):
                    self._help_insert(op)
                    return True
                self._help(p.update.read())

    def _help_insert(self, op: IInfo) -> None:
        if self._cas_child(op.p, op.l, op.new_internal):
            self.epoch.retire(op.l)
        if op.p.update.cas((IFLAG, op), (CLEAN, op)):
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
                if gp.update.cas(gpupdate, (DFLAG, op)):
                    if self._help_delete(op):
                        return True
                else:
                    self._help(gp.update.read())

    def _help_delete(self, op: DInfo) -> bool:
        if (op.p.update.cas(op.pupdate, (MARK, op))
                or op.p.update.read() == (MARK, op)):
            self._help_marked(op)
            return True
        if op.gp.update.cas((DFLAG, op), (CLEAN, op)):
            self.epoch.retire(op)
        return False

    def _help_marked(self, op: DInfo) -> None:
        p, l = op.p, op.l
        other = p.right if l.key < p.key else p.left
        sibling = other.read()
        publish = self._frozen_copy(op, sibling) if self.mode == "direct" else sibling
        if self._cas_child(op.gp, p, publish):
            self.epoch.retire(p)
            self.epoch.retire(l)
            if self.mode == "indirect":
                p.left.retire_head()
                p.right.retire_head()
            if self.mode == "direct":
                self.epoch.retire(sibling)
        if op.gp.update.cas((DFLAG, op), (CLEAN, op)):
            self.epoch.retire(op)

    def _frozen_copy(self, op: DInfo, sibling):
        """Copy the surviving sibling so the grandparent swing publishes a
        fresh node.  An internal sibling is marked first: its children are
        then frozen, and helpers that meet the mark redirect to this very
        deletion."""
        if isinstance(sibling, BstLeaf):
            return BstLeaf(sibling.key)
        while True:
            su = sibling.update.read()
            if su[0] == MARK:
                if su[1] is not op:
                    raise RuntimeError("sibling marked by a foreign operation")
                break
            if su[0] == CLEAN:
                if sibling.update.cas(su, (MARK, op)):
                    break
                continue
            self._help(su)
        return self._internal(sibling.key, sibling.left.read(),
                              sibling.right.read())

    # -- snapshot queries ----------------------------------------------------------
    #
    # Traversals keep an explicit stack of child cells, pushed right before
    # left, so they visit leaves in key order and resolve each cell at the
    # handle only when they reach it; the tree is unbalanced, so recursion
    # would overflow on deep trees.

    def range_query(self, start, end) -> list:
        if start > end:
            raise ValueError("range start exceeds end")
        with self.epoch.query(self._query_camera) as h:
            return self._collect(h, start, end)

    def range_sum(self, start, end):
        if start > end:
            raise ValueError("range start exceeds end")
        with self.epoch.query(self._query_camera) as h:
            return sum(self._collect(h, start, end))

    def _collect(self, h, s, e) -> list:
        out = []
        node, stack = self._root, []
        while True:
            if reclaim.POISON_ON:
                reclaim.check_live(node)
            if isinstance(node, BstLeaf):
                if self._is_real(node) and s <= node.key <= e:
                    out.append(node.key)
            else:
                if e >= node.key:
                    stack.append(node.right)
                if s < node.key:
                    stack.append(node.left)
            if not stack:
                return out
            node = stack.pop().read_snapshot(h)

    def succ(self, key, count: int) -> list:
        if count < 1:
            raise ValueError("succ needs count >= 1")
        with self.epoch.query(self._query_camera) as h:
            out: list = []
            node, stack = self._root, []
            while True:
                if isinstance(node, BstLeaf):
                    if self._is_real(node) and node.key > key:
                        out.append(node.key)
                        if len(out) >= count:
                            return out
                else:
                    stack.append(node.right)
                    if key < node.key:
                        stack.append(node.left)
                if not stack:
                    return out
                node = stack.pop().read_snapshot(h)

    def find_if(self, start, end, predicate):
        """First key in [start, end) satisfying the predicate, else None."""
        if start > end:
            raise ValueError("range start exceeds end")
        with self.epoch.query(self._query_camera) as h:
            node, stack = self._root, []
            while True:
                if isinstance(node, BstLeaf):
                    if (self._is_real(node) and start <= node.key < end
                            and predicate(node.key)):
                        return node.key
                else:
                    if end > node.key:
                        stack.append(node.right)
                    if start < node.key:
                        stack.append(node.left)
                if not stack:
                    return None
                node = stack.pop().read_snapshot(h)

    def multisearch(self, keys) -> dict:
        with self.epoch.query(self._query_camera) as h:
            return {k: self._find_at(k, h) for k in keys}

    def _find_at(self, key, h) -> bool:
        node = self._root
        while isinstance(node, BstInternal):
            node = (node.left if key < node.key else node.right).read_snapshot(h)
        return node.key == key

    def height(self) -> int:
        """Longest path through the key-bearing part of the tree at the cut:
        0 for an empty set, 1 for a single key."""
        with self.epoch.query(self._query_camera) as h:
            deepest = 0
            node, d, stack = self._root, 0, []
            while True:
                if isinstance(node, BstLeaf):
                    if self._is_real(node) and d > deepest:
                        deepest = d
                else:
                    stack.append((node.right, d + 1))
                    stack.append((node.left, d + 1))
                if not stack:
                    return deepest - 1 if deepest else 0
                cell, d = stack.pop()
                node = cell.read_snapshot(h)
