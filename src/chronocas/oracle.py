"""Sequential specifications used as ground truth.

Three families: the versioned-cell spec (a committed-value log), a FIFO
queue, and ordered sets (one flat, one that also splices the leaf-oriented
tree so the shape query height is defined).  What each operation returns
is written once, in its spec (set queries in ``set_answer``).  ``replay``
folds ``step`` over a single-threaded history; the concurrent suites diff
structure outputs against these, so nothing here may import the concurrent
modules.

Each spec is a :class:`SeqSpec`, the object
:func:`chronocas.lincheck.check_linearizable` judges histories against:
``UPDATES`` names the effectful kinds, ``step(op)`` applies an operation
and returns its result, ``check(op, result)`` applies it and says whether
``result`` is allowed, and ``copy()`` and ``key()`` give an independent
twin and a hashable state for the checker's memo.

Snapshot handles are bound in one place, :meth:`SeqSpec._bind`, to the
current cut (a cell's log index, a queue's contents).  Replay issues
handles 0, 1, 2, ... as a single-threaded camera does; checking binds the
recorded handle, and a handle already bound passes again only while the cut
is unchanged.  Reading an unbound handle fails a check and raises
:class:`OracleError` in replay.
"""

from __future__ import annotations

import bisect


class OracleError(ValueError):
    """History violates a precondition of the sequential specification."""


class UnboundHandleError(OracleError):
    """A snapshot read names a handle that no snapshot returned."""


# ---------------------------------------------------------------------------
# The spec protocol
# ---------------------------------------------------------------------------

class SeqSpec:
    """Base of the sequential specs.  Subclasses supply ``_apply(op)`` for
    every kind but ``snapshot``, ``copy``, ``key`` and, to take snapshots,
    ``_cut``."""

    UPDATES: frozenset = frozenset()

    def __init__(self) -> None:
        self._cuts: dict = {}     # handle -> cut

    def step(self, op):
        if op[0] != "snapshot":
            return self._apply(op)
        handle = len(self._cuts)
        self._bind(handle)
        return handle

    def check(self, op, result) -> bool:
        if op[0] == "snapshot":
            return self._bind(result)
        try:
            return self._apply(op) == result
        except UnboundHandleError:
            return False

    def _bind(self, handle) -> bool:
        cut = self._cut()
        return self._cuts.setdefault(handle, cut) == cut

    def _cut_at(self, handle):
        try:
            return self._cuts[handle]
        except KeyError:
            raise UnboundHandleError(f"handle {handle!r} was never issued") from None

    def _cut(self):
        raise OracleError(f"{type(self).__name__} takes no snapshots")

    def _copied(self, twin):
        twin._cuts = dict(self._cuts)
        return twin


# ---------------------------------------------------------------------------
# Versioned cell + camera
# ---------------------------------------------------------------------------

class SeqVcas(SeqSpec):
    """Append-only log of committed values; a snapshot's cut is the index of
    the value current when it was taken."""

    UPDATES = frozenset({"vcas"})

    def __init__(self, committed_log) -> None:
        super().__init__()
        self.committed_log = list(committed_log)

    @classmethod
    def create(cls, initial) -> "SeqVcas":
        return cls([initial])

    def copy(self) -> "SeqVcas":
        return self._copied(SeqVcas(self.committed_log))

    def key(self):
        return tuple(self.committed_log), frozenset(self._cuts.items())

    def _cut(self) -> int:
        return len(self.committed_log) - 1

    def _apply(self, op):
        kind = op[0]
        if kind == "vread":
            return self.committed_log[-1]
        if kind == "readsnapshot":
            return self.committed_log[self._cut_at(op[1])]
        if kind != "vcas":
            raise OracleError(f"unknown operation {kind!r}")
        _, old, new = op
        if self.committed_log[-1] != old:
            return False
        if new != old:   # an equal-value vcas succeeds without a new version
            self.committed_log.append(new)
        return True


# ---------------------------------------------------------------------------
# FIFO queue
# ---------------------------------------------------------------------------

class SeqQueue(SeqSpec):
    """FIFO with the multi-point queries; a snapshot's cut is the contents."""

    UPDATES = frozenset({"enqueue", "dequeue"})

    def __init__(self, initial=()) -> None:
        super().__init__()
        self.items: list = list(initial)

    def copy(self) -> "SeqQueue":
        return self._copied(SeqQueue(self.items))

    def key(self):
        return tuple(self.items), frozenset(self._cuts.items())

    def _cut(self) -> tuple:
        return tuple(self.items)

    def _apply(self, op):
        kind = op[0]
        if kind == "enqueue":
            self.items.append(op[1])
            return None
        if kind == "dequeue":
            return self.items.pop(0) if self.items else None
        if kind == "scan":
            at = op[1] if len(op) > 1 else None
            return list(self.items if at is None else self._cut_at(at))
        if kind == "peek":
            return (self.items[0], self.items[-1]) if self.items else (None, None)
        if kind == "ith":
            i = op[1]
            if i < 1:
                raise OracleError("ith index is 1-based")
            return self.items[i - 1] if i <= len(self.items) else None
        raise OracleError(f"unknown operation {kind!r}")


# ---------------------------------------------------------------------------
# Ordered sets
# ---------------------------------------------------------------------------

def set_answer(keys, op):
    """Answer of an ordered-set query on ``keys``, sorted ascending."""
    kind = op[0]
    if kind in ("contains", "find"):
        i = bisect.bisect_left(keys, op[1])
        return i < len(keys) and keys[i] == op[1]
    if kind in ("range", "range_sum"):
        _, s, e = op
        if s > e:
            raise OracleError("empty-interval range")
        found = keys[bisect.bisect_left(keys, s):bisect.bisect_right(keys, e)]
        return list(found) if kind == "range" else sum(found)
    if kind == "multisearch":
        return {k: set_answer(keys, ("contains", k)) for k in op[1]}
    if kind == "ith":
        i = op[1]
        if i < 1:
            raise OracleError("ith index is 1-based")
        return keys[i - 1] if i <= len(keys) else None
    if kind == "succ":
        _, k, c = op
        if c < 1:
            raise OracleError("succ needs c >= 1")
        lo = bisect.bisect_right(keys, k)
        return list(keys[lo:lo + c])
    if kind == "findif":
        _, s, e, pred = op
        if s > e:
            raise OracleError("empty-interval range")
        found = keys[bisect.bisect_left(keys, s):bisect.bisect_left(keys, e)]
        return next((k for k in found if pred(k)), None)
    raise OracleError(f"unknown operation {kind!r}")


class SeqOrderedSet(SeqSpec):
    """Sorted-list set with the multi-point queries."""

    UPDATES = frozenset({"insert", "delete"})

    def __init__(self, initial=()) -> None:
        super().__init__()
        self.keys: list = sorted(initial)

    def copy(self) -> "SeqOrderedSet":
        """A flat set holding these keys (a tree's shape is not copied)."""
        return SeqOrderedSet(self.keys)

    def key(self):
        return tuple(self.keys)

    def _apply(self, op):
        kind = op[0]
        if kind not in self.UPDATES:
            return set_answer(self.keys, op)
        k = op[1]
        i = bisect.bisect_left(self.keys, k)
        present = i < len(self.keys) and self.keys[i] == k
        if kind == "insert" and not present:
            self.keys.insert(i, k)
            return True
        if kind == "delete" and present:
            del self.keys[i]
            return True
        return False


class _SeqLeaf:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


class _SeqInternal:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


class SeqLeafBst(SeqOrderedSet):
    """Ordered set that also splices a leaf-oriented tree exactly as the
    concurrent tree does, so the shape query ``height`` is comparable."""

    def __init__(self, sentinel_lo, sentinel_hi) -> None:
        super().__init__()
        self._lo = sentinel_lo
        self._hi = sentinel_hi
        self.root = _SeqInternal(sentinel_hi, _SeqLeaf(sentinel_lo),
                                 _SeqLeaf(sentinel_hi))

    def _search(self, key):
        gp, p = None, self.root
        l = p.left if key < p.key else p.right
        while isinstance(l, _SeqInternal):
            gp, p = p, l
            l = p.left if key < p.key else p.right
        return gp, p, l

    def _is_real(self, leaf) -> bool:
        return leaf.key != self._lo and leaf.key != self._hi

    def _apply(self, op):
        kind = op[0]
        if kind == "height":
            return self._height()
        changed = super()._apply(op)
        if kind == "insert" and changed:
            k = op[1]
            _, p, l = self._search(k)
            new_leaf, sib = _SeqLeaf(k), _SeqLeaf(l.key)
            if k < l.key:
                ni = _SeqInternal(l.key, new_leaf, sib)
            else:
                ni = _SeqInternal(k, sib, new_leaf)
            if l.key < p.key:
                p.left = ni
            else:
                p.right = ni
        elif kind == "delete" and changed:
            gp, p, l = self._search(op[1])
            sibling = p.right if l.key < p.key else p.left
            if p.key < gp.key:
                gp.left = sibling
            else:
                gp.right = sibling
        return changed

    def _height(self) -> int:
        """Longest root-to-real-leaf path, less one; 0 for an empty set."""
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if isinstance(node, _SeqLeaf):
                if self._is_real(node) and d > deepest:
                    deepest = d
            else:
                stack.append((node.right, d + 1))
                stack.append((node.left, d + 1))
        return deepest - 1 if deepest else 0


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(state, history) -> list:
    """Fold ``step`` over a single-threaded history, returning all results."""
    return [state.step(op) for op in history]
