"""Sequential specifications used as ground truth.

Three families: the versioned-cell spec (a committed-value log plus a
logical clock), a FIFO queue, and ordered sets (one flat, one that also
splices the leaf-oriented tree so the shape query height is defined).
Every cell operation and every queue and set query is answered by one pure
function of the abstract state, ``vcas_answer``, ``queue_answer`` or
``set_answer``; the sequential specs here and the checker specs in
:mod:`chronocas.lincheck` both call them, so each operation's meaning is
written once.  ``replay`` folds ``step`` over a single-threaded history;
the concurrent suites diff structure outputs against these, so nothing here
may import the concurrent modules.

Snapshot handles follow the concrete counter behavior: every snapshot
returns the clock and bumps it, so replayed handles line up one-for-one with
the handles a real camera hands out in a single-threaded run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class OracleError(ValueError):
    """History violates a precondition of the sequential specification."""


# ---------------------------------------------------------------------------
# Versioned cell + camera
# ---------------------------------------------------------------------------

@dataclass
class SeqVcas:
    """Append-only log of committed values with a logical clock."""

    committed_log: list = field(default_factory=list)   # (value, logical_time)
    clock: int = 0

    @classmethod
    def create(cls, initial, clock: int = 0) -> "SeqVcas":
        return cls(committed_log=[(initial, clock)], clock=clock)

    def step(self, op):
        kind = op[0]
        if kind in ("vread", "vcas"):
            answer, commit = vcas_answer(self.committed_log[-1][0], op)
            if commit:
                self.committed_log.append((op[2], self.clock))
            return answer
        if kind == "snapshot":
            handle = self.clock
            self.clock += 1
            return handle
        if kind == "readsnapshot":
            _, handle = op
            if not 0 <= handle < self.clock:
                raise OracleError(f"handle {handle} was never issued")
            for value, t in reversed(self.committed_log):
                if t <= handle:
                    return value
            raise OracleError(f"handle {handle} predates the cell")
        raise OracleError(f"unknown operation {kind!r}")


# ---------------------------------------------------------------------------
# Answers (shared with the lincheck checker specs)
# ---------------------------------------------------------------------------

def vcas_answer(current, op):
    """Answer of a ``vread`` or ``vcas`` on a cell holding ``current``, and
    whether it commits the ``vcas``'s new value as a version.  A ``vcas``
    whose new value equals its expected one succeeds without committing."""
    kind = op[0]
    if kind == "vread":
        return current, False
    if kind == "vcas":
        _, old, new = op
        if current != old:
            return False, False
        return True, new != old
    raise OracleError(f"unknown operation {kind!r}")


def queue_answer(items, op):
    """Answer of a queue query on ``items``, listed head to tail."""
    kind = op[0]
    if kind == "scan":
        return list(items)
    if kind == "peek":
        return (items[0], items[-1]) if items else (None, None)
    if kind == "ith":
        i = op[1]
        if i < 1:
            raise OracleError("ith index is 1-based")
        return items[i - 1] if i <= len(items) else None
    raise OracleError(f"unknown operation {kind!r}")


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


# ---------------------------------------------------------------------------
# FIFO queue
# ---------------------------------------------------------------------------

class SeqQueue:
    """FIFO with the multi-point queries; remembers states per handle."""

    def __init__(self) -> None:
        self.items: list = []
        self.clock = 0
        self._cuts: dict[int, tuple] = {}

    def step(self, op):
        kind = op[0]
        if kind == "enqueue":
            self.items.append(op[1])
            return None
        if kind == "dequeue":
            return self.items.pop(0) if self.items else None
        if kind == "snapshot":
            handle = self.clock
            self.clock += 1
            self._cuts[handle] = tuple(self.items)
            return handle
        at = op[1] if kind == "scan" and len(op) > 1 else None
        return queue_answer(self.items if at is None else self._cuts[at], op)


# ---------------------------------------------------------------------------
# Ordered sets
# ---------------------------------------------------------------------------

class SeqOrderedSet:
    """Sorted-list set with the multi-point queries."""

    def __init__(self) -> None:
        self.keys: list = []

    def step(self, op):
        kind = op[0]
        if kind not in ("insert", "delete"):
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

    def step(self, op):
        kind = op[0]
        if kind == "height":
            return self._height()
        changed = super().step(op)
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

def step(state, op):
    """One transition of whichever sequential spec ``state`` is."""
    return state.step(op)


def replay(state, history) -> list:
    """Fold ``step`` over a single-threaded history, returning all results."""
    return [state.step(op) for op in history]
