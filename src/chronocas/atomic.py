"""Atomic cells.

CPython has no user-level compare-and-swap, so a cell is a slot guarded by a
lock drawn from one shared table: :data:`_STRIPES`, a fixed tuple of 256
locks handed out round-robin as cells are built (lock striping).  A table
lock is held only for the duration of the single access, never across
another shared access, so the gate in :mod:`chronocas._gate` can suspend a
thread between accesses without deadlock.  A versioned pointer
(:class:`chronocas.vcas.VersionedPointer`) keeps its head the same way in its
own slots, with a lock from the same table; :class:`AtomicCell` serves the
unversioned words: the camera's counter, :class:`PlainCell`, queue nodes
(each its own next link) and BST internal nodes (each its own update word).

Cells share stripes, so a critical section under a table lock obeys two
rules.  It takes no other table lock: the second lock may be its own stripe,
and a ``threading.Lock`` deadlocks against itself.  It takes no gated step
either: a worker suspended while holding a stripe would wedge every cell on
that stripe, not only its own.  A lock outside the table, such as
``_install_lock``, may be taken inside one.

Equality for ``cas`` is ``==``, which degrades to identity for the node and
record objects stored by the data structures (none of them define
``__eq__``) and to value equality for integers and mark pairs.
"""

from __future__ import annotations

import itertools
import threading

from . import _gate

# The lock table.  A cell takes ``_next_stripe()`` once, at construction:
# the table's locks in turn.  The size is fixed, not an option.
_STRIPES = tuple(threading.Lock() for _ in range(256))
_next_stripe = itertools.cycle(_STRIPES).__next__

# One lock for all write-once node fields (version timestamps and version
# links).  These fields transition at most once, so a single shared lock sees
# only momentary contention; per-node locks would double allocation cost.
_install_lock = threading.Lock()


class AtomicCell:
    """A mutable shared cell supporting atomic read and compare-and-swap."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value) -> None:
        self._value = value
        self._lock = _next_stripe()

    def read(self):
        # MsQueue's query walks inline the unarmed case.
        if _gate.armed:
            _gate.step()
        return self._value

    def cas(self, expected, new) -> bool:
        """Atomically set ``new`` iff the current value equals ``expected``."""
        if _gate.armed:
            _gate.step()
        with self._lock:
            if self._value == expected:
                self._value = new
                return True
            return False


class PlainCell(AtomicCell):
    """Unversioned cell presenting the versioned-cell surface, for the
    plain-CAS baseline build of :class:`~chronocas.bst.LeafBst`:
    ``read_snapshot`` just returns the current value.
    """

    __slots__ = ()

    def read_snapshot(self, handle):
        return self.read()


def field_cas(obj, name: str, expected, new) -> bool:
    """Compare-and-swap on a write-once object attribute."""
    if _gate.armed:
        _gate.step()
    with _install_lock:
        if getattr(obj, name) == expected:
            setattr(obj, name, new)
            return True
        return False
