"""Atomic cells.

CPython has no user-level compare-and-swap, so a cell is a slot guarded by a
lock; the lock is held only for the duration of the single access, never
across another shared access, so the gate in :mod:`chronocas._gate` can
suspend a thread between accesses without deadlock.

Equality for ``cas`` is ``==``, which degrades to identity for the node
objects stored by the data structures (none of them define ``__eq__``) and to
value equality for integers and mark pairs.
"""

from __future__ import annotations

import threading

from . import _gate

# One lock for all write-once node fields (version timestamps and version
# links).  These fields transition at most once, so a single shared lock sees
# only momentary contention; per-node locks would double allocation cost.
_install_lock = threading.Lock()


class AtomicCell:
    """A mutable shared cell supporting atomic read and compare-and-swap."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value) -> None:
        self._value = value
        self._lock = threading.Lock()

    def read(self):
        _gate.step()
        return self._value

    def cas(self, expected, new, on_success=None) -> bool:
        """Atomically set ``new`` iff the current value equals ``expected``.

        ``on_success(expected, new)`` runs inside the critical section, before
        the new value becomes visible to lock-free readers, and must not
        perform shared accesses; it exists for bookkeeping that must be atomic
        with the swap.
        """
        _gate.step()
        with self._lock:
            if self._value == expected:
                if on_success is not None:
                    on_success(expected, new)
                self._value = new
                return True
            return False


class PlainCell:
    """Unversioned cell presenting the versioned-cell surface.

    Used where the safe-field optimization applies (the cell's history is
    never needed by queries) and for the plain-CAS baseline structures:
    ``read_snapshot`` just returns the current value.
    """

    __slots__ = ("_value", "_lock", "succ_cas_count", "max_success")

    def __init__(self, value, max_success=None) -> None:
        self._value = value
        self._lock = threading.Lock()
        self.succ_cas_count = 0
        self.max_success = max_success

    def read(self):
        _gate.step()
        return self._value

    def cas(self, expected, new) -> bool:
        _gate.step()
        with self._lock:
            if self._value == expected:
                self.succ_cas_count += 1
                self._value = new
                return True
            return False

    def read_snapshot(self, handle):
        return self.read()


def field_cas(obj, name: str, expected, new) -> bool:
    """Compare-and-swap on a write-once object attribute."""
    _gate.step()
    with _install_lock:
        if getattr(obj, name) == expected:
            setattr(obj, name, new)
            return True
        return False


def field_read(obj, name: str):
    """Gated read of a racy object attribute."""
    _gate.step()
    return getattr(obj, name)
