"""Global timestamp source shared by the versioned cells of one structure.

A snapshot handle is just the counter value observed by ``take_snapshot``;
the snapshot it names is the instant the counter moved from that value to
the next one (by any caller).  The camera is its own counter word, read and
swung by ``AtomicCell``'s methods, but no ``AtomicCell``: it has no ``cas``.
"""

from __future__ import annotations

from .atomic import AtomicCell, _next_stripe

# Reserved "to-be-decided" timestamp carried by a freshly appended version
# until helping installs a real one.  Valid timestamps are strictly smaller.
TBD = (1 << 64) - 1

# Reserved version link meaning "no older version here": a fresh direct node
# before its publication, and any version record reclamation has freed.  A
# program-lifetime dummy, never dereferenced.
INVALID_NEXTV = object()

# Well before TBD; a counter anywhere near this indicates a runaway loop.
_COUNTER_CEILING = 1 << 63


class Camera:
    """Monotone counter; handles identify consistent cuts across all cells."""

    __slots__ = ("_value", "_lock")
    peek_timestamp = AtomicCell.read   # the current counter, unmodified

    def __init__(self) -> None:
        self._value = 0
        self._lock = _next_stripe()

    def take_snapshot(self) -> int:
        """Return a snapshot handle.  Two shared accesses, never retries.

        The single CAS may fail only because a concurrent caller performed
        the same increment, which serves this call equally well.
        """
        ts = self.peek_timestamp()
        assert ts < _COUNTER_CEILING
        AtomicCell.cas(self, ts, ts + 1)
        return ts
