"""Global timestamp source shared by the versioned cells of one structure.

A snapshot handle is just the counter value observed by ``take_snapshot``;
the snapshot it names is the instant the counter moved from that value to
the next one (by any caller).
"""

from __future__ import annotations

from .atomic import AtomicCell

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

    __slots__ = ("_timestamp",)

    def __init__(self) -> None:
        self._timestamp = AtomicCell(0)

    def take_snapshot(self) -> int:
        """Return a snapshot handle.  Two shared accesses, never retries.

        The single CAS may fail only because a concurrent caller performed
        the same increment, which serves this call equally well.
        """
        ts = self._timestamp.read()
        assert ts < _COUNTER_CEILING
        self._timestamp.cas(ts, ts + 1)
        return ts

    def peek_timestamp(self) -> int:
        """Current counter value, unmodified."""
        return self._timestamp.read()
