"""Shared-memory access gate.

Every algorithm-relevant shared access (reads and CAS attempts on mutable
cells, and the helping checks on write-once fields) is marked by
:func:`step` before it executes.  Two hooks can observe those steps:

* a cooperative step controller (installed by ``lincheck.explore``), which
  suspends the calling worker thread until the scheduler grants it the next
  step, serializing shared accesses in a chosen order;
* a step counter, used by structural tests that assert constant step bounds.

The module flag :data:`armed` picks the fast or the checked path;
production code pays one global attribute test per access::

    if _gate.armed:
        _gate.step()

Armed, an operation also calls every cell method the fast paths inline,
walks on every snapshot read (hop histogram, trap check) and trap-checks
each node its walks visit; so instrumentation and poisoning arm it too, and
the fast paths read no other switch.

The contract: :data:`armed` is True exactly while a hook or a checking mode
is live.  It is written only by :func:`install_controller`/
:func:`remove_controller`, :class:`StepCounter` (on enter and exit) and
:func:`_set_check`, which ``instrument.enable`` and
``reclaim.enable_poisoning`` call (the latter also at import under
``CHRONOCAS_DEBUG_POISON=1``).  Turning one off leaves the flag set while
another is still live.  Assigning ``_controller`` or ``_counter`` directly
leaves the flag stale and the hook blind.  Hooks and modes change only
between operations, so an operation may read :data:`armed` once and keep it.
The fast paths that do: ``VersionedPointer._swap``, the snapshot walk and
the 0-hop return of ``read_snapshot``; ``LeafBst``'s ordered walk and
``height``, which take a stamped child head inline, and its descent
(``find``, ``multisearch``, the update search), which takes that step
below the two sentinel levels it passes without a comparison; and
``MsQueue``'s query walks (``peek_endpoints``, ``ith``, ``scan``), which
load each next link inline.

Immutable fields (a version node's value and older-version link, node keys)
are read without gating: once published they never change, so their reads
commute with every schedule.
"""

from __future__ import annotations

import threading

armed = False       # True while a hook is installed or a check is on
_controller = None  # set by lincheck.explore for the duration of one run
_counter = None     # set by tests that count shared accesses single-threaded
_checks: set = set()  # the checking modes that are on, by name


def step() -> None:
    """Mark one shared-memory access."""
    c = _controller
    if c is not None:
        c.on_access(threading.current_thread())
    k = _counter
    if k is not None:
        k.count += 1


def _rearm() -> None:
    global armed
    armed = _controller is not None or _counter is not None or bool(_checks)


def _set_check(name: str, on: bool) -> None:
    """Turn the checking mode ``name`` (instrument, poison) on or off."""
    (_checks.add if on else _checks.discard)(name)
    _rearm()


class StepCounter:
    """Counts gated accesses.  Intended for single-threaded structural tests."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self) -> "StepCounter":
        global _counter
        self.count = 0
        _counter = self
        _rearm()
        return self

    def __exit__(self, *exc) -> None:
        global _counter
        _counter = None
        _rearm()


def install_controller(controller) -> None:
    global _controller
    _controller = controller
    _rearm()


def remove_controller() -> None:
    global _controller
    _controller = None
    _rearm()
