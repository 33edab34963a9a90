"""The gate's armed flag follows the hooks installed through its entry
points, and no gated step runs under a lock of the cell lock table."""

import random

import pytest

from chronocas import (Camera, HarrisList, LeafBst, MsQueue, VersionedCas,
                       _gate)
from chronocas.atomic import _STRIPES
from chronocas.lincheck import Recorder, explore


class _Boom(RuntimeError):
    pass


class _NullController:
    def __init__(self) -> None:
        self.accesses = 0

    def on_access(self, thread) -> None:
        self.accesses += 1


def test_counter_arms_only_while_open():
    assert _gate.armed is False
    with _gate.StepCounter() as steps:
        assert _gate.armed is True
        VersionedCas(0, Camera()).read()
    assert steps.count > 0
    assert _gate.armed is False


def test_counter_disarms_on_exception():
    with pytest.raises(_Boom):
        with _gate.StepCounter():
            raise _Boom
    assert _gate.armed is False


def test_explore_disarms_after_a_worker_raises():
    def make():
        cell = VersionedCas(0, Camera())
        rec = Recorder()

        def worker():
            cell.read()
            raise _Boom("worker failed")
        return [worker], rec.history

    with pytest.raises(_Boom):
        explore(make)
    assert _gate.armed is False


def test_hooks_keep_each_other_armed():
    ctl = _NullController()
    _gate.install_controller(ctl)
    try:
        with _gate.StepCounter() as steps:
            _gate.step()
        assert _gate.armed is True          # the controller is still live
        _gate.step()
        assert (steps.count, ctl.accesses) == (1, 2)
        with _gate.StepCounter() as steps:
            _gate.remove_controller()
            assert _gate.armed is True      # the counter is still live
            _gate.step()
        assert steps.count == 1
    finally:
        _gate.remove_controller()
    assert _gate.armed is False


class _NoStripeHeld(_NullController):
    """Also counts steps taken under a table lock; single-threaded, so any
    locked table lock at a step is held by the stepping thread."""

    def __init__(self) -> None:
        super().__init__()
        self.held = 0

    def on_access(self, thread) -> None:
        super().on_access(thread)
        self.held += any(lock.locked() for lock in _STRIPES)


def _ordered_ops(s, rng):
    for _ in range(300):
        k = rng.randrange(60)
        (s.insert if rng.random() < 0.6 else s.delete)(k)
        (s.find if isinstance(s, LeafBst) else s.contains)(k)
    s.range_query(10, 40)
    s.range_sum(10, 40)
    s.succ(20, 3)
    s.find_if(0, 60, lambda k: k % 7 == 0)
    s.ith(5)
    s.multisearch([3, 30, 59])
    if isinstance(s, LeafBst):
        s.height()


def _queue_ops(q, rng):
    for i in range(300):
        if rng.random() < 0.55:
            q.enqueue(i)
        else:
            q.dequeue()
    q.scan()
    q.ith(3)
    q.peek_endpoints()


STRUCTURES = {
    "list": (HarrisList, _ordered_ops),
    "bst-indirect": (lambda: LeafBst(mode="indirect"), _ordered_ops),
    "bst-direct": (lambda: LeafBst(mode="direct"), _ordered_ops),
    "bst-plain": (lambda: LeafBst(mode="plain"), _ordered_ops),
    "queue": (MsQueue, _queue_ops),
}


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_no_gated_step_under_a_table_lock(name):
    """A worker suspended at a step while holding a stripe would wedge every
    cell on that stripe, so no critical section may take a gated step."""
    make, ops = STRUCTURES[name]
    structure = make()
    ctl = _NoStripeHeld()
    _gate.install_controller(ctl)
    try:
        ops(structure, random.Random(5))
    finally:
        _gate.remove_controller()
    assert ctl.accesses > 1000
    assert ctl.held == 0
