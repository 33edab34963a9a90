"""The gate's armed flag follows the hooks installed through its entry points."""

import pytest

from chronocas import Camera, VersionedCas, _gate
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

