import pytest

from chronocas import Camera
from chronocas._gate import StepCounter
from chronocas.camera import _COUNTER_CEILING
from chronocas.lincheck import Recorder, explore


def test_fresh_camera_first_handle():
    cam = Camera()
    assert cam.take_snapshot() == 0
    assert cam.peek_timestamp() == 1


def test_sequential_handles():
    cam = Camera()
    assert cam.take_snapshot() == 0
    assert cam.take_snapshot() == 1


def test_peek_fresh_and_after_snapshot():
    cam = Camera()
    assert cam.peek_timestamp() == 0
    cam.take_snapshot()
    assert cam.peek_timestamp() == 1


def test_peek_after_n_snapshots_matches_replay():
    cam = Camera()
    n = 137
    handles = [cam.take_snapshot() for _ in range(n)]
    assert handles == list(range(n))
    assert cam.peek_timestamp() == n


def test_take_snapshot_is_two_shared_accesses():
    cam = Camera()
    with StepCounter() as counter:
        cam.take_snapshot()
    assert counter.count == 2


def test_counter_ceiling_assertion():
    cam = Camera()
    cam._value = _COUNTER_CEILING
    with pytest.raises(AssertionError):
        cam.take_snapshot()


def _snapshot_race(threads: int):
    def make():
        cam = Camera()
        rec = Recorder()
        bodies = []
        for i in range(threads):
            def body(i=i):
                rec.run(i, "snapshot", (), cam.take_snapshot)
            bodies.append(body)

        def finish():
            hist = rec.history()
            return hist, cam.peek_timestamp()
        return bodies, finish
    return make


@pytest.mark.parametrize("threads", [2, 3])
def test_concurrent_handles_exhaustive(threads):
    """Every interleaving of k concurrent snapshots: final counter is at
    least max(handle)+1 and at most k; disjoint-interval calls never return
    out of order."""
    res = explore(_snapshot_race(threads))
    assert res.complete
    for hist, final in res.histories:
        handles = [r.result for r in hist.records]
        assert final >= max(handles) + 1
        assert final <= threads
        for a in hist.records:
            for b in hist.records:
                if a.response_seq is not None and a.response_seq < b.invoke_seq:
                    assert a.result <= b.result
