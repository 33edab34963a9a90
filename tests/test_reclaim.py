import random
import sys
import threading

import pytest

from chronocas import (INVALID_NEXTV, Camera, DirectVersionedCas, EpochManager,
                       PoisonedReadError, ReclaimError, Versionable, instrument)
from chronocas import reclaim as reclaim_mod
from chronocas.vcas import SnapshotPreconditionError, VersionedCas


class Record:
    def __init__(self, tag):
        self.tag = tag
        self._poisoned = False

    def _poison(self):
        self._poisoned = True


@pytest.fixture
def poisoning():
    reclaim_mod.enable_poisoning(True)
    yield
    reclaim_mod.enable_poisoning(False)


def test_pin_announces_current_epoch():
    mgr = EpochManager()
    guard = mgr.pin()
    assert guard._slot.epoch == 1
    mgr.unpin(guard)
    assert guard._slot.epoch is None


def test_pin_blocks_advance_until_unpin():
    mgr = EpochManager(advance_every=0)
    guard = mgr.pin()
    mgr.unpin(guard)
    assert mgr.try_advance_epoch() is True      # caught up: advances
    g2 = mgr.pin()                              # announced 2... epoch is 2
    assert mgr.try_advance_epoch() is True      # still caught up
    assert mgr.try_advance_epoch() is False     # now announcement 2 != 3
    mgr.unpin(g2)
    assert mgr.try_advance_epoch() is True


def test_nested_pin_diagnosed():
    mgr = EpochManager()
    guard = mgr.pin()
    with pytest.raises(ReclaimError):
        mgr.pin()
    mgr.unpin(guard)


def test_double_retire_diagnosed():
    mgr = EpochManager(advance_every=0)
    rec = Record(1)
    mgr.retire(rec)
    with pytest.raises(ReclaimError):
        mgr.retire(rec)


def test_retire_then_immediate_collect_not_freed():
    mgr = EpochManager(advance_every=0)
    rec = Record(1)
    mgr.retire(rec)
    mgr.collect()
    assert mgr.freed_total == 0


def test_spec_scenario_freed_after_two_advances_and_collect(poisoning):
    mgr = EpochManager(advance_every=0)
    rec = Record(1)
    mgr.retire(rec)               # retired at epoch r = 1
    assert mgr.try_advance_epoch()   # -> r+1
    assert mgr.freed_total == 0
    assert mgr.try_advance_epoch()   # -> r+2
    assert mgr.freed_total == 0
    assert mgr.collect() == 1        # bag[r] certified at r+2
    assert mgr.freed_total == 1
    assert rec._poisoned
    with pytest.raises(PoisonedReadError):
        reclaim_mod.check_live(rec)


def test_racing_advancers_one_increment_per_epoch():
    """Each successful try_advance accounts for exactly one epoch value."""
    mgr = EpochManager(advance_every=0)
    wins = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def racer():
        barrier.wait()
        for _ in range(50):
            ok = mgr.try_advance_epoch()
            with lock:
                wins.append(ok)

    threads = [threading.Thread(target=racer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mgr.epoch == 1 + sum(wins)


def test_snapshot_release_cycle():
    mgr = EpochManager()
    cam = Camera()
    with mgr.pinned():
        h1 = mgr.snapshot(cam)
        mgr.release_snapshot(h1)
        h2 = mgr.snapshot(cam)
        assert h2 >= h1
        mgr.release_snapshot(h2)
    mgr.release_snapshot(h2)   # no retired records held: a no-op


def test_second_snapshot_without_release_diagnosed():
    mgr = EpochManager()
    cam = Camera()
    with mgr.pinned():
        h = mgr.snapshot(cam)
        with pytest.raises(ReclaimError):
            mgr.snapshot(cam)
        mgr.release_snapshot(h)


def test_held_snapshot_blocks_reclamation_growth():
    """A long-held handle keeps its epoch pinned, so retired versions pile
    up; releasing lets the high-water mark plateau."""
    cam = Camera()
    mgr = EpochManager(advance_every=4)
    cell = VersionedCas(0, cam, mgr)
    with mgr.pinned():
        mgr.snapshot(cam)
        for i in range(1, 301):
            cell.cas(i - 1, i)
        held = mgr.live_retired
        assert held >= 290    # pinned epoch: nothing freed
        mgr.release_snapshot(0)
    for _ in range(4):
        mgr.try_advance_epoch()
    mgr.collect()
    assert mgr.live_retired < held


def test_poisoned_vnode_traversal_trips(poisoning):
    cam = Camera()
    mgr = EpochManager(advance_every=0)
    cell = VersionedCas(0, cam, mgr)
    h = cam.take_snapshot()
    for i in range(1, 6):
        cell.cas(i - 1, i)
    for _ in range(3):
        mgr.try_advance_epoch()
    mgr.collect()
    assert mgr.freed_total >= 4
    with pytest.raises(PoisonedReadError):
        cell.read_snapshot(h)   # stale walk into freed history must trap


def test_random_pin_unpin_stress_never_reads_freed(poisoning):
    mgr = EpochManager(advance_every=8)
    cam = Camera()
    cells = [VersionedCas(0, cam, mgr) for _ in range(4)]
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        vals = [0, 0, 0, 0]
        try:
            for _ in range(400):
                with mgr.pinned():
                    h = mgr.snapshot(cam)
                    i = rng.randrange(4)
                    if rng.random() < 0.6:
                        if cells[i].cas(vals[i], vals[i] + 1):
                            vals[i] += 1
                        else:
                            vals[i] = cells[i].read()
                    else:
                        cells[i].read_snapshot(h)
                    mgr.release_snapshot(h)
        except PoisonedReadError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert mgr.freed_total <= mgr.retired_total


# -- freeing releases version history ------------------------------------------


class Node(Versionable):
    __slots__ = ("payload",)

    def __init__(self, payload):
        super().__init__()
        self.payload = payload


def _free_everything(mgr):
    for _ in range(3):
        mgr.try_advance_epoch()
    mgr.collect()
    assert mgr.live_retired == 0


def _indirect_history(n):
    """An indirect cell after ``n`` updates, its displaced records (oldest
    first) and a handle older than all of them."""
    cam = Camera()
    mgr = EpochManager(advance_every=0)
    cell = VersionedCas(0, cam, mgr)
    h = cam.take_snapshot()
    displaced = []
    for i in range(1, n + 1):
        displaced.append(cell._head.read())
        cam.take_snapshot()
        assert cell.cas(i - 1, i)
    return cam, mgr, cell, displaced, h


def _direct_history(n):
    """The same for a direct cell; the client retires each displaced node."""
    cam = Camera()
    mgr = EpochManager(advance_every=0)
    cur = Node(0)
    cell = DirectVersionedCas(cur, cam)
    h = cam.take_snapshot()
    displaced = []
    for i in range(1, n + 1):
        cam.take_snapshot()
        nxt = Node(i)
        assert cell.cas(cur, nxt)
        displaced.append(cur)
        mgr.retire(cur)
        cur = nxt
    return cam, mgr, cell, displaced, h


def test_free_cuts_indirect_links_without_poisoning():
    _, mgr, cell, displaced, _ = _indirect_history(5)
    assert cell.version_count() == 6
    _free_everything(mgr)
    assert all(rec.nextv is None and not rec._poisoned for rec in displaced)
    assert [rec.val for rec in displaced] == [0, 1, 2, 3, 4]
    assert cell.version_count() == 2     # head plus the freed record ending it
    assert cell.read() == 5


def test_free_cuts_direct_links_without_poisoning():
    _, mgr, cell, displaced, _ = _direct_history(5)
    _free_everything(mgr)
    assert all(n.nextv is INVALID_NEXTV and not n._poisoned for n in displaced)
    assert cell.read().payload == 5


def test_poisoned_free_still_traps_links(poisoning):
    _, mgr, _, displaced, _ = _indirect_history(3)
    _free_everything(mgr)
    assert all(rec.nextv is reclaim_mod._TRAP for rec in displaced)
    _, mgr, _, displaced, _ = _direct_history(3)
    _free_everything(mgr)
    assert all(n.nextv is reclaim_mod._TRAP for n in displaced)


@pytest.mark.parametrize("history", [_indirect_history, _direct_history],
                         ids=["indirect", "direct"])
def test_walk_across_freed_record_raises(history):
    """A handle kept without its pin would walk into freed history: the
    walk must fail loudly, never return the cut link as a value."""
    cam, mgr, cell, _, stale = history(5)
    fresh = cam.take_snapshot()
    _free_everything(mgr)
    with pytest.raises(SnapshotPreconditionError, match="retained history"):
        cell.read_snapshot(stale)
    current = cell.read_snapshot(fresh)
    assert (current if history is _indirect_history else current.payload) == 5


def test_trimmed_log_keeps_the_exact_bound():
    """The instrumented log drops its freed prefix but keeps absolute
    length, and the bound it yields is the one the full log would give."""
    instrument.enable(True)
    instrument.reset()
    cam, mgr, cell, _, _ = _indirect_history(200)
    _free_everything(mgr)
    for i in range(200, 300):
        assert cell.cas(i, i + 1)
    assert len(cell._log) == cell.succ_cas_count + 1 == 301
    assert cell._log.view()[1] <= 101     # every freed version dropped
    with mgr.pinned():
        h = mgr.snapshot(cam)
        for i in range(301, 304):
            cam.take_snapshot()
            assert cell.cas(i - 1, i)
        view = cell._log.view()
        assert cell.read_snapshot(h) == 300
        assert instrument.violation_count() == 0
        instrument.note_walk(view, h, 3)      # three newer versions: allowed
        assert instrument.violation_count() == 0
        instrument.note_walk(view, h, 4)      # one hop too many: caught
        assert instrument.violation_count() == 1
        mgr.release_snapshot(h)


def test_pinned_walks_never_reach_cut_links():
    """Poisoning off: updates free history (cutting links) while pinned
    snapshot walks run.  No walk may reach a cut link, every reader sees
    each cell's value never decrease, the step bound holds on the trimmed
    logs, and each chain stays within the unfreed records plus two."""
    instrument.enable(True)
    instrument.reset()
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mgr = EpochManager(advance_every=4)
        cam = Camera()
        cells = [VersionedCas(0, cam, mgr) for _ in range(2)]
        errors = []

        def writer(cell):
            try:
                for _ in range(1500):
                    with mgr.pinned():
                        val = cell.read()
                        cell.cas(val, val + 1)
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        def reader():
            last = [0, 0]
            try:
                for _ in range(1500):
                    with mgr.pinned():
                        h = mgr.snapshot(cam)
                        seen = [c.read_snapshot(h) for c in cells]
                        mgr.release_snapshot(h)
                    if any(s < l for s, l in zip(seen, last)):
                        errors.append(AssertionError(f"{seen} after {last}"))
                    last = seen
            except Exception as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(c,)) for c in cells]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        assert mgr.freed_total > 0
        assert instrument.violation_count() == 0, instrument.violations()
        for cell in cells:
            assert cell.version_count() <= mgr.live_retired + 2
    finally:
        sys.setswitchinterval(old_switch)
