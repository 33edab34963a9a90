import random
import sys
import threading

import pytest

from chronocas import (INVALID_NEXTV, Camera, DirectVersionedCas, EpochManager,
                       LeafBst, MsQueue, PoisonedReadError, ReclaimError,
                       Versionable, _gate, instrument)
from chronocas import reclaim as reclaim_mod
from chronocas.bst import IInfo
from chronocas.oracle import SeqOrderedSet, SeqQueue
from chronocas.vcas import SnapshotPreconditionError, VersionedCas
from versions import head, version_chain


class Record:
    def __init__(self, tag):
        self.tag = tag
        self._poisoned = False
        self.hooks = 0

    def _poison(self):
        self._poisoned = True
        self.hooks += 1


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


def _pin_and_handle(mgr):
    """The calling thread's announced epoch and snapshot handle."""
    slot = mgr._local.slot
    return (None, None) if slot is None else (slot.epoch, slot.snapshot)


def test_snapshot_release_cycle():
    mgr = EpochManager()
    cam = Camera()
    with mgr.query(cam) as h1:
        pass
    assert _pin_and_handle(mgr) == (None, None)
    with mgr.query(cam) as h2:        # a released handle frees the slot
        assert h2 >= h1
        assert _pin_and_handle(mgr) == (1, h2)
    assert _pin_and_handle(mgr) == (None, None)


def test_nested_query_refused_keeping_the_outer_pin_and_handle():
    mgr, cam = EpochManager(), Camera()
    with mgr.query(cam) as h:
        with pytest.raises(ReclaimError):
            with mgr.query(cam):
                pass
        assert _pin_and_handle(mgr) == (1, h)
    assert _pin_and_handle(mgr) == (None, None)


def test_query_releases_pin_and_handle_on_exception():
    mgr, cam = EpochManager(), Camera()
    with pytest.raises(KeyError):
        with mgr.query(cam):
            raise KeyError("inside the block")
    assert _pin_and_handle(mgr) == (None, None)
    with mgr.query(cam) as h:         # the slot is usable again
        assert _pin_and_handle(mgr) == (1, h)


def test_query_under_an_outer_pin_leaves_it_held():
    mgr, cam = EpochManager(), Camera()
    guard = mgr.pin()
    with mgr.query(cam) as h:
        assert _pin_and_handle(mgr) == (1, h)
    assert _pin_and_handle(mgr) == (1, None)
    mgr.unpin(guard)
    assert _pin_and_handle(mgr) == (None, None)


def test_tree_update_inside_a_query_keeps_the_pin_and_handle():
    """An update inside a ``query`` block is covered by the block's pin and
    leaves its handle in place: reads at the handle still give the cut."""
    t, ref = LeafBst(), SeqOrderedSet()
    for k in (5, 1, 9):
        assert t.insert(k) == ref.step(("insert", k))
    with t.epoch.query(t.camera) as h:
        announced = t.epoch.epoch
        cut = ref.copy()
        assert t.insert(7) == ref.step(("insert", 7))
        assert t.delete(1) == ref.step(("delete", 1))
        assert _pin_and_handle(t.epoch) == (announced, h)
        assert list(t._keys(h, 0, 10)) == cut.step(("range", 0, 10)) == [1, 5, 9]
    assert _pin_and_handle(t.epoch) == (None, None)
    assert t.range_query(0, 10) == ref.step(("range", 0, 10)) == [5, 7, 9]


def test_queue_update_inside_a_query_keeps_the_pin_and_handle():
    q, ref = MsQueue(), SeqQueue()
    for k in (3, 10):
        q.enqueue(k)
        ref.step(("enqueue", k))
    with q.epoch.query(q.camera) as h:
        announced = q.epoch.epoch
        oh = ref.step(("snapshot",))
        q.enqueue(4)
        ref.step(("enqueue", 4))
        assert q.dequeue() == ref.step(("dequeue",)) == 3
        assert _pin_and_handle(q.epoch) == (announced, h)
        assert q.scan(at=h) == ref.step(("scan", oh)) == [3, 10]
    assert _pin_and_handle(q.epoch) == (None, None)
    assert q.scan() == ref.step(("scan",)) == [10, 4]


def test_failed_snapshot_leaves_no_pin():
    class BrokenCamera:
        def take_snapshot(self):
            raise RuntimeError("no handle")

    mgr = EpochManager()
    with pytest.raises(RuntimeError):
        with mgr.query(BrokenCamera()):
            pass
    assert _pin_and_handle(mgr) == (None, None)


def test_held_snapshot_blocks_reclamation_growth():
    """A long-held handle keeps its epoch pinned, so retired versions pile
    up; releasing lets the high-water mark plateau."""
    cam = Camera()
    mgr = EpochManager(advance_every=4)
    cell = VersionedCas(0, cam, mgr)
    with mgr.query(cam):
        for i in range(1, 301):
            cell.cas(i - 1, i)
        held = mgr.live_retired
        assert held >= 290    # pinned epoch: nothing freed
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
                with mgr.query(cam) as h:
                    i = rng.randrange(4)
                    if rng.random() < 0.6:
                        if cells[i].cas(vals[i], vals[i] + 1):
                            vals[i] += 1
                        else:
                            vals[i] = cells[i].read()
                    else:
                        cells[i].read_snapshot(h)
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
        displaced.append(head(cell))
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
    assert len(version_chain(cell)) == 6
    _free_everything(mgr)
    assert all(rec.nextv is INVALID_NEXTV and not rec._poisoned
               for rec in displaced)
    assert all(rec.val is None for rec in displaced)   # freed: holds nothing
    assert len(version_chain(cell)) == 2   # head plus the freed record ending it
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


def test_poisoning_frees_a_record_without_a_poison_hook(poisoning):
    """A BST info record has no trap pattern (no walk reaches one), so
    poisoning frees it as usual: a swept ``IInfo`` drops its nodes."""
    tree = LeafBst(epoch=EpochManager(advance_every=0))
    assert tree.insert(1)
    op = tree._root.read_update()[1]      # CLEAN, naming the finished insert
    assert isinstance(op, IInfo) and op.p is tree._root
    _free_everything(tree.epoch)
    assert op.p is None and op.l is None and op.new_internal is None


@pytest.mark.parametrize("history", [_indirect_history, _direct_history],
                         ids=["indirect", "direct"])
def test_walk_across_freed_record_raises(history):
    """A handle kept without its pin would walk into freed history: the
    walk must fail loudly, never return the cut link as a value, nor a
    freed record where the walk stops (it no longer holds its value)."""
    cam, mgr, cell, displaced, oldest = history(5)
    at_freed = displaced[-1].ts     # the cell's value was a freed record
    fresh = cam.take_snapshot()
    _free_everything(mgr)
    for stale in (oldest, at_freed):
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
    assert len(cell._log) == 301
    assert cell._log.view()[1] <= 101     # every freed version dropped
    with mgr.query(cam) as h:
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


class _PauseAt:
    """Gate controller that suspends ``thread`` at its ``n``-th gated step
    until ``resume`` is set; every other thread passes."""

    def __init__(self, thread, n):
        self.thread, self.n, self.steps = thread, n, 0
        self.paused, self.resume = threading.Event(), threading.Event()

    def on_access(self, thread):
        if thread is self.thread:
            self.steps += 1
            if self.steps == self.n:
                self.paused.set()
                self.resume.wait(10)


def test_unpinned_writer_retires_after_stamping_the_successor():
    """An unpinned writer paused just before it stamps its new head has not
    retired the head it displaced: three epoch advances free nothing, and a
    reader that then pins, takes a handle and stamps the successor above it
    walks to the displaced value."""
    cam, mgr = Camera(), EpochManager(advance_every=0)
    cell = VersionedCas(0, cam, mgr)
    won = []
    writer = threading.Thread(target=lambda: won.append(cell.cas(0, 1)))
    ctl = _PauseAt(writer, 4)         # the winner's init_ts
    _gate.install_controller(ctl)
    try:
        writer.start()
        assert ctl.paused.wait(10)
        for _ in range(3):
            assert mgr.try_advance_epoch()
        with mgr.query(cam) as h:
            assert cell.read_snapshot(h) == 0
    finally:
        ctl.resume.set()
        writer.join(10)
        _gate.remove_controller()
    assert won == [True] and cell.read() == 1
    assert mgr.retired_total == 1


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
                    with mgr.maybe_pinned():
                        val = cell.read()
                        cell.cas(val, val + 1)
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        def reader():
            last = [0, 0]
            try:
                for _ in range(1500):
                    with mgr.query(cam) as h:
                        seen = [c.read_snapshot(h) for c in cells]
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
            assert len(version_chain(cell)) <= mgr.live_retired + 2
    finally:
        sys.setswitchinterval(old_switch)


# -- the lean fast paths ---------------------------------------------------------


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc):
        self._lock.release()


def test_pinned_retire_takes_no_lock():
    mgr = EpochManager(advance_every=0)
    guard = mgr.pin()                 # registers the slot (a locked step)
    mgr._lock = counting = CountingLock()
    for i in range(10):
        mgr.retire(Record(i))
    assert counting.acquired == 0
    mgr.unpin(guard)
    mgr.retire(Record(10))
    assert counting.acquired == 1     # unpinned: the locked path
    assert mgr.retired_total == 11


def test_pinned_double_retire_diagnosed():
    mgr = EpochManager(advance_every=0)
    rec = Record(1)
    with mgr.maybe_pinned():
        mgr.retire(rec)
        with pytest.raises(ReclaimError):
            mgr.retire(rec)
    assert mgr.retired_total == 1


def test_maybe_pinned_reuses_one_context_per_thread():
    mgr = EpochManager()
    ctx = mgr.maybe_pinned()
    assert mgr.maybe_pinned() is ctx
    with ctx:
        assert _pin_and_handle(mgr) == (1, None)
    assert _pin_and_handle(mgr) == (None, None)
    assert mgr.maybe_pinned() is ctx


def test_maybe_pinned_under_outer_pin_is_a_shared_no_op():
    mgr = EpochManager(advance_every=0)
    unpinned_ctx = mgr.maybe_pinned()
    guard = mgr.pin()
    covered = mgr.maybe_pinned()
    assert covered is mgr.maybe_pinned() and covered is not unpinned_ctx
    with covered:
        assert guard._slot.epoch == 1
    assert guard._slot.epoch == 1     # the outer announcement stays
    mgr.unpin(guard)
    assert mgr.maybe_pinned() is unpinned_ctx


def test_maybe_pinned_unpins_on_exception():
    mgr = EpochManager()
    ctx = mgr.maybe_pinned()
    with pytest.raises(KeyError):
        with ctx:
            raise KeyError("inside the block")
    assert _pin_and_handle(mgr) == (None, None)
    assert mgr.maybe_pinned() is ctx
    mgr.unpin(mgr.pin())              # the slot is usable again


def test_lock_free_retire_accounting_under_racing_advances(poisoning):
    """Pinned retirers append without the lock while an advancer sweeps as
    often as it can.  A record appended into a bag already swept would be
    neither live nor freed: the totals would not add up and its hook would
    never run.  A record freed under its retirer's pin would trap."""
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mgr = EpochManager(advance_every=1)
        retired = [[] for _ in range(4)]
        errors = []
        stop = threading.Event()

        def retirer(mine):
            try:
                for _ in range(400):
                    with mgr.maybe_pinned():
                        batch = [Record(i) for i in range(3)]
                        for rec in batch:
                            mgr.retire(rec)
                        for rec in batch:
                            reclaim_mod.check_live(rec)
                    mine.extend(batch)
            except Exception as exc:   # reported by the main thread
                errors.append(exc)

        def advancer():
            while not stop.is_set():
                mgr.try_advance_epoch()

        adv = threading.Thread(target=advancer)
        workers = [threading.Thread(target=retirer, args=(m,)) for m in retired]
        adv.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        stop.set()
        adv.join(timeout=60)
        assert not any(t.is_alive() for t in workers + [adv])
        assert not errors, errors[:3]
        records = [rec for mine in retired for rec in mine]
        assert len(records) == 4 * 400 * 3 == mgr.retired_total
        _free_everything(mgr)
        assert mgr.retired_total == mgr.freed_total == len(records)
        assert all(rec.hooks == 1 for rec in records)
    finally:
        sys.setswitchinterval(old_switch)


def test_live_retired_hwm_is_the_exact_peak_between_sweeps():
    mgr = EpochManager(advance_every=0)
    keep = []

    def retire(n):
        for _ in range(n):
            keep.append(Record(len(keep)))
            mgr.retire(keep[-1])

    retire(3)
    assert mgr.try_advance_epoch()      # epoch 2
    retire(4)
    assert mgr.try_advance_epoch()      # epoch 3
    retire(2)                           # 9 live: the peak
    assert mgr.try_advance_epoch()      # epoch 4 frees epoch 1's 3
    assert mgr.live_retired == 6
    retire(1)
    assert mgr.live_retired_hwm == 9
    retire(5)                           # 12 live, no sweep since
    assert mgr.live_retired_hwm == 12
    assert mgr.retired_total == 15 and mgr.freed_total == 3
