import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import chronocas.vcas as vcas_mod
from chronocas import (Camera, DirectVersionedCas, EpochManager,
                       PoisonedReadError, TBD, VersionedCas, Versionable,
                       instrument, reclaim)
from chronocas._gate import StepCounter
from chronocas.oracle import SeqVcas
from chronocas.vcas import SnapshotPreconditionError, VNode
from chronocas.lincheck import Recorder, check_linearizable, explore
from versions import head, version_chain


def test_constructor_fresh_camera():
    cam = Camera()
    v = VersionedCas(5, cam)
    assert v.read() == 5
    assert head(v).ts == 0


def test_constructor_after_three_snapshots():
    cam = Camera()
    for _ in range(3):
        cam.take_snapshot()
    v = VersionedCas(5, cam)
    assert head(v).ts == 3


def test_snapshot_after_construction_sees_initial():
    cam = Camera()
    v = VersionedCas("A", cam)
    h = cam.take_snapshot()
    assert v.read_snapshot(h) == "A"


def test_init_ts_noop_when_valid():
    cam = Camera()
    v = VersionedCas(1, cam)
    node = head(v)
    before = node.ts
    cam.take_snapshot()
    v.init_ts(node)
    assert node.ts == before


def test_init_ts_installs_current_counter():
    cam = Camera()
    v = VersionedCas(1, cam)
    for _ in range(7):
        cam.take_snapshot()
    node = VNode(2, head(v))
    assert node.ts == TBD
    v.init_ts(node)
    assert node.ts == 7


def test_racing_init_ts_single_winner():
    def make():
        cam = Camera()
        v = VersionedCas(1, cam)
        node = VNode(2, None)
        rec = Recorder()

        def racer(i):
            def body():
                rec.run(i, "init", (), lambda: v.init_ts(node))
            return body

        def snapper():
            rec.run(2, "snapshot", (), cam.take_snapshot)

        def finish():
            return node.ts
        return [racer(0), racer(1), snapper], finish

    res = explore(make)
    assert res.complete
    # ts transitions exactly once: always valid at the end, and only ever
    # one of the counter values the racers could have read.
    assert all(ts in (0, 1) for ts in res.histories)


def test_cas_examples():
    cam = Camera()
    v = VersionedCas(5, cam)
    assert v.cas(5, 7) is True
    assert v.read() == 7
    v2 = VersionedCas(5, cam)
    assert v2.cas(9, 7) is False
    assert v2.read() == 5


def test_cas_equal_values_no_append():
    cam = Camera()
    v = VersionedCas(5, cam)
    before = version_chain(v)
    assert v.cas(5, 5) is True
    assert version_chain(v) == before


def test_read_snapshot_three_versions():
    cam = Camera()
    v = VersionedCas(10, cam)
    h0 = cam.take_snapshot()
    assert v.cas(10, 20)
    h1 = cam.take_snapshot()
    assert v.cas(20, 30)
    assert v.read_snapshot(h0) == 10
    assert v.read_snapshot(h1) == 20
    assert v.read() == 30


def test_read_snapshot_without_updates_equals_read():
    cam = Camera()
    v = VersionedCas("x", cam)
    v.cas("x", "y")
    h = cam.take_snapshot()
    assert v.read_snapshot(h) == v.read() == "y"


def test_current_ops_constant_steps_regardless_of_history():
    cam = Camera()
    v = VersionedCas(0, cam)
    with StepCounter() as fresh_read:
        v.read()
    val = 0
    for i in range(1, 2000):
        assert v.cas(val, i)
        val = i
    with StepCounter() as old_read:
        v.read()
    assert old_read.count == fresh_read.count
    with StepCounter() as cas_steps:
        v.cas(val, val + 1)
    assert cas_steps.count <= 8


def test_read_snapshot_steps_track_version_walk():
    cam = Camera()
    v = VersionedCas(0, cam)
    h = cam.take_snapshot()
    for i in range(1, 50):
        v.cas(i - 1, i)
    with StepCounter() as steps:
        assert v.read_snapshot(h) == 0
    # gated accesses stay constant; the walk itself is link-chasing
    assert steps.count <= 6


def _steps(op) -> int:
    with StepCounter() as steps:
        op()
    return steps.count


def test_gated_steps_of_each_access_are_exact():
    """The explorer schedules, and ``gate.steps_per_op`` counts, exactly
    these gated accesses; a change to a cell's layout must not move one."""
    cam = Camera()
    v = VersionedCas(0, cam, EpochManager(advance_every=0))
    h = cam.take_snapshot()
    assert _steps(v.read) == 2                  # head, help check
    # head, help check, swap, then the winner's init_ts: check, camera
    # read, install
    assert _steps(lambda: v.cas(0, 1)) == 6
    assert _steps(lambda: v.cas(0, 2)) == 2     # value mismatch
    assert _steps(lambda: v.cas(1, 1)) == 2     # equal value
    stale = version_chain(v)[1]
    # lost swap, re-read of the head that beat it, help check
    assert _steps(lambda: v._swap(stale, VNode(2, stale))) == 3
    assert v.cas(1, 2) and v.cas(2, 3)
    now = cam.take_snapshot()
    assert _steps(lambda: v.read_snapshot(now)) == 2    # 0 hops
    assert _steps(lambda: v.read_snapshot(h)) == 2      # 3 hops

    a, b = Versionable(), Versionable()
    d = DirectVersionedCas(a, cam)
    empty = DirectVersionedCas(None, cam)
    now = cam.take_snapshot()
    assert _steps(d.read) == 2
    assert _steps(lambda: d.read_snapshot(now)) == 2    # 0 hops
    # an empty cell's head is its sentinel: head, help check
    assert _steps(empty.read) == 2
    assert _steps(lambda: empty.read_snapshot(now)) == 2
    assert empty.read() is None and empty.read_snapshot(now) is None
    # head, help check, link install, swap, init_ts (three as above)
    assert _steps(lambda: d.cas(a, b)) == 7


def test_unarmed_winner_stamps_without_a_field_cas(monkeypatch):
    """Unarmed, a winning cas stamps its record inside the swap's critical
    section: no install call, and the head is stamped when cas returns."""
    cam = Camera()
    v = VersionedCas(0, cam)
    cam.take_snapshot()
    calls, install = [], vcas_mod.field_cas

    def counted(obj, name, expected, new):
        calls.append(name)
        return install(obj, name, expected, new)
    monkeypatch.setattr(vcas_mod, "field_cas", counted)
    assert v.cas(0, 1)
    assert calls == [] and head(v).ts == 1


class _PausingCamera(Camera):
    """A camera whose next ``peek_timestamp`` first runs ``pause``."""

    def __init__(self) -> None:
        super().__init__()
        self.pause = None

    def peek_timestamp(self) -> int:
        pause, self.pause = self.pause, None
        if pause is not None:
            pause()
        return super().peek_timestamp()


@pytest.mark.parametrize("form", ["indirect", "direct"])
def test_no_reader_sees_the_winners_record_before_its_stamp(form):
    """Unarmed, the winner reads its stamp inside the critical section,
    after the swing: a reader that meets the TBD head waits until the stamp
    is in, and a handle taken in between reads the old value."""
    cam = _PausingCamera()
    if form == "indirect":
        old, new = "old", "new"
        v = VersionedCas(old, cam)
    else:
        old, new = _Node("old"), _Node("new")
        v = DirectVersionedCas(old, cam)
    # take_snapshot runs under v's stripe below; a shared one would deadlock
    assert cam._lock is not v._lock
    taken, blocked, seen = {}, [], []

    def pause():
        h = taken["h"] = cam.take_snapshot()
        reader = taken["reader"] = threading.Thread(
            target=lambda: seen.extend((v.read(), v.read_snapshot(h))),
            daemon=True)
        reader.start()
        reader.join(0.2)
        blocked.append(reader.is_alive())
    cam.pause = pause
    assert v.cas(old, new)
    h, reader = taken["h"], taken["reader"]
    reader.join(5)
    assert blocked == [True] and not reader.is_alive()
    assert seen == [new, old]
    assert head(v).ts == h + 1


def test_held_handle_reads_never_change_under_unarmed_writers():
    """Two writers increment four cells while two readers each hold a
    handle and read every cell at it twice: both reads agree, and no cell
    reads lower at a later handle.  The unarmed winner's stamp has no
    exhaustive exploration; a stamp taken before the swing, or outside the
    lock, lets a held handle read two values."""
    cam, epoch = Camera(), EpochManager()
    cells = [VersionedCas(0, cam, epoch) for _ in range(4)]
    stop, failures, queries = threading.Event(), [], []

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            cell = rng.choice(cells)
            with epoch.maybe_pinned():
                seen = cell.read()
                cell.cas(seen, seen + 1)

    def reader():
        last, n = [0] * len(cells), 0
        while not stop.is_set():
            with epoch.query(cam) as h:
                first = [c.read_snapshot(h) for c in cells]
                time.sleep(0)
                second = [c.read_snapshot(h) for c in cells]
            n += 1
            if first != second or any(a < b for a, b in zip(first, last)):
                failures.append((h, last, first, second))
                break
            last = first
        queries.append(n)

    threads = [threading.Thread(target=writer, args=(i,)) for i in (1, 2)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for t in threads:
            t.join(10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(queries) == 2 and min(queries) > 10
    assert sum(c.read() for c in cells) > 100


def test_zero_hop_snapshot_read_returns_the_head_without_walking(monkeypatch):
    """A head stamped at or below the handle is the value at the handle;
    an older handle or a TBD head takes the walk."""
    cam = Camera()
    v = VersionedCas(0, cam)
    h0 = cam.take_snapshot()
    assert v.cas(0, 1)
    h1 = cam.take_snapshot()
    walks, walk = [], vcas_mod.VersionedPointer._walk

    def counted_walk(cell, handle):
        walks.append(handle)
        return walk(cell, handle)
    monkeypatch.setattr(vcas_mod.VersionedPointer, "_walk", counted_walk)
    assert v.read_snapshot(h1) == 1 and walks == []
    assert v.read_snapshot(h0) == 0 and walks == [h0]          # 1 hop
    v._head = VNode(2, v._head)      # appended, not yet stamped
    assert v.read_snapshot(h1) == 1 and walks == [h0, h1]      # helped, 1 hop
    assert head(v).ts != TBD


def test_zero_hop_snapshot_read_still_counts_its_hops():
    instrument.enable(True)
    instrument.reset()
    cam = Camera()
    v = VersionedCas(0, cam)
    h = cam.take_snapshot()
    assert v.read_snapshot(h) == 0
    assert instrument.hop_histogram() == {0: 1}
    assert v.cas(0, 1) and v.read_snapshot(h) == 0
    assert instrument.hop_histogram() == {0: 1, 1: 1}
    assert instrument.violation_count() == 0


def test_poisoned_head_traps_a_zero_hop_snapshot_read():
    reclaim.enable_poisoning(True)
    cam = Camera()
    mgr = EpochManager(advance_every=0)
    v = VersionedCas(0, cam, mgr)
    h = cam.take_snapshot()
    mgr.retire(head(v))
    for _ in range(3):
        mgr.try_advance_epoch()
    mgr.collect()
    assert head(v).nextv is reclaim._TRAP and head(v).ts <= h
    with pytest.raises(PoisonedReadError):
        v.read_snapshot(h)


@pytest.mark.parametrize("instrumented", [True, False])
def test_swaps_counted_only_when_instrumented(instrumented):
    """Only an instrumented cell keeps swap bookkeeping."""
    instrument.enable(instrumented)
    instrument.reset()
    v = VersionedCas(0, Camera())
    assert v.cas(0, 1) and v.cas(1, 2)
    swaps = len(v._log) - 1 if v._log is not None else 0
    assert swaps == (2 if instrumented else 0)


def test_precondition_violation_detected():
    cam = Camera()
    stale = cam.take_snapshot()
    cam.take_snapshot()
    v = VersionedCas("fresh", cam)   # born at timestamp 2
    with pytest.raises(SnapshotPreconditionError):
        v.read_snapshot(stale)


def test_version_list_timestamps_sorted_and_tbd_only_at_head():
    cam = Camera()
    v = VersionedCas(0, cam)
    rng = random.Random(13)
    val = 0
    for i in range(1, 300):
        if rng.random() < 0.3:
            cam.take_snapshot()
        assert v.cas(val, i)
        val = i
        stamps = [node.ts for node in version_chain(v)]
        assert all(s != TBD for s in stamps[1:])
        valid = [s for s in stamps if s != TBD]
        assert valid == sorted(valid, reverse=True)


def test_handle_order_yields_prefix_states():
    cam = Camera()
    v = VersionedCas(0, cam)
    handles = []
    commits = [0]
    rng = random.Random(7)
    val = 0
    for i in range(1, 200):
        if rng.random() < 0.4:
            handles.append((cam.take_snapshot(), commits[-1]))
        assert v.cas(val, i)
        commits.append(i)
        val = i
    seen = [v.read_snapshot(h) for h, _ in handles]
    assert seen == [exp for _, exp in handles]
    assert seen == sorted(seen)


@st.composite
def _op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    issued = 0
    for _ in range(n):
        kind = draw(st.sampled_from(["vread", "vcas", "snapshot", "readsnapshot"]))
        if kind == "vcas":
            ops.append(("vcas", draw(st.integers(0, 5)), draw(st.integers(0, 5))))
        elif kind == "readsnapshot":
            if not issued:
                continue
            ops.append(("readsnapshot", draw(st.integers(0, issued - 1))))
        else:
            if kind == "snapshot":
                issued += 1
            ops.append((kind,))
    return ops


@given(_op_sequences())
@settings(max_examples=60, deadline=None)
def test_sequential_conformance_matches_oracle(ops):
    cam = Camera()
    v = VersionedCas(0, cam)
    ref = SeqVcas.create(0)
    for op in ops:
        if op[0] == "vread":
            got = v.read()
        elif op[0] == "vcas":
            got = v.cas(op[1], op[2])
        elif op[0] == "snapshot":
            got = cam.take_snapshot()
        else:
            got = v.read_snapshot(op[1])
        assert got == ref.step(op), op


def test_concurrent_race_accepted_by_checker():
    def make():
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))
        return [t1, t2], rec.history

    res = explore(make)
    assert res.complete
    spec = SeqVcas.create("A")
    for hist in res.histories:
        assert check_linearizable(hist, spec).accepted


class _Node(Versionable):
    __slots__ = ("name",)

    def __init__(self, name) -> None:
        super().__init__()
        self.name = name

    def __repr__(self) -> str:
        return self.name


@pytest.mark.parametrize("mutation,program,form", [
    pytest.param(mutation, program, form, id=f"{mutation}-{program}"
                 + ("-direct" if form == "direct" else ""))
    for form in ("indirect", "direct")
    for mutation, program in (("no_read_help", "read"),
                              ("no_init_before_swing", "failcas"))
])
def test_mutations_break_linearizability(mutation, program, form):
    """Removing either helping step is observable in both cell forms: some
    interleaving of the canonical racing program has no linearization."""
    def make():
        cam = Camera()
        if form == "indirect":
            A, B, D = "A", "B", "D"
            v = VersionedCas(A, cam)
        else:
            A, B, D = _Node("A"), _Node("B"), _Node("D")
            v = DirectVersionedCas(A, cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", (A, B), lambda: v.cas(A, B))

        def t2():
            if program == "read":
                rec.run(2, "vread", (), v.read)
            else:
                rec.run(2, "vcas", (A, D), lambda: v.cas(A, D))
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))
        return [t1, t2], lambda: (rec.history(), A)

    vcas_mod._mutations = frozenset([mutation])
    try:
        res = explore(make)
        rejected = sum(1 for h, first in res.histories
                       if check_linearizable(h, SeqVcas.create(first)).rejected)
    finally:
        vcas_mod._mutations = frozenset()
    assert res.complete
    assert rejected > 0
