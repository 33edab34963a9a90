import pytest

import chronocas.vcas as vcas_mod
import chronocas.vcas_direct as direct_mod
from chronocas import (Camera, DirectVersionedCas, EpochManager, INVALID_NEXTV,
                       PoisonedReadError, RecordedOnceError,
                       SnapshotPreconditionError, TBD, Versionable,
                       VersionedCas, reclaim)
from chronocas._gate import StepCounter
from chronocas.lincheck import Recorder, explore
from chronocas.oracle import SeqVcas


class Node(Versionable):
    __slots__ = ("payload",)

    def __init__(self, payload):
        super().__init__()
        self.payload = payload

    def __repr__(self):
        return f"Node({self.payload})"


def test_nil_initial():
    cell = DirectVersionedCas(None, Camera())
    assert cell.read() is None


def test_node_initial_normalized():
    cam = Camera()
    a = Node("a")
    cell = DirectVersionedCas(a, cam)
    assert a.ts == 0
    assert a.nextv is None
    assert cell.read() is a


def test_shared_initial_node_lists_stay_disjoint():
    cam = Camera()
    a = Node("a")
    c1 = DirectVersionedCas(a, cam)
    c2 = DirectVersionedCas(a, cam)
    h = cam.take_snapshot()
    b, c = Node("b"), Node("c")
    assert c1.cas(a, b)
    assert c2.cas(a, c)
    # both histories bottom out at a without touching a.nextv
    assert c1.read_snapshot(h) is a
    assert c2.read_snapshot(h) is a
    assert c1.read() is b and c2.read() is c


def test_init_nextv_examples():
    cam = Camera()
    n = Node(1)
    cell = DirectVersionedCas(None, cam)
    assert n.nextv is INVALID_NEXTV
    cell.init_nextv(n)
    assert n.nextv is None
    cell.init_nextv(n)   # already concrete: unchanged
    assert n.nextv is None


def test_cas_from_nil():
    cam = Camera()
    cell = DirectVersionedCas(None, cam)
    a = Node("a")
    assert cell.cas(None, a) is True
    assert cell.read() is a


def test_snapshot_before_swap():
    cam = Camera()
    a = Node("a")
    cell = DirectVersionedCas(a, cam)
    h = cam.take_snapshot()
    b = Node("b")
    assert cell.cas(a, b)
    assert cell.read_snapshot(h) is a
    assert cell.read() is b


def test_nil_at_cut_reads_nil():
    cam = Camera()
    early = cam.take_snapshot()   # older than the cell: an empty cell has no floor
    cell = DirectVersionedCas(None, cam)
    h = cam.take_snapshot()
    a = Node("a")
    assert cell.cas(None, a)
    assert cell.read_snapshot(h) is None
    assert cell.read_snapshot(early) is None


def test_zero_hop_snapshot_read_returns_the_head_without_walking(monkeypatch):
    """A head stamped at or below the handle is the node at the handle; an
    older handle or a TBD head takes the walk."""
    cam = Camera()
    a, b, c = Node("a"), Node("b"), Node("c")
    cell = DirectVersionedCas(a, cam)
    h0 = cam.take_snapshot()
    assert cell.cas(a, b)
    h1 = cam.take_snapshot()
    walks, walk = [], vcas_mod.VersionedPointer._walk

    def counted_walk(cell, handle):
        walks.append(handle)
        return walk(cell, handle)
    monkeypatch.setattr(vcas_mod.VersionedPointer, "_walk", counted_walk)
    assert cell.read_snapshot(h1) is b and walks == []
    assert cell.read_snapshot(h0) is a and walks == [h0]          # 1 hop
    c.nextv, cell._head = b, c       # appended, not yet stamped
    assert cell.read_snapshot(h1) is b and walks == [h0, h1]      # helped, 1 hop
    assert c.ts != TBD


def test_unarmed_winner_makes_only_its_link_install(monkeypatch):
    """Unarmed, a winning cas links its node with one install and stamps
    it inside the swap's critical section, without a second install."""
    cam = Camera()
    a, b = Node("a"), Node("b")
    cell = DirectVersionedCas(a, cam)
    cam.take_snapshot()
    calls = []
    for mod in (vcas_mod, direct_mod):
        def counted(obj, name, expected, new, install=mod.field_cas, mod=mod):
            calls.append((mod.__name__, name))
            return install(obj, name, expected, new)
        monkeypatch.setattr(mod, "field_cas", counted)
    assert cell.cas(a, b)
    assert calls == [("chronocas.vcas_direct", "nextv")]
    assert b.ts == 1 and b.nextv is a


def test_poisoned_head_traps_a_zero_hop_snapshot_read():
    reclaim.enable_poisoning(True)
    cam = Camera()
    mgr = EpochManager(advance_every=0)
    a = Node("a")
    cell = DirectVersionedCas(a, cam)
    h = cam.take_snapshot()
    mgr.retire(a)
    for _ in range(3):
        mgr.try_advance_epoch()
    mgr.collect()
    assert a._poisoned and a.ts <= h
    with pytest.raises(PoisonedReadError):
        cell.read_snapshot(h)


@pytest.mark.parametrize("direct", [False, True], ids=["indirect", "direct"])
def test_handle_below_floor_raises_without_walking(direct):
    """Both forms reject a handle older than the cell's initial record up
    front: no shared access, however long the history above it."""
    cam = Camera()
    stale = cam.take_snapshot()
    cam.take_snapshot()
    make = Node if direct else int
    cur = make(0)
    cell = (DirectVersionedCas if direct else VersionedCas)(cur, cam)
    for i in range(1, 50):
        nxt = make(i)
        assert cell.cas(cur, nxt)
        cur = nxt
    with StepCounter() as steps:
        with pytest.raises(SnapshotPreconditionError, match="predates this cell"):
            cell.read_snapshot(stale)
    assert steps.count == 0


def test_stale_old_value_fails():
    cam = Camera()
    a = Node("a")
    cell = DirectVersionedCas(a, cam)
    b, c = Node("b"), Node("c")
    assert cell.cas(a, b) is True
    assert cell.cas(a, c) is False


def test_recorded_once_violation_detected():
    cam = Camera()
    c1 = DirectVersionedCas(None, cam)
    c2 = DirectVersionedCas(None, cam)
    a = Node("a")
    assert c1.cas(None, a)
    with pytest.raises(RecordedOnceError):
        c2.cas(None, a)
    assert c2.read() is None      # refused before the swing


def test_oracle_equivalence_single_thread():
    """A recorded-once single-thread history gives identical results on the
    direct cell, the indirect cell, and the sequential oracle."""
    import random
    rng = random.Random(99)
    cam_d, cam_i = Camera(), Camera()
    first = Node(0)
    direct = DirectVersionedCas(first, cam_d)
    indirect = VersionedCas(first, cam_i)
    ref = SeqVcas.create(first)
    handles = []
    cur = first
    for i in range(1, 400):
        roll = rng.random()
        if roll < 0.4:
            nxt = Node(i)
            got_d = direct.cas(cur, nxt)
            got_i = indirect.cas(cur, nxt)
            want = ref.step(("vcas", cur, nxt))
            assert got_d == got_i == want
            cur = nxt
        elif roll < 0.6:
            hd, hi = cam_d.take_snapshot(), cam_i.take_snapshot()
            want = ref.step(("snapshot",))
            assert hd == hi == want
            handles.append(want)
        elif roll < 0.8 and handles:
            h = rng.choice(handles)
            want = ref.step(("readsnapshot", h))
            assert direct.read_snapshot(h) is want
            assert indirect.read_snapshot(h) is want
        else:
            want = ref.step(("vread",))
            assert direct.read() is want
            assert indirect.read() is want


def test_distinct_values_across_history():
    cam = Camera()
    cell = DirectVersionedCas(None, cam)
    seen = set()
    cur = None
    for i in range(50):
        n = Node(i)
        assert cell.cas(cur, n)
        assert id(n) not in seen
        seen.add(id(n))
        cur = n


def test_racing_init_nextv_vs_publication():
    """The normalization CAS and the publication race to one of two
    outcomes: the publication links b to a and swings the head to b, or the
    normalization set b's link first and the publication is refused before
    the swing, leaving the head at a.  Never a published b without its
    link."""
    def make():
        cam = Camera()
        a = Node("a")
        cell = DirectVersionedCas(a, cam)
        b = Node("b")
        rec = Recorder()
        refused = []

        def publisher():
            try:
                rec.run(0, "cas", ("a", "b"), lambda: cell.cas(a, b))
            except RecordedOnceError:
                refused.append(True)

        def normalizer():
            rec.run(1, "initnextv", (), lambda: cell.init_nextv(b))

        def finish():
            link = ("refused" if refused
                    else getattr(b.nextv, "payload", repr(b.nextv)))
            return link, cell.read().payload
        return [publisher, normalizer], finish

    res = explore(make)
    assert res.complete
    outcomes = set(res.histories)
    assert outcomes == {("a", "b"), ("refused", "a")}, outcomes


def test_publishing_a_normalized_node_is_refused():
    """A node whose link init_nextv set (here before its publication) would
    be published with link None, cutting the cell's history below it: the
    publication is refused, and the cell still reads a at the old handle."""
    cam = Camera()
    a, b = Node("a"), Node("b")
    cell = DirectVersionedCas(a, cam)
    h = cam.take_snapshot()
    cell.init_nextv(b)
    with pytest.raises(RecordedOnceError):
        cell.cas(a, b)
    assert cell.read() is a
    assert cell.read_snapshot(h) is a
