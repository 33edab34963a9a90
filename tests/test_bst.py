import random

import pytest

from chronocas import (TBD, LeafBst, PoisonedReadError, VersionedCas,
                       instrument, reclaim)
from chronocas.bench import WorkloadConfig, stress
from chronocas.oracle import SeqLeafBst, SeqOrderedSet
from chronocas._gate import StepCounter
from chronocas.bst import INF1, INF2, BstInternal
from chronocas.ordered import Bound

from armed import ARMED_BY


def test_insert_find():
    t = LeafBst()
    assert t.insert(5) is True
    assert t.find(5) is True
    assert t.insert(5) is False


def test_delete():
    t = LeafBst()
    t.insert(5)
    assert t.delete(5) is True
    assert t.delete(5) is False
    assert t.find(5) is False


def test_range_examples():
    t = LeafBst()
    for k in (1, 5, 9):
        t.insert(k)
    assert t.range_query(2, 9) == [5, 9]
    assert LeafBst().range_query(0, 10) == []
    with pytest.raises(ValueError):
        t.range_query(9, 2)


def test_range_sum_examples():
    t = LeafBst()
    for k in (1, 5, 9):
        t.insert(k)
    assert t.range_sum(2, 9) == 14
    assert LeafBst().range_sum(0, 100) == 0
    with pytest.raises(ValueError):
        t.range_sum(9, 2)


def test_range_sum_metamorphic_equals_sum_of_range():
    rng = random.Random(17)
    t = LeafBst()
    for _ in range(200):
        t.insert(rng.randint(0, 400))
    for _ in range(50):
        a = rng.randint(0, 300)
        b = a + rng.randint(0, 120)
        assert t.range_sum(a, b) == sum(t.range_query(a, b))


def test_succ_findif_multisearch_examples():
    t = LeafBst()
    for k in (1, 5, 9):
        t.insert(k)
    assert t.succ(1, 2) == [5, 9]
    assert t.find_if(0, 10, lambda k: k % 4 == 1) == 1
    assert t.multisearch([5, 7]) == {5: True, 7: False}
    assert t.multisearch([]) == {}
    assert t.multisearch([9, 5, 9, 5]) == {5: True, 9: True}
    with pytest.raises(ValueError):
        t.succ(1, 0)


def test_findif_interval_is_half_open():
    t = LeafBst()
    for k in (3, 7):
        t.insert(k)
    assert t.find_if(3, 7, lambda k: True) == 3
    assert t.find_if(4, 7, lambda k: True) is None   # 7 excluded


def test_height_convention():
    t = LeafBst()
    assert t.height() == 0          # sentinels only
    t.insert(5)
    assert t.height() == 1          # single key
    t.insert(3)
    assert t.height() == 2


def test_height_traps_a_poisoned_internal_node():
    """height checks each node it visits, as _keys does: a freed internal
    node still linked traps rather than read as a live subtree.  So do the
    descents at the INF1 node, whose key they pass without reading."""
    reclaim.enable_poisoning(True)
    t = LeafBst()
    for k in (5, 3, 8):
        t.insert(k)
    inner = t._root.left.read()
    assert isinstance(inner, BstInternal)
    inner._poison()
    with pytest.raises(PoisonedReadError):
        t.height()
    for op in (t.find, t.insert, t.delete, lambda k: t.multisearch([k])):
        with pytest.raises(PoisonedReadError):
            op(4)


def _drive(tree, ref, seed, steps):
    rng = random.Random(seed)
    for _ in range(steps):
        roll = rng.random()
        k = rng.randint(0, 120)
        if roll < 0.3:
            assert tree.insert(k) == ref.step(("insert", k))
        elif roll < 0.5:
            assert tree.delete(k) == ref.step(("delete", k))
        elif roll < 0.6:
            assert tree.find(k) == ref.step(("find", k))
        elif roll < 0.7:
            s = rng.randint(0, 100)
            assert tree.range_query(s, s + 25) == ref.step(("range", s, s + 25))
        elif roll < 0.78:
            s = rng.randint(0, 100)
            assert tree.range_sum(s, s + 25) == ref.step(("range_sum", s, s + 25))
        elif roll < 0.86:
            assert tree.succ(k, 3) == ref.step(("succ", k, 3))
        elif roll < 0.92:
            ks = [rng.randint(0, 120) for _ in range(3)]
            assert tree.multisearch(ks) == ref.step(("multisearch", ks))
        elif roll < 0.97:
            s, m = rng.randint(0, 100), rng.randint(1, 7)
            pred = lambda key: key % m == 0             # noqa: E731
            assert (tree.find_if(s, s + 25, pred)
                    == ref.step(("findif", s, s + 25, pred)))
        else:
            assert tree.height() == ref.step(("height",))


def test_sequential_replay_matches_oracle_indirect():
    _drive(LeafBst(mode="indirect"), SeqLeafBst(INF1, INF2), seed=23, steps=1500)


def test_sequential_replay_matches_oracle_direct():
    _drive(LeafBst(mode="direct"), SeqLeafBst(INF1, INF2), seed=23, steps=1500)


def test_delete_recorded_once_examples():
    """The direct build deletes by publishing a fresh copy of the sibling."""
    t = LeafBst(mode="direct")
    t.insert(1)
    t.insert(5)
    assert t.delete(5) is True
    assert t.find(1) is True
    assert t.find(5) is False
    # the same deletion is an ordinary delete in the indirect build
    t = LeafBst(mode="indirect")
    t.insert(1)
    assert t.delete(1) is True
    assert t.find(1) is False


def test_direct_indirect_identical_query_outputs():
    """Same seeded single-thread history: byte-identical query transcripts."""
    def transcript(mode):
        rng = random.Random(77)
        t = LeafBst(mode=mode)
        lines = []
        for i in range(2000):
            roll = rng.random()
            k = rng.randint(0, 150)
            if roll < 0.35:
                lines.append(f"i{k}={t.insert(k)}")
            elif roll < 0.6:
                lines.append(f"d{k}={t.delete(k)}")
            elif roll < 0.8:
                s = rng.randint(0, 120)
                lines.append(f"r{s}={t.range_query(s, s + 30)!r}")
            else:
                lines.append(f"h={t.height()}")
        return "\n".join(lines).encode()

    assert transcript("indirect") == transcript("direct")


def test_queries_never_touch_update_words(monkeypatch):
    """No query reads or swaps an update word; updates do.  Both accesses
    are counted on every internal node, through the class."""
    accesses = []

    def counted(name):
        access = getattr(BstInternal, name)

        def counting(node, *args):
            accesses.append(name)
            return access(node, *args)
        monkeypatch.setattr(BstInternal, name, counting)

    counted("read_update")
    counted("cas_update")
    t = LeafBst()
    rng = random.Random(5)
    for _ in range(300):
        t.insert(rng.randint(0, 500))
    accesses.clear()
    t.range_query(0, 500)
    t.range_sum(10, 90)
    t.succ(50, 10)
    t.find_if(0, 400, lambda k: k % 7 == 0)
    t.multisearch([1, 2, 3])
    t.height()
    t.find(250)
    assert accesses == []
    t.insert(250)                   # positive control: updates use them
    assert {"read_update", "cas_update"} <= set(accesses)
    accesses.clear()
    t.delete(250)
    assert {"read_update", "cas_update"} <= set(accesses)


@pytest.mark.parametrize("mode", ["indirect", "direct"])
def test_find_takes_two_gated_steps_per_level(mode):
    """find reads one child cell per level: the head read and the inline
    helping check, and no update word."""
    t = LeafBst(mode=mode)
    rng = random.Random(8)
    keys = rng.sample(range(1000), 200)
    for k in keys:
        t.insert(k)
    for key in keys[:20] + [1000, -1]:
        node, depth = t._root, 0
        while isinstance(node, BstInternal):
            node = (node.left if key < node.key else node.right).read()
            depth += 1
        with StepCounter() as steps:
            t.find(key)
        assert steps.count == 2 * depth


def _path_cells(t, key):
    """The child cells on ``key``'s path, root first."""
    cells, node = [], t._root
    while isinstance(node, BstInternal):
        cells.append(node.left if key < node.key else node.right)
        node = cells[-1].read()
    return cells


@pytest.mark.parametrize("mode", ["indirect", "direct"])
def test_search_takes_two_gated_steps_per_level_plus_six(mode):
    """The update search descends as find does, then reads gp's update
    word and re-reads gp's child (1 + 2 steps), and the same for p; reading
    every update word on the way down takes three steps per level."""
    t = LeafBst(mode=mode)
    rng = random.Random(8)
    keys = rng.sample(range(1000), 200)
    for k in keys:
        t.insert(k)
    for key in keys[:20] + [1000, -1]:
        depth = len(_path_cells(t, key))
        with StepCounter() as steps:
            t._search(key)
        assert steps.count == 2 * depth + 6


def test_tbd_heads_on_the_path_are_helped_by_find_and_updates():
    """A winner may pause between its swing and its init_ts, leaving a TBD
    head on a path.  The inline step follows only stamped heads: it must
    help a TBD one as VersionedCas.read does, on the upper levels too, where
    the update search reads no cell a second time."""
    rng = random.Random(12)
    t, ref = LeafBst(), SeqOrderedSet()
    for k in rng.sample(range(0, 1000, 2), 200):
        assert t.insert(k) == ref.step(("insert", k))
    for op, key in (("find", 500), ("find", 501), ("insert", 501),
                    ("insert", 777), ("delete", 500)):
        heads = [cell._head for cell in _path_cells(t, key)]
        assert len(heads) >= 4
        for record in heads:
            record.ts = TBD
        assert getattr(t, op)(key) == ref.step((op, key))
        assert all(record.ts != TBD for record in heads)
    assert t.range_query(0, 1000) == ref.step(("range", 0, 1000))


def test_search_restarts_when_the_leaf_moved_after_the_descent(monkeypatch):
    """An insert that lands under p between the descent and the read of
    p's update word swings p's child away from l.  The re-read of that child
    must see it and restart the search: a flag CAS against the update word
    read after that insert would succeed, and the outer insert's swing from
    the stale l would fail, returning True for a key that is missing."""
    t, ref = LeafBst(), SeqOrderedSet()
    for k in (10, 20, 30, 40):
        assert t.insert(k) == ref.step(("insert", k))
    nested = []
    read_update = BstInternal.read_update

    def inserts_on_first_read_of_p(node):
        if node is p and not nested:
            nested.append(26)
            assert t.insert(26) == ref.step(("insert", 26))
        return read_update(node)

    _, p, l = t._descend(25)
    assert t._descend(26)[2] is l                 # 26 lands on the same leaf
    monkeypatch.setattr(BstInternal, "read_update", inserts_on_first_read_of_p)
    assert t.insert(25) == ref.step(("insert", 25)) is True
    assert nested == [26]
    assert t.find(25) and t.find(26)
    assert t.range_query(0, 100) == ref.step(("range", 0, 100))


@pytest.mark.parametrize("mode", list(ARMED_BY))
def test_unarmed_descents_follow_stamped_heads_without_a_call(monkeypatch, mode):
    """On a stamped indirect tree with the gate unarmed, find, multisearch,
    the ordered walk and height follow every child cell inline.  Once
    instrumentation, poisoning or a step counter arms the gate, they call
    the cell method for every cell: find reads each cell on its path,
    multisearch calls read_snapshot once for each, the walk calls
    read_snapshot 2N times for N keys (N internals and N + 1 leaves below
    the root, less the pruned top sentinel leaf), and height 2N + 2 times
    (every cell, the root's two included).  Instrumented, each of those
    walk reads is in the hop histogram."""
    rng = random.Random(4)
    t = LeafBst()
    keys = sorted(rng.sample(range(1000), 300))
    for k in keys:
        t.insert(k)
    probes = keys[::7] + [1000]
    found = [True] * len(keys[::7]) + [False]
    path_reads = sum(len(_path_cells(t, k)) for k in probes)
    calls = []
    for name in ("read", "read_snapshot"):
        def counted(cell, *args, _name=name, _method=getattr(VersionedCas, name)):
            calls.append(_name)
            return _method(cell, *args)
        monkeypatch.setattr(VersionedCas, name, counted)
    answers = dict(zip(probes, found))
    assert [t.find(k) for k in probes] == found
    assert t.multisearch(probes) == answers
    assert t.range_query(0, 999) == keys
    height = t.height()
    assert calls == []
    with ARMED_BY[mode]():
        instrument.reset()
        assert [t.find(k) for k in probes] == found
        assert calls == ["read"] * path_reads
        calls.clear()
        assert t.multisearch(probes) == answers
        assert calls == ["read_snapshot"] * path_reads
        calls.clear()
        instrument.reset()
        assert t.range_query(0, 999) == keys
        assert calls == ["read_snapshot"] * (2 * len(keys))
        if mode == "instrument":
            assert sum(instrument.hop_histogram().values()) == 2 * len(keys)
        calls.clear()
        assert t.height() == height
        assert calls == ["read_snapshot"] * (2 * len(keys) + 2)


@pytest.mark.parametrize("mode", ["indirect", "direct", "plain"])
def test_user_key_operations_compare_no_bound(monkeypatch, mode):
    """A user key sorts below both sentinels, so find, insert, delete and
    multisearch pass the sentinel levels without comparing a bound (a
    Bound comparison is a Python call).  Emptying the tree and refilling it
    walks the root's left child through the INF1 leaf and back."""
    compared = []
    for name in ("__lt__", "__gt__", "__le__", "__ge__"):
        def counted(bound, other, _name=name, _method=getattr(Bound, name)):
            compared.append(_name)
            return _method(bound, other)
        monkeypatch.setattr(Bound, name, counted)
    rng = random.Random(17)
    t, ref = LeafBst(mode=mode), SeqOrderedSet()
    keys = rng.sample(range(300), 80)

    def run(op, *args):
        assert getattr(t, op)(*args) == ref.step((op, *args))

    for _ in range(2):
        for k in keys:
            run("insert", k)
        for k in rng.sample(range(-5, 305), 120):
            run(rng.choice(("find", "insert", "delete")), k)
        run("multisearch", rng.sample(range(-5, 305), 40))
        for k in rng.sample(range(-5, 305), 310):
            run("delete", k)
            run("find", k)
        run("multisearch", keys[:3] + [-1, 400])
        assert compared == []
    assert t.range_query(0, 300) == []


def test_recorded_once_holds_across_workload():
    from chronocas.vcas_direct import RecordedOnceError
    rng = random.Random(31)
    t = LeafBst(mode="direct")
    try:
        for _ in range(4000):
            k = rng.randint(0, 80)
            if rng.random() < 0.5:
                t.insert(k)
            else:
                t.delete(k)
    except RecordedOnceError as exc:
        pytest.fail(f"node published twice: {exc}")


@pytest.mark.parametrize("structure", ["bst", "bst-direct"])
def test_randomized_concurrent_windows_accepted(structure):
    report = stress(WorkloadConfig(structure=structure, prefill=4, threads=3,
                                   ins=30, delete=20, find=50, rq=0, seed=6),
                    windows=40)
    assert report.rejected == 0, report.first_witness
    assert report.accepted > 0


def test_poisoned_direct_windows_never_trap():
    """Criterion 6's poisoned stress on the direct build, whose freed nodes
    end version lists themselves: no operation may read one."""
    reclaim.enable_poisoning(True)
    report = stress(WorkloadConfig(structure="bst-direct", prefill=3,
                                   threads=4, seed=29),
                    windows=400, ops_per_window=3)
    assert report.passed, report.first_witness


@pytest.mark.parametrize("mode", ["indirect", "direct", "plain"])
def test_deep_tree_queries_match_oracle(mode):
    """Ascending inserts build a 2000-deep path; no query may recurse."""
    t, ref = LeafBst(mode=mode), SeqLeafBst(INF1, INF2)
    for k in range(1, 2001):
        assert t.insert(k) == ref.step(("insert", k))
    assert t.range_query(0, 3000) == ref.step(("range", 0, 3000))
    assert t.range_sum(500, 1500) == ref.step(("range_sum", 500, 1500))
    assert t.succ(1990, 5) == ref.step(("succ", 1990, 5))
    late = lambda k: k > 1998                         # noqa: E731
    assert t.find_if(0, 3000, late) == ref.step(("findif", 0, 3000, late)) == 1999
    assert t.multisearch([1, 2000, 2001]) == ref.step(("multisearch", [1, 2000, 2001]))
    assert t.find(2000) == ref.step(("find", 2000))
    assert t.height() == ref.step(("height",)) == 2000


@pytest.mark.parametrize("mode", ["indirect", "direct"])
def test_early_exit_queries_read_only_what_they_return(mode):
    """succ and a find_if whose first candidate matches stop the ordered
    walk once answered: their gated steps stay within a small multiple of
    the path length plus the keys returned, where collecting the interval
    first would read the cells of thousands of keys."""
    rng = random.Random(3)
    t = LeafBst(mode=mode)
    keys = rng.sample(range(4000), 2000)
    for k in keys:
        t.insert(k)
    bound = 4 * (t.height() + 3)
    for k in sorted(keys)[::97]:
        with StepCounter() as steps:
            assert len(t.succ(k, 3)) == 3
        assert steps.count <= bound
        with StepCounter() as steps:
            assert t.find_if(k, 4000, lambda _: True) == k
        assert steps.count <= bound


@pytest.mark.parametrize("mode", ["indirect", "direct"])
def test_held_handle_traversal_matches_the_cut(mode):
    """Updates pass a held handle, so one traversal mixes 0-hop reads of
    untouched cells with walks of updated ones; it must still return the
    keys at the cut."""
    instrument.enable(True)
    instrument.reset()
    rng = random.Random(31)
    t, ref = LeafBst(mode=mode), SeqOrderedSet()
    for k in rng.sample(range(1000), 400):
        assert t.insert(k) == ref.step(("insert", k))
    with t.epoch.pinned():
        h = t.epoch.snapshot(t.camera)
        cut = ref.copy()
        for _ in range(2000):
            op, k = rng.choice(("insert", "delete")), rng.randrange(1000)
            assert getattr(t, op)(k) == ref.step((op, k))
        assert ref.key() != cut.key()
        instrument.reset()
        for lo, hi in ((0, 999), (100, 350), (500, 501), (990, 2000)):
            assert list(t._keys(h, lo, hi)) == cut.step(("range", lo, hi))
        for k in range(0, 1000, 37):
            assert (t._descend(k, h)[2].key == k) == cut.step(("find", k))
        t.epoch.release_snapshot(h)
    hops = instrument.hop_histogram()
    assert hops.get(0) and max(hops) > 0     # 0-hop reads and walks
    assert instrument.violation_count() == 0


def test_plain_mode_baseline_works():
    t = LeafBst(mode="plain")
    for k in (4, 2, 9):
        t.insert(k)
    assert t.find(4) and not t.find(3)
    assert t.range_query(0, 10) == [2, 4, 9]
    assert t.delete(2)
