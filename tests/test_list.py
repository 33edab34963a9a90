import random
import threading
import time

import pytest

from chronocas import NEG_INF, POS_INF, HarrisList, LeafBst
from chronocas.bench import WorkloadConfig, stress
from chronocas.bst import INF1, INF2
from chronocas.oracle import SeqOrderedSet


def test_insert_and_contains():
    l = HarrisList()
    assert l.insert(5) is True
    assert l.contains(5) is True
    assert l.insert(5) is False


def test_delete_twice():
    l = HarrisList()
    l.insert(5)
    assert l.delete(5) is True
    assert l.delete(5) is False
    assert l.contains(5) is False


def test_range_and_multisearch_and_ith():
    l = HarrisList()
    for k in (1, 5, 9):
        l.insert(k)
    assert l.range_query(2, 9) == [5, 9]
    assert l.multisearch([5, 7]) == {5: True, 7: False}
    assert l.multisearch([]) == {}
    assert l.multisearch([9, 5, 9, 5]) == {5: True, 9: True}
    assert l.ith(1) == 1
    assert l.ith(3) == 9
    assert l.ith(4) is None
    with pytest.raises(ValueError):
        l.range_query(9, 2)
    with pytest.raises(ValueError):
        l.ith(0)


@pytest.mark.parametrize("make, lookup", [(HarrisList, "contains"),
                                          (LeafBst, "find")],
                         ids=["list", "bst"])
def test_bound_keys_rejected(make, lookup):
    """No operation takes a sentinel's key: a delete of the list's POS_INF
    would unlink its tail, and an insert of NEG_INF would show as a key.
    multisearch checks every key before it takes its snapshot."""
    s = make()
    for k in (1, 5, 9):
        s.insert(k)
    cut = s.camera.peek_timestamp()
    for bound in (NEG_INF, POS_INF, INF1, INF2):
        for op in (s.insert, s.delete, getattr(s, lookup),
                   lambda b: s.multisearch([3, b])):
            with pytest.raises(ValueError):
                op(bound)
    assert s.camera.peek_timestamp() == cut
    assert s.range_query(0, 10) == [1, 5, 9]
    assert s.ith(1) == 1 and s.ith(4) is None
    assert s.insert(3) and s.delete(9) and getattr(s, lookup)(5)
    assert s.range_query(0, 10) == [1, 3, 5]


def _node_with_key(l, key):
    node = l.head.next.read()[0]
    while node.key < key:
        node = node.next.read()[0]
    assert node.key == key
    return node


def test_get_next_skips_marked_at_cut():
    """node -> marked m -> unmarked u resolves to u; a mark set before the
    cut hides the node even though it is still physically linked."""
    l = HarrisList()
    for k in (1, 2, 3):
        l.insert(k)
    n1, n2 = _node_with_key(l, 1), _node_with_key(l, 2)
    succ, marked = n2.next.read()
    assert not marked
    assert n2.next.cas((succ, False), (succ, True))   # mark without unlinking
    with l.epoch.query(l.camera) as h:
        assert l.get_next(n1, h).key == 3


def test_get_next_unmarked_successor():
    l = HarrisList()
    for k in (1, 2):
        l.insert(k)
    n1 = _node_with_key(l, 1)
    with l.epoch.query(l.camera) as h:
        assert l.get_next(n1, h).key == 2


def test_get_next_all_marked_reaches_sentinel():
    l = HarrisList()
    for k in (1, 2, 3):
        l.insert(k)
    for k in (2, 3):
        node = _node_with_key(l, k)
        succ, m = node.next.read()
        assert node.next.cas((succ, False), (succ, True))
    n1 = _node_with_key(l, 1)
    with l.epoch.query(l.camera) as h:
        assert l.get_next(n1, h) is l.tail


def test_sequential_replay_matches_oracle():
    rng = random.Random(3)
    l = HarrisList()
    ref = SeqOrderedSet()
    for _ in range(2000):
        roll = rng.random()
        k = rng.randint(0, 60)
        if roll < 0.35:
            assert l.insert(k) == ref.step(("insert", k))
        elif roll < 0.6:
            assert l.delete(k) == ref.step(("delete", k))
        elif roll < 0.75:
            assert l.contains(k) == ref.step(("contains", k))
        elif roll < 0.85:
            s = rng.randint(0, 50)
            assert l.range_query(s, s + 10) == ref.step(("range", s, s + 10))
        elif roll < 0.95:
            ks = [rng.randint(0, 60) for _ in range(3)]
            assert l.multisearch(ks) == ref.step(("multisearch", ks))
        else:
            i = rng.randint(1, 8)
            assert l.ith(i) == ref.step(("ith", i))


def test_randomized_concurrent_windows_accepted():
    report = stress(WorkloadConfig(structure="list", prefill=4, threads=3,
                                   ins=30, delete=20, find=50, rq=0, seed=8),
                    windows=40)
    assert report.rejected == 0, report.first_witness
    assert report.accepted > 0


def test_queries_never_report_marked_keys():
    """Concurrent deleters racing a query thread: results only ever shrink
    consistently; no result contains a key whose delete already responded
    before the query began."""
    l = HarrisList()
    keys = list(range(100))
    for k in keys:
        l.insert(k)
    deleted: list[int] = []
    done = threading.Event()

    def deleter():
        rng = random.Random(4)
        order = keys[:]
        rng.shuffle(order)
        for k in order:
            l.delete(k)
            deleted.append(k)
        done.set()

    t = threading.Thread(target=deleter)
    t.start()
    violations = []
    while not done.is_set():
        gone_before = set(deleted)        # deletes completed before the query
        got = set(l.range_query(0, 99))
        leaked = gone_before & got
        if leaked:
            violations.append(leaked)
    t.join()
    assert l.range_query(0, 99) == []
    assert not violations


def test_paired_key_atomicity_short():
    """Keys 2k and 2k+1 are always updated consecutively by one thread;
    a range spanning the pair may see a mixed state only while the pair is
    mid-update (checked by event-interval overlap)."""
    from chronocas.lincheck import Recorder
    l = HarrisList()
    clock = Recorder()
    pairs = list(range(0, 40, 2))
    intervals: dict[int, list] = {p: [] for p in pairs}
    stop = threading.Event()

    def updater():
        rng = random.Random(9)
        present: set[int] = set()
        while not stop.is_set():
            p = rng.choice(pairs)
            t0 = clock.next_seq()
            if p in present:
                l.delete(p)
                l.delete(p + 1)
                present.discard(p)
            else:
                l.insert(p)
                l.insert(p + 1)
                present.add(p)
            intervals[p].append((t0, clock.next_seq()))

    suspicious = []

    def querier():
        rng = random.Random(10)
        while not stop.is_set():
            p = rng.choice(pairs)
            q0 = clock.next_seq()
            got = l.range_query(p, p + 1)
            q1 = clock.next_seq()
            if len(got) == 1:
                suspicious.append((p, q0, q1))

    threads = [threading.Thread(target=updater),
               threading.Thread(target=querier)]
    for t in threads:
        t.start()
    time.sleep(1.0)
    stop.set()
    for t in threads:
        t.join()
    for p, q0, q1 in suspicious:
        assert any(t0 <= q1 and q0 <= t1 for t0, t1 in intervals[p]), \
            f"pair {p} seen mixed outside any update window"
