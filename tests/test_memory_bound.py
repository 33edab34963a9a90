"""Reclamation keeps reachable history flat however long the run.

Freed version records cut their version links, so each cell keeps only its
unfreed versions, and hold nothing else: the freed record that ends a
cell's list keeps neither a value nor a subtree alive, so once every limbo
bag is freed exactly the live nodes are reachable.  With instrumentation
on, each cell's step-bound log drops its freed prefix too.  Companion to
acceptance criterion 6, which checks the retired-record counter rather than
the memory actually reachable.
"""

import gc
import random
import tracemalloc

import pytest

from chronocas import (INVALID_NEXTV, TBD, AtomicCell, HarrisList, LeafBst,
                       MsQueue, instrument)
from chronocas.bst import BstInternal, BstLeaf
from chronocas.harris_list import ListNode
from chronocas.msqueue import QueueNode
from chronocas.vcas import VersionedPointer, VersionRecord, VNode
from chronocas.vcas_direct import Versionable

SHORT, LONG = 5_000, 20_000


def _objects(root):
    """Every object reachable from ``root`` through chronocas objects and
    plain containers (limbo bags and step-bound logs included)."""
    containers = (list, tuple, dict, set)
    seen, todo = {id(root)}, [root]
    while todo:
        obj = todo.pop()
        yield obj
        for ref in gc.get_referents(obj):
            kind = type(ref)
            if id(ref) in seen or not (kind in containers
                                       or kind.__module__.startswith("chronocas")):
                continue
            seen.add(id(ref))
            todo.append(ref)


def _reachable(root, cls) -> int:
    """Instances of ``cls`` reachable from ``root``, as :func:`_objects`."""
    return sum(isinstance(obj, cls) for obj in _objects(root))


def _queue(rounds):
    q = MsQueue()
    for i in range(rounds):
        q.enqueue(i)
        q.dequeue()
    return q


def _list(rounds):
    lst = HarrisList()
    for _ in range(rounds):
        lst.insert(5)
        lst.delete(5)
    return lst


def _bst(mode):
    def run(rounds):
        rng = random.Random(1)
        tree = LeafBst(mode=mode)
        for k in range(0, 400, 2):
            tree.insert(k)
        for _ in range(rounds):
            k = rng.randrange(400)
            if rng.random() < 0.5:
                tree.insert(k)
            else:
                tree.delete(k)
        return tree
    return run


CASES = {
    "queue": (_queue, VNode),
    "list": (_list, VNode),
    "bst-indirect": (_bst("indirect"), VNode),
    "bst-direct": (_bst("direct"), Versionable),
}


@pytest.mark.parametrize("instrumented", [False, True],
                         ids=["plain", "instrumented"])
@pytest.mark.parametrize("case", list(CASES))
def test_history_stays_flat(case, instrumented):
    build, record_cls = CASES[case]
    instrument.enable(instrumented)
    counts, sizes = [], []
    for rounds in (SHORT, LONG):
        gc.collect()
        tracemalloc.start()
        try:
            structure = build(rounds)
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        counts.append(_reachable(structure, record_cls))
        del structure
    assert counts[1] <= 2 * counts[0] + 100, counts
    assert sizes[1] <= 2 * sizes[0] + 64 * 1024, sizes
    assert instrument.violation_count() == 0, instrument.violations()


def _freed(record) -> bool:
    """Reclamation cut this version record's link.  A direct node that no
    cell holds yet (the BST root) carries the same link, but no stamp."""
    return record.nextv is INVALID_NEXTV and record.ts != TBD


def _set_churn(make):
    def run(rounds):
        rng = random.Random(3)
        structure = make()
        for _ in range(rounds):
            k = rng.randrange(100)
            if rng.random() < 0.5:
                structure.insert(k)
            else:
                structure.delete(k)
        return structure
    return run


def _long_queue(rounds):
    q = MsQueue()
    for i in range(50):
        q.enqueue(i)
    for i in range(rounds):
        q.enqueue(i)
        q.dequeue()
    return q


KEEP_NOTHING = {
    "bst-indirect": _bst("indirect"),
    "bst-direct": _bst("direct"),
    "list": _set_churn(HarrisList),
    "queue": _long_queue,
}


def _live_nodes(structure) -> dict:
    """Each node class with the count the current state needs: one node per
    key plus the sentinels, or the queue's dummy."""
    if isinstance(structure, LeafBst):
        n = len(structure.range_query(-1, 400))
        return {BstInternal: n + 1, BstLeaf: n + 2}
    if isinstance(structure, HarrisList):
        return {ListNode: len(structure.range_query(-1, 400)) + 2}
    return {QueueNode: len(structure.scan()) + 1}


@pytest.mark.parametrize("case", list(KEEP_NOTHING))
def test_freed_records_keep_nothing_alive(case):
    """With every limbo bag freed, the only freed records still reachable
    are the ones ending a cell's list, and they hold no value, cell or
    subtree: the reachable nodes are exactly the live ones."""
    structure = KEEP_NOTHING[case](3_000)
    mgr = structure.epoch
    for _ in range(3):
        mgr.try_advance_epoch()
    mgr.collect()
    assert mgr.live_retired == 0
    live = _live_nodes(structure)
    reached = dict.fromkeys(live, 0)
    holders = []
    for obj in _objects(structure):
        freed = isinstance(obj, VersionRecord) and _freed(obj)
        # a direct node's ``val`` is the node itself, which holds nothing
        if freed and any(getattr(obj, name, None) not in (None, obj)
                         for name in ("val", "left", "right", "_value")):
            holders.append(obj)
        if type(obj) in reached and not freed:
            reached[type(obj)] += 1
    assert not holders, f"{len(holders)} freed records hold something"
    assert reached == live


# Traced bytes per key after 10k random inserts, key list included; set
# between a lock per cell word (about 987 / 850 / 715) and one shared lock
# table (about 707 / 570 / 451).
BYTES_PER_KEY = {"indirect": 850, "direct": 710, "plain": 580}


@pytest.mark.parametrize("mode", list(BYTES_PER_KEY))
def test_bytes_per_key_bounded(mode):
    gc.collect()
    tracemalloc.start()
    try:
        rng = random.Random(1)
        keys = [rng.randrange(1 << 30) for _ in range(10_000)]
        tree = LeafBst(mode=mode)
        for k in keys:
            tree.insert(k)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size / len(keys) < BYTES_PER_KEY[mode], size / len(keys)


def _traced_bytes_per_key(build, n: int) -> float:
    """Traced bytes per key after ``n`` random inserts into ``build()``, key
    list included."""
    gc.collect()
    tracemalloc.start()
    try:
        rng = random.Random(1)
        keys = [rng.randrange(1 << 30) for _ in range(n)]
        structure = build()
        for k in keys:
            structure.insert(k)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size / n


# Each build with its key count and a bound set between a node paired with a
# separate cell word (a tree's update word, a list node's next cell: about
# 683 / 562 / 427 / 332) and a node that is its own word (about 643 / 522 /
# 387 / 292).  The list, whose inserts walk it, takes fewer keys.
OWN_WORD_BYTES_PER_KEY = {
    "indirect": (lambda: LeafBst(mode="indirect"), 10_000, 663),
    "direct": (lambda: LeafBst(mode="direct"), 10_000, 542),
    "plain": (lambda: LeafBst(mode="plain"), 10_000, 407),
    "list": (HarrisList, 5_000, 312),
}


@pytest.mark.parametrize("build", list(OWN_WORD_BYTES_PER_KEY))
def test_a_node_is_its_own_cell_word(build):
    factory, n, bound = OWN_WORD_BYTES_PER_KEY[build]
    per_key = _traced_bytes_per_key(factory, n)
    assert per_key < bound, per_key


class _Queue(MsQueue):
    insert = MsQueue.enqueue


# Each build as above, and the queue, with a bound set between records that
# carry a separate poisoned flag (about 643 / 522 / 387 / 292 / 104) and
# records known to be poisoned by their trapped key or link alone (about
# 603 / 498 / 371 / 272 / 96).
NO_FLAG_BYTES_PER_KEY = {
    "indirect": (lambda: LeafBst(mode="indirect"), 10_000, 623),
    "direct": (lambda: LeafBst(mode="direct"), 10_000, 510),
    "plain": (lambda: LeafBst(mode="plain"), 10_000, 379),
    "list": (HarrisList, 5_000, 282),
    "queue": (_Queue, 10_000, 100),
}


@pytest.mark.parametrize("build", list(NO_FLAG_BYTES_PER_KEY))
def test_records_carry_no_poison_flag(build):
    factory, n, bound = NO_FLAG_BYTES_PER_KEY[build]
    per_key = _traced_bytes_per_key(factory, n)
    assert per_key < bound, per_key


@pytest.mark.parametrize("mode", ["indirect", "direct", "plain"])
def test_cells_share_one_lock_table(mode):
    """Every cell word takes its lock from one fixed table, so a 2,000-key
    tree (about 6,000 cell words: two child cells per internal node and the
    node itself, its own update word) references at most 256 locks."""
    rng = random.Random(2)
    tree = LeafBst(mode=mode)
    for k in rng.sample(range(100_000), 2_000):
        tree.insert(k)
    words = [obj for obj in _objects(tree)
             if isinstance(obj, (AtomicCell, VersionedPointer, BstInternal))]
    assert len(words) > 6_000
    assert len({id(word._lock) for word in words}) <= 256


# Traced bytes per element after 10k enqueues, keys included; set between a
# node with its own next-link cell (about 139) and a node that is its own
# next link (about 99).
QUEUE_BYTES_PER_ELEMENT = 120


def test_queue_bytes_per_element_bounded():
    n = 10_000
    gc.collect()
    tracemalloc.start()
    try:
        q = MsQueue()
        for i in range(n):
            q.enqueue(i)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size / n < QUEUE_BYTES_PER_ELEMENT, size / n
