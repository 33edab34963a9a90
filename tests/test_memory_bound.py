"""Reclamation keeps reachable history flat however long the run.

Freed version records cut their version links, so each cell keeps only its
unfreed versions; with instrumentation on, each cell's step-bound log drops
its freed prefix too.  Companion to acceptance criterion 6, which checks the
retired-record counter rather than the memory actually reachable.
"""

import gc
import random
import tracemalloc

import pytest

from chronocas import HarrisList, LeafBst, MsQueue, instrument
from chronocas.vcas import VNode
from chronocas.vcas_direct import Versionable

SHORT, LONG = 5_000, 20_000


def _reachable(root, cls) -> int:
    """Instances of ``cls`` reachable from ``root`` through chronocas objects
    and plain containers (limbo bags and step-bound logs included)."""
    containers = (list, tuple, dict, set)
    seen, todo, count = {id(root)}, [root], 0
    while todo:
        obj = todo.pop()
        if isinstance(obj, cls):
            count += 1
        for ref in gc.get_referents(obj):
            kind = type(ref)
            if id(ref) in seen or not (kind in containers
                                       or kind.__module__.startswith("chronocas")):
                continue
            seen.add(id(ref))
            todo.append(ref)
    return count


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
