"""Both ordered sets answer one query set (``chronocas.ordered``); every
build must give the answers of the one sequential spec."""

import random

import pytest

from chronocas import NEG_INF, POS_INF, HarrisList, LeafBst
from chronocas.bst import INF1, INF2
from chronocas.oracle import SeqOrderedSet

BUILDS = {
    "list": HarrisList,
    "indirect": lambda: LeafBst(mode="indirect"),
    "direct": lambda: LeafBst(mode="direct"),
    "plain": lambda: LeafBst(mode="plain"),
}


@pytest.fixture(params=list(BUILDS))
def ordered_set(request):
    return BUILDS[request.param]()


def test_queries_match_the_spec(ordered_set):
    s, ref = ordered_set, SeqOrderedSet()
    rng = random.Random(17)
    for _ in range(1500):
        roll, k = rng.random(), rng.randint(0, 80)
        if roll < 0.3:
            assert s.insert(k) == ref.step(("insert", k))
        elif roll < 0.5:
            assert s.delete(k) == ref.step(("delete", k))
        elif roll < 0.6:
            e = k + rng.randint(0, 30)
            assert s.range_query(k, e) == ref.step(("range", k, e))
        elif roll < 0.68:
            e = k + rng.randint(0, 30)
            assert s.range_sum(k, e) == ref.step(("range_sum", k, e))
        elif roll < 0.76:
            c = rng.randint(1, 5)
            assert s.succ(k, c) == ref.step(("succ", k, c))
        elif roll < 0.84:
            e, m = k + rng.randint(0, 30), rng.randint(2, 7)
            pred = lambda x, m=m: x % m == 0
            assert s.find_if(k, e, pred) == ref.step(("findif", k, e, pred))
        elif roll < 0.92:
            i = rng.randint(1, len(ref.keys) + 3)
            assert s.ith(i) == ref.step(("ith", i))
        else:
            ks = [rng.randint(0, 80) for _ in range(rng.randint(0, 4))]
            assert s.multisearch(ks) == ref.step(("multisearch", ks))


def test_query_edges(ordered_set):
    s = ordered_set
    for k in (2, 4, 6):
        s.insert(k)
    assert s.ith(3) == 6 and s.ith(4) is None
    assert s.succ(6, 2) == [] and s.succ(5, 2) == [6]
    assert s.find_if(0, 10, lambda k: k > 6) is None
    assert s.range_sum(0, 10) == 12
    with pytest.raises(ValueError):
        s.range_query(3, 2)
    with pytest.raises(ValueError):
        s.range_sum(3, 2)
    with pytest.raises(ValueError):
        s.find_if(3, 2, lambda k: True)
    with pytest.raises(ValueError):
        s.succ(2, 0)
    with pytest.raises(ValueError):
        s.ith(0)


def test_intervals_end_only_at_the_outer_bounds(ordered_set):
    """``NEG_INF`` and ``POS_INF`` may end an interval; the tree's routing
    bounds may not, since a walk up to one yields a sentinel's key."""
    s = ordered_set
    for k in (1, 5, 9):
        s.insert(k)
    for bound in (INF1, INF2):
        for query in (lambda: s.range_query(1, bound),
                      lambda: s.range_query(bound, bound),
                      lambda: s.range_sum(1, bound),
                      lambda: s.find_if(10, bound, lambda k: True),
                      lambda: s.succ(bound, 1)):
            with pytest.raises(ValueError):
                query()
    assert s.range_query(1, POS_INF) == [1, 5, 9]
    assert s.range_query(NEG_INF, POS_INF) == [1, 5, 9]
    assert s.range_sum(NEG_INF, POS_INF) == 15
    assert s.find_if(10, POS_INF, lambda k: True) is None
    assert s.succ(NEG_INF, 2) == [1, 5] and s.succ(POS_INF, 1) == []
