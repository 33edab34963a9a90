import threading

import pytest

from chronocas.atomic import AtomicCell
from chronocas.lincheck import (CheckBoundsError, History, OpRecord,
                                Recorder, RecorderError, check_linearizable,
                                explore)
from chronocas.oracle import SeqOrderedSet, SeqQueue, SeqVcas, replay


def _rec(idx, tid, kind, args, result, inv, resp):
    return OpRecord(idx, tid, kind, args, result, inv, resp)


# -- recorder -----------------------------------------------------------------

def test_single_thread_program_order():
    rec = Recorder()
    rec.run(0, "enqueue", (1,), lambda: None)
    rec.run(0, "enqueue", (2,), lambda: None)
    rec.run(0, "dequeue", (), lambda: 1)
    h = rec.history()
    assert [r.kind for r in h.records] == ["enqueue", "enqueue", "dequeue"]
    assert all(a.response_seq < b.invoke_seq
               for a, b in zip(h.records, h.records[1:]))


def test_two_threads_disjoint_real_time_order():
    rec = Recorder()
    rec.run(0, "enqueue", (1,), lambda: None)
    rec.run(1, "dequeue", (), lambda: 1)
    h = rec.history()
    first, second = h.records
    assert first.response_seq < second.invoke_seq


def test_pending_op_retained():
    rec = Recorder()
    rec.invoke(0, "enqueue", (9,))
    h = rec.history()
    assert len(h.pending()) == 1


def test_malformed_alternation_diagnosed():
    bad = History([_rec(0, 0, "a", (), None, 1, 5),
                   _rec(1, 0, "b", (), None, 3, 7)])
    with pytest.raises(RecorderError):
        bad.validate()


# -- checker ------------------------------------------------------------------

def test_sequential_history_accepted():
    rec = Recorder()
    rec.run(0, "enqueue", (3,), lambda: None)
    rec.run(0, "enqueue", (10,), lambda: None)
    rec.run(0, "scan", (), lambda: [3, 10])
    rec.run(0, "dequeue", (), lambda: 3)
    v = check_linearizable(rec.history(), SeqQueue())
    assert v.accepted


def test_snapshot_read_after_snapshot_response_rejected():
    """A snapshot read returning a value committed by a cas that began
    after the snapshot responded cannot be linearized."""
    h = History([
        _rec(0, 0, "snapshot", (), 0, 1, 2),
        _rec(1, 0, "vcas", ("A", "B"), True, 3, 4),
        _rec(2, 0, "readsnapshot", (0,), "B", 5, 6),
    ])
    h.validate()
    v = check_linearizable(h, SeqVcas.create("A"))
    assert v.rejected
    assert "no linearization" in v.witness


def test_two_overlapping_cas_same_old_both_true_rejected():
    h = History([
        _rec(0, 0, "vcas", ("A", "B"), True, 1, 4),
        _rec(1, 1, "vcas", ("A", "C"), True, 2, 3),
    ])
    h.validate()
    assert check_linearizable(h, SeqVcas.create("A")).rejected


def test_equal_handles_allowed_without_intervening_commit():
    h = History([
        _rec(0, 0, "snapshot", (), 5, 1, 2),
        _rec(1, 1, "snapshot", (), 5, 1, 2),
        _rec(2, 0, "readsnapshot", (5,), "A", 3, 4),
    ])
    h.records[1].invoke_seq = 1
    h.validate()
    assert check_linearizable(h, SeqVcas.create("A")).accepted


def test_equal_handles_with_commit_between_rejected():
    # both snapshots return 5, but the read proves a commit sits between them
    h = History([
        _rec(0, 0, "snapshot", (), 5, 1, 2),
        _rec(1, 0, "vcas", ("A", "B"), True, 3, 4),
        _rec(2, 0, "snapshot", (), 5, 5, 6),
        _rec(3, 0, "readsnapshot", (5,), "A", 7, 8),
        _rec(4, 1, "readsnapshot", (5,), "B", 7, 8),
    ])
    h.validate()
    assert check_linearizable(h, SeqVcas.create("A")).rejected


def test_pending_update_may_be_linearized():
    rec = Recorder()
    rec.invoke(1, "enqueue", (7,))          # never responds
    rec.run(0, "dequeue", (), lambda: 7)    # observes its effect
    v = check_linearizable(rec.history(), SeqQueue())
    assert v.accepted


def test_pending_update_may_be_dropped():
    rec = Recorder()
    rec.invoke(1, "insert", (7,))
    rec.run(0, "contains", (7,), lambda: False)
    assert check_linearizable(rec.history(), SeqOrderedSet()).accepted


def test_size_bound_refused():
    rec = Recorder()
    for i in range(30):
        rec.run(0, "enqueue", (i,), lambda: None)
    with pytest.raises(CheckBoundsError):
        check_linearizable(rec.history(), SeqQueue())


def test_budget_exhaustion_is_inconclusive_not_pass():
    rec = Recorder()
    for i in range(10):
        rec.run(i % 8, "enqueue", (i,), lambda: None)
    v = check_linearizable(rec.history(), SeqQueue(), step_budget=3)
    assert v.status == "inconclusive"
    assert not v.accepted


def test_pruned_and_unpruned_agree_on_small_histories():
    import random
    rng = random.Random(5)
    for trial in range(40):
        items: list = []
        rec = Recorder()
        # two "threads" with manually interleaved intervals
        seqs = sorted(rng.sample(range(1, 100), 8))
        records = []
        t0 = [seqs[0], seqs[2]]
        t1 = [seqs[1], seqs[3]]
        records.append(_rec(0, 0, "insert", (1,), True, t0[0], t0[1]))
        records.append(_rec(1, 1, "insert", (1,), rng.random() < 0.5,
                            t1[0], t1[1]))
        records.append(_rec(2, 0, "contains", (1,), rng.random() < 0.5,
                            seqs[4], seqs[5]))
        records.append(_rec(3, 1, "delete", (1,), rng.random() < 0.5,
                            seqs[6], seqs[7]))
        h = History(records)
        h.validate()
        spec = SeqOrderedSet()
        a = check_linearizable(h, spec, memoize=True)
        b = check_linearizable(h, spec, memoize=False)
        assert a.status == b.status, h.describe()


def test_rejection_witness_reverified_without_pruning():
    h = History([
        _rec(0, 0, "vcas", ("A", "B"), True, 1, 4),
        _rec(1, 1, "vcas", ("A", "C"), True, 2, 3),
    ])
    h.validate()
    spec = SeqVcas.create("A")
    assert check_linearizable(h, spec, memoize=False).rejected


# -- checker against replay ------------------------------------------------------

def _vcas_ops(rng):
    ops, issued = [], 0
    for _ in range(20):
        roll = rng.random()
        if roll < 0.4:
            ops.append(("vcas", rng.randrange(3), rng.randrange(3)))
        elif roll < 0.6:
            ops.append(("snapshot",))
            issued += 1
        elif roll < 0.8 and issued:
            ops.append(("readsnapshot", rng.randrange(issued)))
        else:
            ops.append(("vread",))
    return ops


def _queue_ops(rng):
    ops, issued = [], 0
    for _ in range(20):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("enqueue", rng.randrange(5)))
        elif roll < 0.6:
            ops.append(("dequeue",))
        elif roll < 0.7:
            ops.append(("snapshot",))
            issued += 1
        elif roll < 0.8 and issued:
            ops.append(("scan", rng.randrange(issued)))
        else:
            ops.append(rng.choice([("scan",), ("peek",),
                                   ("ith", rng.randint(1, 3))]))
    return ops


def _set_ops(rng):
    ops = []
    for _ in range(20):
        k = rng.randrange(6)
        ops.append(rng.choice([("insert", k), ("delete", k), ("contains", k),
                               ("range", k, k + rng.randrange(3)),
                               ("succ", k, rng.randint(1, 2)),
                               ("ith", rng.randint(1, 3))]))
    return ops


def _sequential(ops, results):
    rec = Recorder()
    for op, result in zip(ops, results):
        rec.run(0, op[0], op[1:], lambda result=result: result)
    return rec.history()


@pytest.mark.parametrize("make,gen", [
    (lambda: SeqVcas.create(0), _vcas_ops),
    (lambda: SeqQueue(("a",)), _queue_ops),
    (lambda: SeqOrderedSet((1, 3)), _set_ops),
], ids=["vcas", "queue", "set"])
def test_checker_agrees_with_replay(make, gen):
    """A sequential history whose results come from replay is accepted, one
    altered result gets it rejected, and the spec passed in never moves."""
    import random
    rng = random.Random(3)
    wrong = object()
    for _ in range(30):
        ops = gen(rng)
        results = replay(make(), ops)
        spec = make()
        before = spec.key()
        assert check_linearizable(_sequential(ops, results), spec).accepted
        assert spec.key() == before
        replay(spec.copy(), ops)
        assert spec.key() == before
        i = rng.choice([j for j, op in enumerate(ops) if op[0] != "snapshot"])
        results[i] = wrong
        assert check_linearizable(_sequential(ops, results), make()).rejected


# -- explorer ------------------------------------------------------------------

def _counting_program(threads, accesses):
    def make():
        cell = AtomicCell(0)
        rec = Recorder()
        bodies = []
        for i in range(threads):
            def body(i=i):
                for _ in range(accesses):
                    cell.read()
            bodies.append(body)
        return bodies, rec.history
    return make


def test_single_thread_single_schedule():
    assert explore(_counting_program(1, 3)).runs == 1


def test_two_threads_one_access_two_schedules():
    assert explore(_counting_program(2, 1)).runs == 2


def test_two_threads_two_accesses_six_schedules():
    res = explore(_counting_program(2, 2))
    assert res.runs == 6
    assert len(set(res.schedules)) == 6


def test_explore_budget_reports_incomplete():
    res = explore(_counting_program(3, 3), max_runs=5)
    assert not res.complete
    assert res.runs == 5


def test_explore_sampled_mode():
    res = explore(_counting_program(2, 3), sample=10, seed=1)
    assert res.runs == 10
    assert not res.complete


def test_explore_reproduces_real_time_order():
    def make():
        cell = AtomicCell(0)
        rec = Recorder()

        def a():
            rec.run(0, "read", (), cell.read)

        def b():
            rec.run(1, "read", (), cell.read)
        return [a, b], rec.history

    for hist in explore(make).histories:
        hist.validate()
        assert len(hist.records) == 2
