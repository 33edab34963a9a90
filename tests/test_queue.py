import random

import pytest

from chronocas import MsQueue
from chronocas import instrument
from chronocas.bench import WorkloadConfig, stress
from chronocas.oracle import SeqQueue


def test_enqueue_dequeue_roundtrip():
    q = MsQueue()
    q.enqueue(3)
    assert q.dequeue() == 3


def test_fifo_order_and_scan():
    q = MsQueue()
    q.enqueue(3)
    q.enqueue(10)
    assert q.scan() == [3, 10]
    assert q.dequeue() == 3
    assert q.dequeue() == 10
    assert q.dequeue() is None


def test_empty_queue_queries():
    q = MsQueue()
    assert q.dequeue() is None
    assert q.peek_endpoints() == (None, None)
    assert q.scan() == []
    assert q.ith(1) is None


def test_peek_endpoints():
    q = MsQueue()
    q.enqueue(3)
    q.enqueue(10)
    assert q.peek_endpoints() == (3, 10)


def test_ith_examples():
    q = MsQueue()
    q.enqueue(3)
    q.enqueue(10)
    assert q.ith(2) == 10
    assert q.ith(5) is None
    with pytest.raises(ValueError):
        q.ith(0)


def test_worked_scan_at_old_handle():
    """The paper-derived scenario: two enqueues, a snapshot, then another
    enqueue and a dequeue; scanning at the old handle still yields [3, 10]."""
    q = MsQueue()
    q.enqueue(3)
    q.enqueue(10)
    guard = q.epoch.pin()
    h = q.epoch.snapshot(q.camera)
    q.enqueue(10)
    assert q.dequeue() == 3
    assert q.scan(at=h) == [3, 10]
    q.epoch.release_snapshot(h)
    q.epoch.unpin(guard)
    assert q.scan() == [10, 10]


def _random_history(q, ref, seed, steps):
    rng = random.Random(seed)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            k = rng.randint(0, 99)
            q.enqueue(k)
            ref.step(("enqueue", k))
        elif roll < 0.7:
            assert q.dequeue() == ref.step(("dequeue",))
        elif roll < 0.8:
            assert q.scan() == ref.step(("scan",))
        elif roll < 0.9:
            assert q.peek_endpoints() == ref.step(("peek",))
        else:
            i = rng.randint(1, 5)
            assert q.ith(i) == ref.step(("ith", i))


def test_sequential_replay_matches_oracle():
    _random_history(MsQueue(), SeqQueue(), seed=11, steps=1500)


def test_safe_field_build_equivalent_to_versioned():
    """With L2 linearization the next links are safe to leave unversioned;
    identical seeded histories give identical results."""
    _random_history(MsQueue(versioned_next=False), SeqQueue(), seed=11,
                    steps=1500)


def test_next_links_written_at_most_once():
    instrument.enable(True)
    instrument.reset()
    try:
        q = MsQueue()
        for i in range(200):
            q.enqueue(i)
        for _ in range(100):
            q.dequeue()
        assert instrument.violation_count() == 0
    finally:
        instrument.enable(False)


def test_concurrent_windows_accepted():
    report = stress(WorkloadConfig(structure="queue", prefill=2, threads=3,
                                   ins=30, delete=20, find=50, rq=0, seed=5),
                    windows=40)
    assert report.rejected == 0, report.first_witness
    assert report.accepted > 0


def test_snapshot_is_load_bearing_for_peek():
    """Negative control: endpoints read without a common cut produce a pair
    that never coexisted under an adversarial schedule; the snapshot-based
    peek survives the same schedule."""
    from chronocas.lincheck import Recorder, check_linearizable, run_schedule

    def make():
        q = MsQueue()
        q.enqueue("a")
        q.enqueue("b")
        rec = Recorder()

        def t1():
            rec.run(1, "dequeue", (), q.dequeue)
            rec.run(1, "enqueue", ("c",), lambda: q.enqueue("c"))

        def t2():
            rec.run(2, "peek", (), q.peek_endpoints)
        return [t1, t2], rec.history

    spec = SeqQueue(("a", "b"))

    def broken_peek(self):
        with self.epoch.pinned():
            head = self._head.read()
            tail = self._tail.read()
            if head is tail:
                return (None, None)
            first = head.next.read()
            return (first.key, tail.key)

    orig = MsQueue.peek_endpoints
    MsQueue.peek_endpoints = broken_peek
    try:
        # t2 performs its first access (the head read), then t1 runs to
        # completion, then t2 finishes against a moved tail.
        _, _, hist = run_schedule(make, prefix=(1, 1))
        assert check_linearizable(hist, spec).rejected
    finally:
        MsQueue.peek_endpoints = orig
    _, _, hist = run_schedule(make, prefix=(1, 1))
    assert check_linearizable(hist, spec).accepted


def test_ith_step_bound_under_concurrent_dequeues():
    import threading
    instrument.enable(True)
    instrument.reset()
    try:
        q = MsQueue()
        for i in range(400):
            q.enqueue(i)
        stop = threading.Event()

        def drainer():
            while not stop.is_set():
                if q.dequeue() is None:
                    break

        def refiller():
            k = 1000
            while not stop.is_set():
                q.enqueue(k)
                k += 1

        workers = [threading.Thread(target=drainer),
                   threading.Thread(target=refiller)]
        for w in workers:
            w.start()
        for _ in range(300):
            q.ith(5)
        stop.set()
        for w in workers:
            w.join()
        assert instrument.violation_count() == 0, instrument.violations()
    finally:
        instrument.enable(False)
