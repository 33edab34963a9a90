import random
import sys
import threading
import time

import pytest

from chronocas import MsQueue, PoisonedReadError
from chronocas import instrument, reclaim
from chronocas.bench import WorkloadConfig, stress
from chronocas.msqueue import QueueNode
from chronocas.oracle import SeqQueue

from armed import ARMED_BY


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


def test_queries_trap_a_freed_node():
    """Under poisoning, a query that reads a freed node raises instead of
    returning the node's trap pattern: the first node for ``ith`` and
    ``peek_endpoints``, the last for ``scan``."""
    reclaim.enable_poisoning(True)

    def queue():
        q = MsQueue()
        q.enqueue(3)
        q.enqueue(10)
        return q
    q = queue()
    q._head.read().read()._poison()
    for query in (lambda: q.ith(1), q.peek_endpoints):
        with pytest.raises(PoisonedReadError):
            query()
    q = queue()
    q._tail.read()._poison()
    with pytest.raises(PoisonedReadError):
        q.scan()


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
    with q.epoch.query(q.camera) as h:
        q.enqueue(10)
        assert q.dequeue() == 3
        assert q.scan(at=h) == [3, 10]
    assert q.scan() == [10, 10]


@pytest.mark.parametrize("mode", list(ARMED_BY))
def test_unarmed_queue_walks_load_links_without_a_call(monkeypatch, mode):
    """With the gate unarmed, scan, ith and peek_endpoints load every next
    link inline.  Once instrumentation, poisoning or a step counter arms the
    gate, they call read() on every node they leave: scan N times for N
    elements, ith(i) min(i, N) times and peek_endpoints once.  Both paths
    give the SeqQueue answer, at an old handle too."""
    q, ref = MsQueue(), SeqQueue()
    for i in range(40):
        q.enqueue(i)
        ref.step(("enqueue", i))
    for _ in range(10):
        assert q.dequeue() == ref.step(("dequeue",))
    old = ref.step(("scan",))
    calls = []
    read = QueueNode.read

    def counted(node):
        calls.append(node)
        return read(node)

    def answers():
        return (q.scan(), [q.ith(i) for i in indices], q.peek_endpoints())
    with q.epoch.query(q.camera) as h:
        for i in range(40, 50):       # updates the old handle must not see
            q.enqueue(i)
            ref.step(("enqueue", i))
            assert q.dequeue() == ref.step(("dequeue",))
        monkeypatch.setattr(QueueNode, "read", counted)
        assert q.scan(at=h) == old
        assert calls == []
        with ARMED_BY[mode]():
            assert q.scan(at=h) == old
            assert len(calls) == len(old)
    cur = ref.step(("scan",))
    indices = range(1, len(cur) + 2)
    expected = (cur, [ref.step(("ith", i)) for i in indices],
                ref.step(("peek",)))
    calls.clear()
    assert answers() == expected
    assert calls == []
    with ARMED_BY[mode]():
        assert answers() == expected
    assert len(calls) == len(cur) + sum(min(i, len(cur)) for i in indices) + 1


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


def test_next_links_written_at_most_once(monkeypatch):
    """Every next word is swapped at most once, from None, however the
    enqueuers race; the queries' current reads of next links rest on it."""
    swaps: dict = {}                  # node -> expected value of each swap
    cas = QueueNode.cas

    def recording_cas(node, expected, new):
        if cas(node, expected, new):
            swaps.setdefault(node, []).append(expected)
            return True
        return False
    monkeypatch.setattr(QueueNode, "cas", recording_cas)
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    q = MsQueue()
    per_thread = 300
    dequeued = []

    def enqueuer(t):
        for i in range(per_thread):
            q.enqueue((t, i))

    deadline = time.monotonic() + 60

    def dequeuer():
        got = 0
        while got < per_thread and time.monotonic() < deadline:
            key = q.dequeue()
            if key is not None:
                dequeued.append(key)
                got += 1

    workers = ([threading.Thread(target=enqueuer, args=(t,)) for t in range(3)]
               + [threading.Thread(target=dequeuer) for _ in range(3)])
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old_switch)
    assert not any(w.is_alive() for w in workers)
    assert sorted(dequeued) == [(t, i) for t in range(3) for i in range(per_thread)]
    assert all(s == [None] for s in swaps.values())
    assert sum(map(len, swaps.values())) == 3 * per_thread   # one link per enqueue


def test_each_pair_retires_three_records():
    """An enqueue/dequeue pair retires the displaced tail and head versions
    and the dequeued dummy node, and nothing for the next links."""
    q = MsQueue()
    n = 50
    before = q.epoch.retired_total
    for i in range(n):
        q.enqueue(i)
        assert q.dequeue() == i
    assert q.epoch.retired_total - before == 3 * n


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
        with self.epoch.maybe_pinned():
            head = self._head.read()
            tail = self._tail.read()
            if head is tail:
                return (None, None)
            first = head.read()
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
