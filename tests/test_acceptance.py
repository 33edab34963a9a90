"""Acceptance gate: one test per exit criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

These are the binding checks; sizes and tolerances are fixed here and must
not be loosened.
"""

import random
import statistics
import sys
import threading
import time

import pytest

import chronocas.vcas as vcas_mod
from chronocas import (Camera, EpochManager, HarrisList, LeafBst, MsQueue,
                       VersionedCas, instrument)
from chronocas import reclaim as reclaim_mod
from chronocas.bench import WorkloadConfig, run_with_baseline, stress
from chronocas.bst import INF1, INF2
from chronocas.lincheck import Recorder, check_linearizable, explore
from chronocas.oracle import SeqLeafBst, SeqOrderedSet, SeqQueue, SeqVcas


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {tag}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Sequential conformance: 1e5 randomized single-thread ops per class
# ---------------------------------------------------------------------------

def _drive_vcas(n, seed):
    cam = Camera()
    v = VersionedCas(0, cam)
    ref = SeqVcas.create(0)
    rng = random.Random(seed)
    handles = []
    mismatches = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.4:
            old, new = rng.randint(0, 5), rng.randint(0, 5)
            mismatches += v.cas(old, new) != ref.step(("vcas", old, new))
        elif r < 0.6:
            h = cam.take_snapshot()
            mismatches += h != ref.step(("snapshot",))
            handles.append(h)
            if len(handles) > 64:
                handles.pop(0)
        elif r < 0.8 and handles:
            h = rng.choice(handles)
            mismatches += v.read_snapshot(h) != ref.step(("readsnapshot", h))
        else:
            mismatches += v.read() != ref.step(("vread",))
    return mismatches


def _drive_vcas_direct(n, seed):
    from chronocas import DirectVersionedCas, Versionable

    class Node(Versionable):
        __slots__ = ()

    cam = Camera()
    first = Node()
    cell = DirectVersionedCas(first, cam)
    ref = SeqVcas.create(first)
    rng = random.Random(seed)
    cur = first
    handles = []
    mismatches = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.4:
            node = Node()
            mismatches += cell.cas(cur, node) != ref.step(("vcas", cur, node))
            cur = node
        elif r < 0.6:
            h = cam.take_snapshot()
            mismatches += h != ref.step(("snapshot",))
            handles.append(h)
            if len(handles) > 64:
                handles.pop(0)
        elif r < 0.8 and handles:
            h = rng.choice(handles)
            mismatches += cell.read_snapshot(h) is not ref.step(("readsnapshot", h))
        else:
            mismatches += cell.read() is not ref.step(("vread",))
    return mismatches


def _drive_queue(n, seed):
    q = MsQueue()
    ref = SeqQueue()
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.40:
            k = rng.randint(0, 999)
            q.enqueue(k)
            ref.step(("enqueue", k))
        elif r < 0.82:
            mismatches += q.dequeue() != ref.step(("dequeue",))
        elif r < 0.90:
            i = rng.randint(1, 8)
            mismatches += q.ith(i) != ref.step(("ith", i))
        elif r < 0.97:
            mismatches += q.peek_endpoints() != ref.step(("peek",))
        else:
            mismatches += q.scan() != ref.step(("scan",))
    return mismatches


def _drive_list(n, seed):
    l = HarrisList()
    ref = SeqOrderedSet()
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n):
        r = rng.random()
        k = rng.randint(0, 200)
        if r < 0.38:
            mismatches += l.insert(k) != ref.step(("insert", k))
        elif r < 0.76:
            mismatches += l.delete(k) != ref.step(("delete", k))
        elif r < 0.90:
            mismatches += l.contains(k) != ref.step(("contains", k))
        elif r < 0.96:
            s = rng.randint(0, 180)
            mismatches += l.range_query(s, s + 15) != ref.step(("range", s, s + 15))
        elif r < 0.99:
            ks = [rng.randint(0, 200) for _ in range(3)]
            mismatches += l.multisearch(ks) != ref.step(("multisearch", ks))
        else:
            i = rng.randint(1, 9)
            mismatches += l.ith(i) != ref.step(("ith", i))
    return mismatches


def _drive_bst(n, seed, mode="indirect"):
    t = LeafBst(mode=mode)
    ref = SeqLeafBst(INF1, INF2)
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(n):
        r = rng.random()
        k = rng.randint(0, 500)
        if r < 0.34:
            mismatches += t.insert(k) != ref.step(("insert", k))
        elif r < 0.64:
            mismatches += t.delete(k) != ref.step(("delete", k))
        elif r < 0.82:
            mismatches += t.find(k) != ref.step(("find", k))
        elif r < 0.88:
            s = rng.randint(0, 450)
            mismatches += t.range_query(s, s + 25) != ref.step(("range", s, s + 25))
        elif r < 0.92:
            s = rng.randint(0, 450)
            mismatches += t.range_sum(s, s + 25) != ref.step(("range_sum", s, s + 25))
        elif r < 0.95:
            mismatches += t.succ(k, 3) != ref.step(("succ", k, 3))
        elif r < 0.98:
            ks = [rng.randint(0, 500) for _ in range(2)]
            mismatches += t.multisearch(ks) != ref.step(("multisearch", ks))
        else:
            mismatches += t.height() != ref.step(("height",))
    return mismatches


def test_criterion_1_sequential_conformance():
    n = 100_000
    t0 = time.perf_counter()
    results = {
        "vcas": _drive_vcas(n, 1),
        "vcas_direct": _drive_vcas_direct(n, 2),
        "queue": _drive_queue(n, 3),
        "list": _drive_list(n, 4),
        "bst": _drive_bst(n, 5),
    }
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in results.values()) and elapsed < 30.0
    _report(1, "sequential conformance 5x1e5 ops vs oracle", ok,
            f"mismatches={results}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Linearizability: stress windows + exhaustive canonical programs + mutants
# ---------------------------------------------------------------------------

def _canonical_programs():
    def reader_race():
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))
        return [t1, t2], rec.history

    def vread_race():
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            rec.run(2, "vread", (), v.read)
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))
        return [t1, t2], rec.history

    def failing_cas_race():
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            rec.run(2, "vcas", ("A", "D"), lambda: v.cas("A", "D"))
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))
        return [t1, t2], rec.history

    def double_cas_race():
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            rec.run(2, "vcas", ("B", "C"), lambda: v.cas("B", "C"))
            rec.run(2, "vread", (), v.read)
        return [t1, t2], rec.history

    def three_thread_race():
        # vCAS vs snapshot-read vs a second snapshot: also drives the
        # camera's failed-increment path.
        cam = Camera()
        v = VersionedCas("A", cam)
        rec = Recorder()

        def t1():
            rec.run(1, "vcas", ("A", "B"), lambda: v.cas("A", "B"))

        def t2():
            h = rec.run(2, "snapshot", (), cam.take_snapshot)
            rec.run(2, "readsnapshot", (h,), lambda: v.read_snapshot(h))

        def t3():
            rec.run(3, "snapshot", (), cam.take_snapshot)
        return [t1, t2, t3], rec.history

    return {"reader": reader_race, "vread": vread_race,
            "failcas": failing_cas_race, "doublecas": double_cas_race,
            "threeway": three_thread_race}


def test_criterion_2_linearizability():
    spec = SeqVcas.create("A")
    # exhaustive exploration of the canonical racing programs
    explored = {}
    for name, prog in _canonical_programs().items():
        res = explore(prog)
        assert res.complete, f"{name} exceeded the exploration budget"
        rejects = sum(1 for h in res.histories
                      if check_linearizable(h, spec).rejected)
        explored[name] = (res.runs, rejects)
    clean_ok = all(rej == 0 for _, rej in explored.values())

    # mutation builds: each must produce at least one rejection
    mutant_hits = {}
    for mutation, progname in (("no_read_help", "vread"),
                               ("no_init_before_swing", "failcas")):
        vcas_mod._mutations = frozenset([mutation])
        try:
            res = explore(_canonical_programs()[progname])
            mutant_hits[mutation] = sum(
                1 for h in res.histories if check_linearizable(h, spec).rejected)
        finally:
            vcas_mod._mutations = frozenset()
    mutants_ok = all(v >= 1 for v in mutant_hits.values())

    # >= 1e3 recorded windows per structure across 2-8 threads
    window_results = {}
    for structure, threads in (("queue", 2), ("list", 4), ("bst", 8)):
        rep = stress(WorkloadConfig(structure=structure, prefill=3,
                                    threads=threads, seed=13),
                     windows=1000, ops_per_window=2)
        window_results[structure] = (rep.accepted, rep.rejected,
                                     rep.inconclusive, rep.first_witness)
    windows_ok = all(r[1] == 0 for r in window_results.values())

    ok = clean_ok and mutants_ok and windows_ok
    _report(2, "linearizability: 3x1000 windows + exhaustive canonical + mutants",
            ok, f"explored={explored}, mutants={mutant_hits}, "
                f"windows={[(s, r[:3]) for s, r in window_results.items()]}")


# ---------------------------------------------------------------------------
# 3. Theorem-1 step bound: hops never exceed concurrent larger-ts commits
# ---------------------------------------------------------------------------

def test_criterion_3_step_bound():
    instrument.enable(True)
    instrument.reset()
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        cam = Camera()
        mgr = EpochManager()
        cells = [VersionedCas(0, cam, mgr) for _ in range(3)]
        stop = threading.Event()

        def writer(cell):
            val = 0
            while not stop.is_set():
                if cell.cas(val, val + 1):
                    val += 1
                else:
                    val = cell.read()

        def reader():
            rng = random.Random(77)
            while not stop.is_set():
                with mgr.query(cam) as h:
                    for _ in range(20):
                        cells[rng.randrange(3)].read_snapshot(h)

        workers = ([threading.Thread(target=writer, args=(c,)) for c in cells]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for w in workers:
            w.start()
        time.sleep(3.0)
        stop.set()
        for w in workers:
            w.join()
        hist = instrument.hop_histogram()
        nonzero = sum(v for k, v in hist.items() if k > 0)
        violations = instrument.violation_count()
        ok = violations == 0 and nonzero > 0
        _report(3, "Theorem-1 hop bound, zero violations", ok,
                f"violations={violations}, walks_with_hops={nonzero}")
    finally:
        sys.setswitchinterval(old_switch)
        instrument.enable(False)


# ---------------------------------------------------------------------------
# 4. Constant-time current-state ops under deep history
# ---------------------------------------------------------------------------

def _median_ns(op, samples):
    clock = time.perf_counter_ns
    times = []
    append = times.append
    for _ in range(samples):
        t0 = clock()
        op()
        append(clock() - t0)
    return statistics.median(times)


def test_criterion_4_constant_time_current_ops():
    samples = 100_000
    cam = Camera()
    mgr = EpochManager()
    cell = VersionedCas(0, cam, mgr)
    state = {"v": 0}

    def bump():
        if cell.cas(state["v"], state["v"] + 1):
            state["v"] += 1

    for _ in range(10):
        bump()
    read_small = _median_ns(cell.read, samples)
    cas_small = _median_ns(bump, samples)     # itself adds 1e5 versions
    while state["v"] < 1_000_000:
        bump()
    read_large = _median_ns(cell.read, samples)
    cas_large = _median_ns(bump, samples)
    read_ratio = read_large / read_small
    cas_ratio = cas_large / cas_small
    ok = read_ratio <= 2.0 and cas_ratio <= 2.0
    _report(4, "read/cas medians after 1e6 versions within 2x of shallow", ok,
            f"read x{read_ratio:.2f}, cas x{cas_ratio:.2f}")


# ---------------------------------------------------------------------------
# 5. Snapshot atomicity: paired-key stress, 4 threads x 10 s, list and bst
# ---------------------------------------------------------------------------

def _paired_stress(structure_name, seconds=10.0, updaters=2, queriers=2):
    structure = (HarrisList() if structure_name == "list"
                 else LeafBst(mode="indirect"))
    insert = structure.insert
    delete = structure.delete
    pairs = list(range(0, 80, 2))
    clock = Recorder()
    intervals = {p: [] for p in pairs}
    owners = [pairs[i::updaters] for i in range(updaters)]
    suspicious = []
    stop = threading.Event()

    def updater(idx):
        rng = random.Random(f"upd-{idx}")
        present = set()
        mine = owners[idx]
        while not stop.is_set():
            p = rng.choice(mine)
            t0 = clock.next_seq()
            if p in present:
                delete(p)
                delete(p + 1)
                present.discard(p)
            else:
                insert(p)
                insert(p + 1)
                present.add(p)
            intervals[p].append((t0, clock.next_seq()))

    def querier(idx):
        rng = random.Random(f"qry-{idx}")
        while not stop.is_set():
            p = rng.choice(pairs)
            lo = max(0, p - rng.randint(0, 6))
            hi = p + 1 + rng.randint(0, 6)
            q0 = clock.next_seq()
            got = structure.range_query(lo, hi)
            q1 = clock.next_seq()
            hits = sum(1 for k in (p, p + 1) if k in got)
            if hits == 1:
                suspicious.append((p, q0, q1))

    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = ([threading.Thread(target=updater, args=(i,))
                    for i in range(updaters)]
                   + [threading.Thread(target=querier, args=(i,))
                      for i in range(queriers)])
        for w in workers:
            w.start()
        time.sleep(seconds)
        stop.set()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(old_switch)

    violations = [
        (p, q0, q1) for p, q0, q1 in suspicious
        if not any(t0 <= q1 and q0 <= t1 for t0, t1 in intervals[p])
    ]
    return len(suspicious), violations


def test_criterion_5_snapshot_atomicity():
    details = {}
    ok = True
    for name in ("list", "bst"):
        mixed, violations = _paired_stress(name, seconds=10.0)
        details[name] = f"mixed_seen={mixed}, violations={len(violations)}"
        ok = ok and not violations
    _report(5, "paired-key atomicity, 4 threads x 10 s, list+bst", ok,
            str(details))


# ---------------------------------------------------------------------------
# 6. Reclamation safety (poisoning) and boundedness (plateau)
# ---------------------------------------------------------------------------

def test_criterion_6_reclamation_safety_and_boundedness():
    reclaim_mod.enable_poisoning(True)
    try:
        trap_errors = 0
        rejected = 0
        for structure, threads in (("queue", 4), ("list", 4), ("bst", 4)):
            rep = stress(WorkloadConfig(structure=structure, prefill=3,
                                        threads=threads, seed=29),
                         windows=400, ops_per_window=3)
            rejected += rep.rejected
        mixed, violations = _paired_stress("list", seconds=2.0)
    except reclaim_mod.PoisonedReadError:
        trap_errors = 1
        rejected = -1
        violations = ["poisoned"]
    finally:
        reclaim_mod.enable_poisoning(False)
    safety_ok = trap_errors == 0 and rejected == 0 and not violations

    # boundedness: steady-state mixed workload, every query releases its
    # snapshot; the retired high-water mark must plateau early.
    structure = LeafBst(mode="indirect")
    rng = random.Random(31)
    for _ in range(500):
        structure.insert(rng.randint(1, 800))
    stop = threading.Event()

    def churn(seed):
        r = random.Random(seed)
        while not stop.is_set():
            k = r.randint(1, 800)
            roll = r.random()
            if roll < 0.35:
                structure.insert(k)
            elif roll < 0.7:
                structure.delete(k)
            else:
                structure.range_query(k, k + 32)

    workers = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    for w in workers:
        w.start()
    duration = 5.0
    time.sleep(duration * 0.1)
    early_hwm = structure.epoch.live_retired_hwm
    time.sleep(duration * 0.9)
    stop.set()
    for w in workers:
        w.join()
    final_hwm = structure.epoch.live_retired_hwm
    bounded_ok = final_hwm <= 2 * max(early_hwm, 1)
    _report(6, "reclamation: zero poisoned reads; retired HWM plateaus",
            safety_ok and bounded_ok,
            f"traps={trap_errors}, hwm {early_hwm}->{final_hwm}")


# ---------------------------------------------------------------------------
# 7. Overhead sanity vs plain-CAS baseline
# ---------------------------------------------------------------------------

def test_criterion_7_overhead_vs_baseline():
    report = run_with_baseline(WorkloadConfig(
        structure="bst", prefill=1000, ins=30, delete=20, find=50, rq=0,
        threads=4, seconds=2.0, seed=37))
    ratio = report.overhead_ratio_vs_plain
    ok = ratio is not None and ratio >= (1 / 3)
    _report(7, "vcas-BST throughput >= 1/3 of plain-CAS baseline (30/20/50)",
            ok, f"ratio={ratio:.2f}, violations={report.step_bound_violations}")


# ---------------------------------------------------------------------------
# 8. Direct/indirect equivalence: byte-identical query transcripts
# ---------------------------------------------------------------------------

def _bst_transcript(mode, ops=10_000, seed=41) -> bytes:
    rng = random.Random(seed)
    t = LeafBst(mode=mode)
    lines = []
    for _ in range(ops):
        roll = rng.random()
        k = rng.randint(0, 300)
        if roll < 0.3:
            lines.append(f"ins {k} {t.insert(k)}")
        elif roll < 0.55:
            lines.append(f"del {k} {t.delete(k)}")
        elif roll < 0.65:
            lines.append(f"find {k} {t.find(k)}")
        elif roll < 0.75:
            s = rng.randint(0, 280)
            lines.append(f"range {s} {t.range_query(s, s + 20)!r}")
        elif roll < 0.82:
            s = rng.randint(0, 280)
            lines.append(f"sum {s} {t.range_sum(s, s + 20)!r}")
        elif roll < 0.89:
            lines.append(f"succ {k} {t.succ(k, 4)!r}")
        elif roll < 0.95:
            ks = [rng.randint(0, 300) for _ in range(3)]
            lines.append(f"multi {t.multisearch(ks)!r}")
        else:
            lines.append(f"height {t.height()}")
    return "\n".join(lines).encode()


def test_criterion_8_direct_indirect_equivalence():
    a = _bst_transcript("indirect")
    b = _bst_transcript("direct")
    _report(8, "bst vs bst-direct: byte-identical 1e4-op transcripts",
            a == b, f"{len(a)} bytes")


# ---------------------------------------------------------------------------
# 9. Worked queue example: scan at the old handle returns [3, 10]
# ---------------------------------------------------------------------------

def test_criterion_9_worked_queue_example():
    q = MsQueue()
    q.enqueue(3)
    q.enqueue(10)
    with q.epoch.query(q.camera) as h:
        q.enqueue(10)
        q.dequeue()
        got = q.scan(at=h)
    oracle = SeqQueue()
    oracle.step(("enqueue", 3))
    oracle.step(("enqueue", 10))
    oh = oracle.step(("snapshot",))
    oracle.step(("enqueue", 10))
    oracle.step(("dequeue",))
    want = oracle.step(("scan", oh))
    _report(9, "worked queue scenario: scan at old handle == [3, 10]",
            got == [3, 10] == want, f"got={got}")
