"""Per-call costs of single layers, the plain-CAS ratio and the gate count.

``per_call_table`` times tight loops over one public call each, including
layers no workload drives (``vcas_direct``, ``harris_list``).  A figure is
the median over a few repeats of the loop's time divided by its call count,
loop overhead included.
"""

from __future__ import annotations

import statistics
import time

from chronocas import (AtomicCell, Camera, DirectVersionedCas, EpochManager,
                       HarrisList, VersionedCas, Versionable, _gate)

import workloads

REPEATS = 5


def _per_call_ns(body, calls: int) -> float:
    """``body()`` makes ``calls`` calls; median ns per call over REPEATS."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        body()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def per_call_table(n: int = 20_000) -> dict:
    out = {}
    loop = range(n)

    step = _gate.step

    def gate_step():
        for _ in loop:
            step()
    out["gate.step"] = _per_call_ns(gate_step, n)

    cell = AtomicCell(0)
    read, cas = cell.read, cell.cas

    def atomic_read():
        for _ in loop:
            read()

    def atomic_cas():
        for _ in loop:
            cas(0, 0)
    out["atomic.read"] = _per_call_ns(atomic_read, n)
    out["atomic.cas"] = _per_call_ns(atomic_cas, n)

    cam = Camera()
    take = cam.take_snapshot

    def take_snapshot():
        for _ in loop:
            take()
    out["camera.take_snapshot"] = _per_call_ns(take_snapshot, n)

    v = VersionedCas(0, cam)
    vread, vcas = v.read, v.cas

    def vcas_read():
        for _ in loop:
            vread()

    def vcas_cas():               # every call installs a new version
        for _ in range(n // 2):
            vcas(0, 1)
            vcas(1, 0)
    out["vcas.read"] = _per_call_ns(vcas_read, n)
    out["vcas.cas"] = _per_call_ns(vcas_cas, n // 2 * 2)

    h0 = cam.take_snapshot()
    snap = v.read_snapshot

    def read_snapshot_0():
        for _ in loop:
            snap(h0)
    out["vcas.read_snapshot_0hops"] = _per_call_ns(read_snapshot_0, n)

    deep = VersionedCas(0, cam)
    h64 = cam.take_snapshot()
    for i in range(64):
        deep.cas(i, i + 1)
    deep_snap, m = deep.read_snapshot, n // 16

    def read_snapshot_64():
        for _ in range(m):
            deep_snap(h64)
    out["vcas.read_snapshot_64hops"] = _per_call_ns(read_snapshot_64, m)

    d = DirectVersionedCas(Versionable(), cam)
    dcas = d.cas
    fresh = [[Versionable() for _ in loop] for _ in range(REPEATS)]

    def direct_cas():             # recorded-once: each node is published once
        prev = d.read()
        for node in fresh.pop():
            dcas(prev, node)
            prev = node
    out["vcas_direct.cas"] = _per_call_ns(direct_cas, n)

    hd = cam.take_snapshot()
    dsnap = d.read_snapshot

    def direct_read_snapshot():
        for _ in loop:
            dsnap(hd)
    out["vcas_direct.read_snapshot"] = _per_call_ns(direct_read_snapshot, n)

    em = EpochManager()
    pin, unpin = em.pin, em.unpin

    def pin_unpin():
        for _ in loop:
            unpin(pin())
    out["reclaim.pin_unpin"] = _per_call_ns(pin_unpin, n)

    retire = em.retire
    records = [[Versionable() for _ in loop] for _ in range(REPEATS)]
    retired = []                  # retire() keys on id(), so keep records alive

    def retire_records():
        batch = records.pop()
        retired.append(batch)
        for rec in batch:
            retire(rec)
    out["reclaim.retire"] = _per_call_ns(retire_records, n)

    hl = HarrisList()
    for k in range(2, 130, 2):    # 64 keys
        hl.insert(k)
    contains, insert, delete = hl.contains, hl.insert, hl.delete
    keys = [k % 128 + 1 for k in range(n // 4)]

    def list_contains():
        for k in keys:
            contains(k)
    out["harris_list.contains"] = _per_call_ns(list_contains, len(keys))
    odd = [2 * (k % 64) + 1 for k in range(n // 20)]

    def list_insert_delete():
        for k in odd:
            insert(k)
            delete(k)
    out["harris_list.insert_delete"] = _per_call_ns(list_insert_delete, len(odd))
    rq, r = hl.range_query, n // 40

    def list_range_query():       # 16 keys out of 64
        for _ in range(r):
            rq(40, 71)
    out["harris_list.range_query"] = _per_call_ns(list_range_query, r)
    return out


def plain_ratio(seed: int, ops: int = 10_000) -> float:
    """Time of the same bst-update stream on ``mode="plain"`` divided by its
    time on ``mode="indirect"``: the share of plain-CAS speed that the
    versioned tree keeps.  Prefill is not timed."""
    inputs = workloads.make_inputs("bst-update", seed, 0)
    stream = inputs.streams[0][:ops]
    elapsed = {}
    for mode in ("plain", "indirect"):
        tree = workloads.build("bst-update", mode)
        fns = workloads.bind(tree)
        for kind, args in inputs.prefill:
            fns[kind](*args)
        t0 = time.perf_counter()
        for kind, args in stream:
            fns[kind](*args)
        elapsed[mode] = time.perf_counter() - t0
    return elapsed["plain"] / elapsed["indirect"]


def steps_per_op(name: str, seed: int, ops: int = 4_000) -> float:
    """Gated shared accesses per operation over a fixed prefix of the
    workload's streams, run on one thread, so the count is exact.  For
    ``bst-rq`` the prefix interleaves eight updates with each range query."""
    inputs = workloads.make_inputs(name, seed, 0)
    structure = workloads.build(name)
    fns = workloads.bind(structure)
    for kind, args in inputs.prefill:
        fns[kind](*args)
    if len(inputs.streams) == 1:
        sequence = inputs.streams[0][:ops]
    else:
        updates, queries = inputs.streams
        sequence = []
        for i, op in enumerate(updates[:ops - ops // 9]):
            sequence.append(op)
            if i % 8 == 7:
                sequence.append(queries[i // 8])
    with _gate.StepCounter() as counter:
        for kind, args in sequence:
            fns[kind](*args)
    return counter.count / len(sequence)
