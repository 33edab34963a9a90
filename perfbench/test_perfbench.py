"""Tests of the benchmark itself: the oracle gate, loud worker failures, the
exact gate count, and refusal to run without the sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child  # puts the repository's src on sys.path
import run
import workloads
from chronocas import LeafBst, MsQueue

HERE = Path(__file__).resolve().parent


class WrongFind(LeafBst):
    """Answers the 100th find wrongly."""

    calls = 0

    def find(self, key):
        self.calls += 1
        found = super().find(key)
        return not found if self.calls == 100 else found


class WrongRange(LeafBst):
    """Drops one key from the first range query answered after prefill."""

    queries = 0

    def range_query(self, start, end):
        self.queries += 1
        out = super().range_query(start, end)
        return out[1:] if self.queries == 1 else out


class WrongScan(MsQueue):
    """Loses the head item from the 3rd scan."""

    scans = 0

    def scan(self, at=None):
        self.scans += 1
        out = super().scan(at)
        return out[1:] if self.scans == 3 else out


class RaisingInsert(LeafBst):
    """Raises on the 50th insert after a 10,000-key prefill."""

    inserts = 0

    def insert(self, key):
        self.inserts += 1
        if self.inserts == workloads.BST_UPDATE_PREFILL + 50:
            raise RuntimeError("injected insert failure")
        return super().insert(key)


def _measure(name, factory=None, ops=2_000, seed=3):
    """One repetition with each stream cut to its first ``ops`` operations."""
    rep = workloads.Rep(name, seed, 0, factory=factory)
    rep.inputs.streams = [ops_list[:ops] for ops_list in rep.inputs.streams]
    out = child.measure(rep)
    return rep, out


@pytest.mark.parametrize("name,ops", [("bst-update", 2_000), ("bst-rq", 6_000),
                                      ("queue-churn", 3_000)])
def test_clean_run_passes_the_gate(name, ops):
    rep, out = _measure(name, ops=ops)
    assert out["failed"] == 0, out["errors"]
    assert out["attempted"] == sum(w.done for w in rep.workers) > 0


@pytest.mark.parametrize("name,stub,ops", [
    ("bst-update", WrongFind, 2_000),
    ("bst-rq", WrongRange, 6_000),
    ("queue-churn", WrongScan, 3_000),
])
def test_one_wrong_answer_is_caught(name, stub, ops):
    rep, out = _measure(name, factory=stub, ops=ops)
    if name == "bst-rq":
        assert rep.workers[1].done >= 1, "the querier answered no query"
    assert out["failed"] == 1, out["errors"]
    assert len(out["errors"]) == 1


def test_range_result_must_match_a_prefix_inside_its_window():
    updates = [("insert", (3,)), ("delete", (1,))]
    queries = [("range", (1, 4))] * 3
    results = [[1, 2, 3], [2, 3], [2, 3]]
    # the third query returned before the first update finished
    seen = [(0, 1), (1, 2), (0, 0)]
    messages = []
    bad = workloads.check_range_queries({1, 2}, updates, 2, queries, results,
                                        seen, messages)
    assert bad == 1
    assert "matches no update prefix in [0, 1]" in messages[0]


def test_raising_worker_fails_the_run_loudly(capsys):
    def launch_in_process(kind, name, seed, idx, timeout):
        return _measure(name, factory=RaisingInsert, seed=seed)[1]

    code = run.main(["--workload", "bst-update", "--seed", "1", "--seconds", "1"],
                    run_child=launch_in_process)
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["metrics"] == {}
    # the op that raised and every op the worker never reached count as failed
    assert 0 < result["failed"] < result["attempted"]
    assert details["error_rate"] == result["failed"] / result["attempted"]
    assert any("injected insert failure" in e for e in details["errors"])


def test_crashed_measurement_is_a_failure():
    report = run.launch("timed", "no-such-workload", 1, 0, timeout=60)
    assert report["failed"] == 1
    assert "unknown workload" in report["errors"][0]


@pytest.mark.parametrize("name", ["bst-update", "queue-churn"])
def test_gate_count_repeats_across_interpreters(name):
    def steps():
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "gate",
                               name, "5", "0"], capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout)["metrics"]["gate.steps_per_op"]

    first = steps()
    assert first > 0
    assert steps() == first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bst-update", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
