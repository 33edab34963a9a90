import itertools
import json
import threading

import pytest

from chronocas import LeafBst, bench, instrument
from chronocas.bench import (ConfigError, WorkloadConfig, main, run,
                             run_with_baseline, stress)


def test_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(ins=50, delete=20, find=50, rq=0).validate()
    with pytest.raises(ConfigError):
        WorkloadConfig(ins=30, delete=20, find=40, rq=10, rqsize=0).validate()
    with pytest.raises(ConfigError):
        WorkloadConfig(structure="skiplist").validate()


def test_key_range_follows_update_asymmetry():
    cfg = WorkloadConfig(prefill=100_000, ins=30, delete=20, find=50, rq=0)
    assert cfg.key_range == round(100_000 * 50 / 30)
    assert WorkloadConfig(prefill=100, ins=0, delete=0, find=100).key_range == 200


def test_queue_enqueue_only_run():
    report = run(WorkloadConfig(structure="queue", prefill=0, ins=100,
                                delete=0, find=0, rq=0, threads=1,
                                seconds=0.3, seed=1, instrument=True))
    assert sum(report.throughput.values()) > 0
    assert report.step_bound_violations == 0


def test_rq_only_static_tree_has_zero_hops():
    """No concurrent updates: every snapshot read resolves at the head."""
    report = run(WorkloadConfig(structure="bst", prefill=200, ins=0, delete=0,
                                find=0, rq=100, rqsize=16, threads=2,
                                seconds=0.3, seed=2, instrument=True))
    assert report.ops["rq"] > 0
    assert set(report.hop_histogram) <= {0}
    assert report.step_bound_violations == 0


def test_default_run_leaves_instrumentation_off():
    """A default run reports no instrumented fields and leaves cells built
    after it uninstrumented; an instrumented run restores the prior state."""
    cfg = dict(structure="bst", prefill=50, threads=1, seconds=0.1, seed=6)
    report = run(WorkloadConfig(**cfg))
    assert instrument.ENABLED is False
    assert report.hop_histogram is None
    assert report.step_bound_violations is None
    doc = report.to_dict()
    assert doc["hop_histogram"] is None and doc["step_bound_violations"] is None
    assert report.to_csv_row().endswith(",")
    assert LeafBst()._root.left._log is None
    run(WorkloadConfig(**cfg, instrument=True))
    assert instrument.ENABLED is False
    instrument.enable(True)
    run(WorkloadConfig(**cfg))
    assert instrument.ENABLED is True


def test_baseline_pairing_reports_ratio():
    report = run_with_baseline(WorkloadConfig(structure="bst", prefill=100,
                                              ins=30, delete=20, find=50,
                                              rq=0, threads=2, seconds=0.3,
                                              seed=3))
    assert report.overhead_ratio_vs_plain is not None
    assert report.overhead_ratio_vs_plain > 0


def test_two_thread_queue_stress_100_windows_all_accepted():
    rep = stress(WorkloadConfig(structure="queue", prefill=2, threads=2,
                                seconds=1, seed=4), windows=100)
    assert rep.windows == 100
    assert rep.rejected == 0, rep.first_witness
    assert rep.accepted + rep.inconclusive == 100


def test_one_thread_stress_trivially_accepted():
    rep = stress(WorkloadConfig(structure="list", prefill=2, threads=1,
                                seconds=1, seed=4), windows=10)
    assert rep.rejected == 0
    assert rep.accepted == 10


def test_cli_json_output(capsys):
    rc = main(["--structure", "queue", "--prefill", "0", "--ins", "100",
               "--del", "0", "--find", "0", "--rq", "0", "--threads", "1",
               "--seconds", "0.2", "--seed", "7", "--instrument"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["step_bound_violations"] == 0
    assert doc["config"]["structure"] == "queue"


def test_cli_csv_output(capsys):
    rc = main(["--structure", "list", "--prefill", "20", "--seconds", "0.2",
               "--threads", "1", "--csv"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("structure,")
    assert out[1].startswith("list,")


def test_cli_rejects_bad_mix(capsys):
    rc = main(["--ins", "90", "--del", "20", "--find", "0", "--rq", "0",
               "--seconds", "0.1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_rejects_a_negative_share(capsys):
    """A negative share can still sum to 100; with a prefill it shrinks the
    key range below the prefill, which could then never be filled."""
    rc = main(["--prefill", "0", "--ins", "150", "--del", "-50", "--find",
               "0", "--rq", "0", "--threads", "1", "--seconds", "0.1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and ">= 0" in captured.err


@pytest.mark.parametrize("structure",
                         ["queue", "list", "bst-plain-cas-baseline"])
def test_cli_baseline_refuses_a_structure_without_a_plain_twin(capsys,
                                                               structure):
    """Only the versioned tree builds have a plain-CAS twin; any other
    structure's throughput over the plain tree's is no overhead ratio."""
    rc = main(["--structure", structure, "--prefill", "100", "--threads",
               "1", "--seconds", "0.1", "--baseline"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "bst-direct" in captured.err


def test_cli_stress_mode(capsys):
    rc = main(["--structure", "queue", "--prefill", "1", "--threads", "2",
               "--stress", "--windows", "10", "--seed", "11"])
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "stress"
    assert out["windows"] == 10
    assert rc == 0


@pytest.mark.parametrize("windows", ["0", "-5"])
def test_cli_stress_rejects_a_run_without_windows(capsys, windows):
    """A stress run of no window checks nothing: it must not pass."""
    rc = main(["--structure", "list", "--prefill", "1", "--threads", "1",
               "--stress", "--windows", windows])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "window" in captured.err


@pytest.mark.parametrize("flag", ["--instrument", "--baseline", "--csv"])
def test_cli_stress_refuses_a_flag_it_would_ignore(capsys, flag):
    """A stress run neither instruments, pairs with a baseline nor writes
    CSV: taking the flag silently would report what was not done."""
    rc = main(["--structure", "queue", "--prefill", "1", "--threads", "1",
               "--stress", "--windows", "1", flag])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and flag in captured.err


class _OneFailingFind(LeafBst):
    """Raises from the 20th find; every other operation works."""

    def __init__(self) -> None:
        super().__init__()
        self._finds = itertools.count(1)

    def find(self, key):
        if next(self._finds) == 20:
            raise RuntimeError("injected find failure")
        return super().find(key)


@pytest.mark.parametrize("structure", ["list", "bst", "bst-direct"])
def test_sorted_prefill_inserts_every_key(structure):
    """``--sorted`` prefills from 1024-key chunks shared by the threads."""
    config = WorkloadConfig(structure=structure, prefill=2500, threads=3,
                            sorted_insert=True)
    s = bench.build_structure(structure)
    bench._prefill(s, config)
    assert s.range_query(1, 2500) == list(range(1, 2501))


def test_worker_error_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(bench, "build_structure", lambda name: _OneFailingFind())
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected find failure"):
        run(WorkloadConfig(structure="bst", prefill=50, threads=2,
                           seconds=0.2, seed=5))
    assert threading.active_count() == threads_before   # every worker joined
    rc = main(["--structure", "bst", "--prefill", "50", "--threads", "2",
               "--seconds", "0.2"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "injected find failure" in out.err
