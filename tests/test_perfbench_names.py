"""The benchmark uses chronocas by name; a refactor that moves or reshapes
one of those names must fail here, not only in the untiered perfbench suite."""

import importlib.util
import sys
from pathlib import Path

from chronocas import Camera, HarrisList, LeafBst, MsQueue, vcas
from versions import head

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_patch_targets_resolve():
    spans = _load("spans")
    for owner, attr, *_ in spans.LAYER_METHODS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    for module in spans.FIELD_CAS_MODULES:
        assert callable(getattr(module, "field_cas", None)), module
    # perfbench counts retained versions with ``type(obj) is VNode``
    assert type(head(vcas.VersionedCas(0, Camera()))) is vcas.VNode


def test_benchmark_oracle_surface():
    workloads = _load("workloads")
    ordered, queue = workloads.SeqOrderedSet(), workloads.SeqQueue()
    assert ordered.step(("insert", 3)) is True
    assert ordered.step(("contains", 3)) is True
    assert queue.step(("enqueue", 3)) is None
    assert queue.step(("scan",)) == [3]
    # bst-rq compares a range_query list with ``!=`` against ``keys``
    assert isinstance(ordered.keys, list)
    assert ordered.keys == [3]


def test_benchmark_structure_methods_resolve():
    """The methods ``workloads.bind`` and ``micro.per_call_table`` call by
    name, wherever the class gets them (``range_query`` is inherited)."""
    for owner, names in ((LeafBst, "insert delete find range_query"),
                         (HarrisList, "contains insert delete range_query"),
                         (MsQueue, "enqueue dequeue scan")):
        for name in names.split():
            assert callable(getattr(owner, name, None)), (owner, name)
