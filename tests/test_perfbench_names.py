"""The traced benchmark run patches chronocas by name; a refactor that moves
one of those names must fail here, not only in the untiered perfbench suite."""

import importlib.util
from pathlib import Path

from chronocas import Camera, vcas

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_patch_targets_resolve():
    spans = _load_spans()
    for owner, attr, *_ in spans.LAYER_METHODS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    for module in spans.FIELD_CAS_MODULES:
        assert callable(getattr(module, "field_cas", None)), module
    # perfbench counts retained versions with ``type(obj) is VNode``
    assert type(vcas.VersionedCas(0, Camera())._head.read()) is vcas.VNode
