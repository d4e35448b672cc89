"""The benchmark's fixed-seed contract on every test run.

Each workload of ``BENCHMARK.json`` recomputes the reference values of
``perfbench/expected.json`` with every traced function wrapped, as
``perfbench/run.py --trace 1`` does. Drift from the recorded values and a
traced function that no longer exists thus fail here, not only in a
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


bench, tracer = _load("run"), _load("tracer")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_values_hold_with_every_span_installed(workload, tmp_path):
    with tracer.installed(tracer.Tracer()) as spans:
        ok, message = bench.golden_check(workload, tmp_path / "losses.csv")
    assert ok, message
    names = {span[0] for span in spans.spans}
    assert "detector.forward_batch" in names
    # Only a run that reads predictions decodes, its teacher-cache build included.
    w = bench.WORKLOADS[workload]
    reads_predictions = w.kind == "eval" or w.mode in ("ta", "sa+ta") or not w.label_free
    assert ("transformer.decoder_forward" in names) == reads_predictions
