"""Smoke test of the benchmark harness at tiny sizes; no timing bounds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, dtw_cells  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == workloads.END_TO_END_UNITS
    assert _units("per_layer") == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(tmp_path, name, trace):
    outcome = workloads.run(tmp_path, name, seed=3, seconds=0.0, trace=trace,
                            sizes=workloads.TINY)
    # the tracer's count identities and every other check land in problems
    assert outcome.problems == []
    units = workloads.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    line = json.loads(json.dumps(run.result_line(outcome, units)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert all(outcome.metrics[name] > 0 for name in workloads.UNBOUNDED_UNITS)


def test_tracer_restores_bindings():
    from turnoutguard import classifier, pipeline
    original = pipeline.classify
    with Tracer():
        assert pipeline.classify is not original
        assert pipeline.classify is classifier.classify
    assert pipeline.classify is original and classifier.classify is original


def test_dtw_cells():
    assert dtw_cells(200, 200, None) == 40000
    for n, m, band in [(3, 3, 0), (5, 3, 0), (3, 5, 1), (200, 200, 10), (40, 25, 3)]:
        r = max(band, abs(n - m))   # the kernel widens the band to the length gap
        corridor = sum(abs(i - j) <= r for i in range(max(n, m)) for j in range(min(n, m)))
        assert dtw_cells(n, m, band) == corridor


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "operate-clean"]) != 0
    assert capsys.readouterr().out == ""
