"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import maqaoa  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED_NAMES, Tracer, _owner  # noqa: E402


def _originals():
    return {(module, path): getattr(*_owner(module, path)) for module, path, _ in WRAPPED_NAMES}


@pytest.fixture
def minimal(monkeypatch):
    """Shrink every workload to a few cells; the band check needs the full fixture."""
    monkeypatch.setattr(workloads, "P_VALUES", (1,))
    monkeypatch.setattr(workloads, "N4_REPLICATES", 1)
    monkeypatch.setattr(workloads, "N4_BANDS", {})
    monkeypatch.setattr(workloads, "N8_EDGE_COUNTS", (10,))
    monkeypatch.setattr(workloads, "N16_GRAPHS", 1)
    monkeypatch.setattr(workloads, "N16_MAX_ITERATIONS", 2)
    monkeypatch.setattr(worker, "REPORT_MIN_SECONDS", 0.0)
    monkeypatch.setattr(worker, "MICRO_MIN_SECONDS", 0.0)
    monkeypatch.chdir(ROOT)


def _round(workload, out_dir, trace):
    spec = {"workload": workload, "seed": 3, "mode": "round", "trace": trace, "out_dir": str(out_dir)}
    return worker.main(spec)


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_minimal_workload_runs_end_to_end(minimal, tmp_path, workload):
    plain = _round(workload, tmp_path / "plain", trace=0)
    traced = _round(workload, tmp_path / "traced", trace=1)
    for result in (plain, traced):
        assert result["cells"] > 0
        assert result["failed_cells"] == 0 and result["failures"] == []
    assert run.trace_failures(traced) == []
    # the trace changes no numbers
    assert run.determinism_failures([plain, traced]) == []
    layers = run.per_layer_metrics(plain, traced)
    assert set(dict(metrics.PER_LAYER)) <= set(layers)


def test_traced_self_times_sum_to_the_traced_run(minimal, tmp_path):
    traced = _round("n8-sweep", tmp_path, trace=1)
    spans = traced["spans"]
    assert sum(e["self_s"] for e in spans.values()) == pytest.approx(
        spans["bench.round"]["total_s"], abs=1e-9
    )
    assert traced["span_root_s"] == pytest.approx(traced["run_s"], rel=0.05)


def test_wrapped_attributes_are_restored_even_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert maqaoa.harness.run_strategy is not before[("maqaoa.harness", "run_strategy")]
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert maqaoa.records.ExperimentRecord.__dict__["to_row"] is before[
        ("maqaoa.records", "ExperimentRecord.to_row")
    ]


def test_self_time_excludes_direct_children_only():
    tracer = Tracer(names=())
    with tracer.span("a.outer"):
        with tracer.span("b.mid"):
            with tracer.span("c.inner"):
                pass
        with tracer.span("b.mid"):
            pass
    totals = tracer.totals()
    assert totals["b.mid"]["calls"] == 2
    outer = totals["a.outer"]
    mid_total = totals["b.mid"]["total_s"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - mid_total, abs=1e-12)
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(outer["total_s"], abs=1e-12)


def test_checks_flag_a_band_miss_and_an_out_of_range_ratio(tmp_path):
    inputs = workloads.build_inputs("n4-acceptance", seed=3)
    g = inputs.graphs[0]
    cell = maqaoa.ExperimentRecord(
        graph_id=g.id, n=g.n, edge_count=g.edge_count, edges=g.edges, p=1,
        strategy="normal", replicate=0, seed=0, initial_ar=0.5, final_ar=0.8,
        final_angles=(0.0,) * (g.n + g.edge_count), iterations=1,
        function_evaluations=2, converged=True, wall_time=0.0,
    )
    records = [cell, dataclasses.replace(cell, final_ar=1.5)]
    maqaoa.write_records(records, tmp_path / "records.csv")
    failed, failures = workloads.check_round(
        "n4-acceptance", records, [], inputs, tmp_path / "records.csv"
    )
    assert failed == 1
    assert any("outside [0, 1]" in f for f in failures)
    assert any(f.startswith("band normal p=1") for f in failures)


def test_determinism_check_sees_a_changed_record(tmp_path):
    header = "graph_id,final_ar,wall_time\n"
    for name, body in (("a", "g1,0.5,1.0\n"), ("b", "g1,0.5,2.0\n"), ("c", "g1,0.6,1.0\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "records.csv").write_text(header + body)
    counts = {"cells": 1, "oracle_calls": 1, "iterations": 0}
    rounds = {k: {"out_dir": tmp_path / k, **counts} for k in "abc"}
    assert run.determinism_failures([rounds["a"], rounds["b"]]) == []
    assert run.determinism_failures([rounds["a"], rounds["c"]])
    assert run.determinism_failures([rounds["a"], {**rounds["b"], "iterations": 1}])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n4-acceptance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
