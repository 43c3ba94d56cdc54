"""Benchmark entry point for the maqaoa sweep and library paths.

    python3 perfbench/run.py --workload n4-acceptance --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
round runs in a fresh interpreter (perfbench/worker.py), so every round pays
the imports and cold caches a user's run pays. Rounds repeat until
--seconds have passed, at least two of them, on the same inputs; their
records must agree apart from wall_time. With --trace 1 the benchmark runs
one untraced and one traced round instead and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Every run's full result, with the machine's provenance,
is written to perfbench/results/. Exit code 0 means every check passed, 1
that a correctness or determinism check failed, 2 that the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import (
    END_TO_END,
    HELD_OUT_SEED,
    PER_LAYER,
    WORKLOAD_NAMES,
)

SETUP_SAMPLES = 5
MIN_ROUNDS = 2
# a run must end within 180 s; children get what is left of this budget
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Starts the worker processes of one benchmark run, within its time budget."""

    def __init__(self, checkout: Path, args, run_dir: Path):
        self.checkout = checkout
        self.args = args
        self.run_dir = run_dir
        self.started = time.perf_counter()
        self.children = 0
        env = dict(os.environ)
        src = str(checkout / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str, trace: bool) -> dict:
        self.children += 1
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "mode": mode,
            "trace": int(trace),
            "out_dir": str(self.run_dir / f"{self.children:02d}-{mode}"),
        }
        remaining = RUN_BUDGET_S - self.elapsed()
        if remaining <= 0:
            raise BenchmarkError("time budget of the run is spent")
        try:
            proc = subprocess.run(
                [sys.executable, str(self.checkout / "perfbench" / "worker.py"), json.dumps(spec)],
                cwd=self.checkout,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} process timed out after {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} process failed:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _rows_without_wall_time(path: str) -> list[list[str]]:
    with open(Path(path) / "records.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("wall_time")
    return [row[:column] + row[column + 1 :] for row in rows]


def determinism_failures(rounds: list[dict]) -> list[str]:
    """Rounds on the same inputs must give the same records and counts."""
    failures = []
    first = rounds[0]
    reference = _rows_without_wall_time(first["out_dir"])
    for other in rounds[1:]:
        for key in ("cells", "oracle_calls", "iterations"):
            if other[key] != first[key]:
                failures.append(f"{key} differs between rounds: {first[key]} vs {other[key]}")
        if _rows_without_wall_time(other["out_dir"]) != reference:
            failures.append("records.csv differs between rounds apart from wall_time")
    return failures


def trace_failures(traced: dict) -> list[str]:
    spans = traced["spans"]
    failures = []
    self_sum = sum(entry["self_s"] for entry in spans.values())
    if abs(self_sum - traced["span_root_s"]) > 1e-6:
        failures.append(f"self times sum to {self_sum} s, traced run is {traced['span_root_s']} s")
    vg_calls = spans.get("simulator.expectation_and_gradient", {}).get("calls", 0)
    if vg_calls != traced["oracle_calls"]:
        failures.append(f"traced oracle calls {vg_calls} != records' {traced['oracle_calls']}")
    return failures


def end_to_end_metrics(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(setups),
        "run_s": median(r["run_s"] for r in rounds),
        "cpu_s": median(r["cpu_s"] for r in rounds),
        "report_s": median(s for r in rounds for s in r["report_s"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "mean_final_ar": rounds[0]["mean_final_ar"],
    }


def per_layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    spans = traced["spans"]
    report_spans = traced["report_spans"]
    report_calls = len(traced["report_s"])

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name, table=spans):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name, table=spans):
        return table.get(name, {}).get("total_s", 0.0)

    def layer_self(layer):
        return sum(e["self_s"] for n, e in spans.items() if n.split(".")[0] == layer)

    vg_calls = calls("simulator.expectation_and_gradient")
    vg_self = self_s("simulator.expectation_and_gradient")
    return {
        "simulator.vg_calls": vg_calls,
        "simulator.vg_self_s": vg_self,
        "simulator.vg_us_per_call": vg_self / vg_calls * 1e6 if vg_calls else 0.0,
        "simulator.vg_bytes_computed": traced["vg_bytes_computed"],
        "simulator.forward_us": traced["micro"]["forward_us"],
        "simulator.backward_us": traced["micro"]["backward_us"],
        "simulator.eval_calls": calls("simulator.run_circuit"),
        "simulator.eval_self_s": self_s("simulator.run_circuit") + self_s("simulator.expectation"),
        "optimizer.runs": calls("optimizer.optimize_angles"),
        "optimizer.self_s": layer_self("optimizer"),
        "optimizer.iterations": traced["iterations"],
        "optimizer.oracle_calls": vg_calls,
        "optimizer.calls_per_iteration": vg_calls / traced["iterations"] if traced["iterations"] else 0.0,
        "optimizer.converged_frac": traced["converged"] / traced["optimizing"],
        "strategies.cells": calls("strategies.run_strategy"),
        "strategies.self_s": layer_self("strategies"),
        "graphs.max_cut_calls": calls("graphs.max_cut"),
        "graphs.max_cut_s": total_s("graphs.max_cut"),
        "graphs.graph_id_calls": calls("graphs.graph_id"),
        "graphs.graph_id_s": total_s("graphs.graph_id"),
        "graphs.dataset_s": traced["dataset_s"],
        "records.rows_written": calls("records.to_row"),
        "records.to_row_s": total_s("records.to_row"),
        "records.csv_bytes": traced["csv_bytes"],
        "records.read_s": total_s("records.read_records", report_spans) / report_calls,
        "harness.self_s": layer_self("harness"),
        "analysis.report_self_s": self_s("analysis.report", report_spans) / report_calls,
        "bench.self_s": layer_self("bench"),
        "trace.run_s": traced["run_s"],
        "trace.overhead_frac": traced["run_s"] / untraced["run_s"] - 1.0,
    }


def _machine() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
    }


def _git_commit(checkout: Path):
    if not (checkout / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run(args, checkout: Path) -> tuple[dict, dict]:
    """(summary printed as the last line, full result stored on disk)."""
    run_dir = checkout / "perfbench" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(checkout, args, run_dir)

    setups = [runner.child("setup", False) for _ in range(SETUP_SAMPLES - MIN_ROUNDS)]
    if args.trace:
        rounds = [runner.child("round", False), runner.child("round", True)]
    else:
        rounds = []
        measure_start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - measure_start < args.seconds:
            if len(rounds) >= MIN_ROUNDS:
                longest = max(r["run_s"] for r in rounds)
                if runner.elapsed() + longest > RUN_BUDGET_S:
                    break
            rounds.append(runner.child("round", False))
    setup_samples = [s["setup_s"] for s in setups + rounds]

    failures = [f for r in rounds for f in r["failures"]]
    failures += determinism_failures(rounds)
    if args.trace:
        failures += trace_failures(rounds[1])
        metrics = per_layer_metrics(*rounds)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(rounds, setup_samples)
        units = dict(END_TO_END)
    attempted = sum(r["cells"] for r in rounds)
    failed = sum(r["failed_cells"] for r in rounds)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            **_machine(),
            **setups[0]["provenance"],
            "git_commit": _git_commit(checkout),
        },
        "summary": summary,
        "failures": failures,
        "failed_frac": failed / attempted,
        "rounds": rounds,
        "setup_samples": setup_samples,
        "extra_metrics": {k: v for k, v in metrics.items() if k not in units},
    }
    return summary, full


def _print_table(summary: dict, full: dict) -> None:
    print(f"workload {full['workload']}  seed {full['seed']}  trace {full['trace']}  "
          f"rounds {len(full['rounds'])}")
    for name, entry in summary["metrics"].items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in full["extra_metrics"].items():
        print(f"  {name:32s} {value:>16.6g} (not gated)")
    print(f"  {'failed_frac':32s} {full['failed_frac']:>16.6g} cells/cells")
    for failure in full["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "maqaoa" / "__init__.py").is_file():
        print("error: run from the root of a maqaoa checkout (src/maqaoa not found)", file=sys.stderr)
        return 2
    try:
        summary, full = run(args, checkout)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    _print_table(summary, full)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
