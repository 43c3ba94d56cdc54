"""The benchmark's workloads: inputs from a seed, one timed round, checks.

Every workload is closed loop with one caller: a single process runs its
cells one after another with threads=1. Its inputs are built from the
workload seed alone, and the package receives only those inputs.

* n4-acceptance: acceptance fixture 1 (every connected 4-vertex graph,
  p=1..3, 10 replicates, all five strategies; 900 cells on 16 amplitudes).
  Per-call dispatch dominates, so optimizer, harness and records overhead
  weigh most here.
* n8-sweep: the paper's own shape on 256 amplitudes: random connected
  8-vertex graphs, p=1..3, all five strategies. One graph per edge count in
  N8_EDGE_COUNTS, so every seed sweeps the same number of angles and only
  the graphs and the starts change; the graphs are pairwise non-isomorphic
  because their edge counts differ.
* n16-optimize: the library path (optimize_angles from a seeded uniform
  start, then expectation(run_circuit(...)) of the result) on random
  connected 16-vertex graphs with mean degree 3, p=1, 65,536 amplitudes.
  It is the only workload above the simulator's dense-table limit, and the
  harness cannot reach it because graph ids need canonical forms (n <= 12).
  BFGS is capped at N16_MAX_ITERATIONS so that every seed does about the
  same number of oracle calls; uncapped, the call count of one run ranged
  from 53 to 100 over eight seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maqaoa import graphs as m_graphs
from maqaoa import harness as m_harness
from maqaoa import optimizer as m_optimizer
from maqaoa import simulator as m_simulator
from maqaoa import strategies as m_strategies
from maqaoa.records import ExperimentRecord

P_VALUES = (1, 2, 3)
N4_REPLICATES = 10
N8_EDGE_COUNTS = (10, 12, 14, 16, 18, 20)
N16_GRAPHS = 3
N16_EDGES = 24
N16_P = 1
N16_MAX_ITERATIONS = 15
N16_RECHECK_TOLERANCE = 1e-10
# final_ar must lie in [0, 1]; this much float slack is allowed at either end
AR_SLACK = 1e-9

# acceptance bands of fixture 1: (strategy, p) -> (low, high) on the mean AR
N4_BANDS = {
    ("normal", 1): (0.931 - 0.03, 0.931 + 0.03),
    ("normal", 2): (0.995, float("inf")),
    ("normal", 3): (0.995, float("inf")),
    ("rounded_no_opt", 2): (0.973 - 0.03, 0.973 + 0.03),
    ("rounded_no_opt", 3): (0.954 - 0.03, 0.954 + 0.03),
}

OPTIMIZING = ("normal", "random_pi8_opt", "max_degree_zero_opt")


@dataclass
class Inputs:
    graphs: list
    master_seed: int
    start_seeds: list[int]
    p_values: tuple[int, ...]


def workload_rng(name: str, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{name}|{seed}".encode("ascii")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def random_connected(n: int, m: int, rng: np.random.Generator):
    """A uniformly drawn connected graph with n vertices and m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
        g = m_graphs.Graph(n, tuple(pairs[i] for i in chosen))
        if m_graphs.is_connected(g):
            return g


def build_inputs(workload: str, seed: int) -> Inputs:
    """The workload's graphs and seeds; this is the benchmark's set-up work."""
    rng = workload_rng(workload, seed)
    master = int(rng.integers(2**31))
    if workload == "n4-acceptance":
        graphs = m_harness.load_dataset("builtin:n4", master)
        return Inputs(graphs, master, [], P_VALUES)
    if workload == "n8-sweep":
        graphs = [random_connected(8, m, rng) for m in N8_EDGE_COUNTS]
        return Inputs(graphs, master, [], P_VALUES)
    if workload == "n16-optimize":
        graphs = [random_connected(16, N16_EDGES, rng) for _ in range(N16_GRAPHS)]
        starts = [int(s) for s in rng.integers(2**62, size=N16_GRAPHS)]
        return Inputs(graphs, master, starts, (N16_P,))
    raise ValueError(f"unknown workload {workload!r}")


_SWEEPS = ("n4-acceptance", "n8-sweep")


def write_inputs(workload: str, inputs: Inputs, out_dir: Path) -> None:
    """Hand the sweep workloads' graphs to the harness as an edge-list file."""
    if workload in _SWEEPS:
        m_graphs.write_edge_list(inputs.graphs, out_dir / "graphs.edges")


def run_round(workload: str, inputs: Inputs, out_dir: Path, span) -> tuple[list, list[float]]:
    """The timed work of one round; returns (records, n16 recheck gaps).

    Records go to out_dir/records.csv. `span(name)` is a context manager
    opened around the benchmark's own calls into the package.
    """
    if workload in _SWEEPS:
        config = m_harness.RunConfig(
            dataset=f"edges:{out_dir / 'graphs.edges'}",
            p_values=inputs.p_values,
            replicates=N4_REPLICATES if workload == "n4-acceptance" else 1,
            seed=inputs.master_seed,
            out_dir=str(out_dir),
        )
        with span("harness.run_experiment"):
            return m_harness.run_experiment(config), []
    return _library_round(inputs, out_dir, span)


def _library_round(inputs: Inputs, out_dir: Path, span) -> tuple[list, list[float]]:
    config = m_optimizer.OptimizerConfig(max_iterations=N16_MAX_ITERATIONS)
    records = []
    gaps = []
    for index, (g, start_seed) in enumerate(zip(inputs.graphs, inputs.start_seeds)):
        with span("strategies.init_uniform_random"):
            start = m_strategies.init_uniform_random(g, N16_P, start_seed)
        with span("optimizer.optimize_angles"):
            result = m_optimizer.optimize_angles(g, start, config)
        with span("simulator.run_circuit"):
            state = m_simulator.run_circuit(g, result.final_angles)
        with span("simulator.expectation"):
            value = m_simulator.expectation(g, state)
        with span("graphs.max_cut"):
            best = m_graphs.max_cut(g)
        gaps.append(abs(value - result.final_value))
        with span("strategies.normalize_angles"):
            final = m_strategies.normalize_angles(result.final_angles)
        records.append(
            ExperimentRecord(
                graph_id=f"g16-{index}",
                n=g.n,
                edge_count=g.edge_count,
                edges=g.edges,
                p=N16_P,
                strategy="normal",
                replicate=0,
                seed=start_seed,
                initial_ar=result.trace[0] / best,
                final_ar=result.final_value / best,
                final_angles=tuple(float(a) for a in final.flatten()),
                iterations=result.iterations,
                function_evaluations=result.function_evaluations,
                converged=result.converged,
                wall_time=0.0,
            )
        )
    with span("harness.write_records"):
        m_harness.write_records(records, out_dir / "records.csv")
    return records, gaps


def check_round(
    workload: str, records: list, gaps: list[float], inputs: Inputs, csv_path: Path
) -> tuple[int, list[str]]:
    """(cells that failed a check, messages of every failed check)."""
    failures: list[str] = []
    bad_cells = set()
    expected = len(inputs.graphs) * len(inputs.p_values)
    if workload == "n4-acceptance":
        expected *= N4_REPLICATES * len(m_strategies.STRATEGY_KINDS)
    elif workload == "n8-sweep":
        expected *= len(m_strategies.STRATEGY_KINDS)
    if len(records) != expected:
        failures.append(f"{len(records)} records, expected {expected}")
    for i, r in enumerate(records):
        if not -AR_SLACK <= r.final_ar <= 1.0 + AR_SLACK:
            bad_cells.add(i)
            failures.append(f"cell {i}: final_ar {r.final_ar} outside [0, 1]")
        if r.strategy in OPTIMIZING and r.final_ar < r.initial_ar:
            bad_cells.add(i)
            failures.append(f"cell {i}: final_ar {r.final_ar} < start {r.initial_ar}")
    for i, gap in enumerate(gaps):
        if not gap <= N16_RECHECK_TOLERANCE:
            bad_cells.add(i)
            failures.append(f"cell {i}: re-evaluated value differs by {gap}")
    reread = [r.to_row() for r in m_harness.read_records(csv_path)]
    if reread != [r.to_row() for r in records]:
        failures.append("records.csv read back differs from the in-memory records")
    if workload == "n4-acceptance":
        for (kind, p), (low, high) in N4_BANDS.items():
            values = [r.final_ar for r in records if r.strategy == kind and r.p == p]
            mean = statistics.fmean(values) if values else float("nan")
            if not low <= mean <= high:
                failures.append(f"band {kind} p={p}: mean {mean:.4f} outside [{low}, {high}]")
    return len(bad_cells), failures


def vg_passes(n: int, p: int) -> int:
    """Modelled sweeps over a 2^n state in one value-and-gradient call.

    Forward: per layer one phase multiply and n rotations; one read for the
    value. Backward: per layer n overlaps (bra and ket), 2n rotations, one
    conjugate product (two states) and two phase undos.
    """
    return p * (n + 1) + 1 + p * (4 * n + 4)


def vg_bytes_computed(records: list) -> int:
    """Bytes swept by all oracle calls of a round, from the pass model."""
    return sum(
        r.function_evaluations * (1 << r.n) * 16 * vg_passes(r.n, r.p)
        for r in records
        if r.strategy in OPTIMIZING
    )
