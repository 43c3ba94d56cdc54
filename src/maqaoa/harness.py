"""Experiment harness: sweep graphs x depths x strategies, persist, report.

Runs are deterministic for a fixed master seed: every (graph, strategy, p,
replicate) cell derives its own RNG seed by hashing those coordinates, so
scheduling and worker count never change the numbers. Records are written
to a single CSV in (graph_id, p, strategy, replicate) order, streamed graph
by graph. Wall-clock times are recorded but are the one column excluded
from reproducibility guarantees.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    aggregate_table,
    angle_concentration,
    ar_difference_histogram,
    forest_check,
    max_degree_zero_fraction,
    report_key,
    HISTOGRAM_BIN_LEFT_EDGES,
)
from .graphs import (
    Graph,
    enumerate_connected,
    random_nonisomorphic_connected,
    read_edge_list,
    read_graph6,
)
# read_records and write_records are also this module's public names
from .records import (
    CSV_HEADER,
    STRATEGY_KINDS,
    ExperimentRecord,
    csv_table,
    format_float,
    read_records,
    write_records,
)
from .strategies import run_strategy

_COMPARISONS = ("rounded_no_opt", "random_pi8_opt", "max_degree_zero_opt")


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    p_values: tuple[int, ...] = (1, 2, 3)
    strategies: tuple[str, ...] = STRATEGY_KINDS
    replicates: int = 1
    seed: int = 0
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_values", tuple(self.p_values))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.p_values or any(p < 1 for p in self.p_values):
            raise ValueError(f"p values must all be >= 1, got {self.p_values}")
        if len(set(self.p_values)) != len(self.p_values):
            raise ValueError(f"p values must be distinct, got {self.p_values}")
        unknown = [s for s in self.strategies if s not in STRATEGY_KINDS]
        if unknown:
            raise ValueError(f"unknown strategies: {unknown}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if "rounded_no_opt" in self.strategies and "normal" not in self.strategies:
            raise ValueError("rounded_no_opt requires the normal strategy")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def derive_seed(master: int, graph_id: str, kind: str, p: int, replicate: int) -> int:
    """Stable 63-bit seed for one experiment cell."""
    text = f"{master}|{graph_id}|{kind}|{p}|{replicate}"
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_dataset(spec: str, master_seed: int) -> list[Graph]:
    """Resolve a dataset spec string to a list of graphs.

    Supported forms: builtin:nK for the connected K-vertex catalog (K <= 6),
    g6:PATH for a graph6 file, edges:PATH for an edge-list file, and
    random:n=9,count=50[,seed=S] for seeded random non-isomorphic connected
    graphs (seed defaults to a value derived from the master seed).
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"dataset spec {spec!r} has no ':'")
    if kind == "builtin":
        if not arg.startswith("n"):
            raise ValueError(f"builtin dataset must look like n4, got {arg!r}")
        return enumerate_connected(int(arg[1:]))
    if kind == "g6":
        return read_graph6(arg)
    if kind == "edges":
        return read_edge_list(arg)
    if kind == "random":
        params: dict[str, int] = {}
        for item in arg.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"bad random dataset parameter {item!r}")
            params[key.strip()] = int(value)
        extra = set(params) - {"n", "count", "seed"}
        if extra or "n" not in params or "count" not in params:
            raise ValueError(
                f"random dataset needs n= and count= (optional seed=), got {arg!r}"
            )
        seed = params.get("seed", derive_seed(master_seed, "dataset", "random", 0, 0))
        return random_nonisomorphic_connected(params["n"], params["count"], seed)
    raise ValueError(f"unknown dataset kind {kind!r}")


def _graph_records(g: Graph, config: RunConfig) -> list[ExperimentRecord]:
    records = []
    for p in config.p_values:
        for replicate in range(config.replicates):
            normal_record = None
            for kind in STRATEGY_KINDS:
                if kind not in config.strategies:
                    continue
                seed = derive_seed(config.seed, g.id, kind, p, replicate)
                record = run_strategy(
                    g, kind, p, seed, prior=normal_record, replicate=replicate
                )
                if kind == "normal":
                    normal_record = record
                records.append(record)
    records.sort(key=lambda r: (r.p, STRATEGY_KINDS.index(r.strategy), r.replicate))
    return records


def run_experiment(config: RunConfig) -> list[ExperimentRecord]:
    """Run the full sweep; stream records to out_dir/records.csv if set.

    Graphs are processed in graph-id order and each graph's block is written
    as soon as it completes, so interrupted runs leave a readable prefix.
    """
    # cells are keyed by graph id, so isomorphic graphs would repeat them
    by_id: dict[str, Graph] = {}
    for g in load_dataset(config.dataset, config.seed):
        gid = g.id
        if gid in by_id:
            raise ValueError(f"dataset holds isomorphic graphs with id {gid}")
        by_id[gid] = g
    graphs = [by_id[gid] for gid in sorted(by_id)]

    all_records: list[ExperimentRecord] = []
    with contextlib.ExitStack() as stack:
        write = None
        if config.out_dir is not None:
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write = stack.enter_context(csv_table(out / "records.csv", CSV_HEADER))
        # map and the pool's map both yield blocks in graph order
        mapper = map
        if config.threads > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=config.threads)
            mapper = stack.enter_context(pool).map
        for block in mapper(_graph_records, graphs, itertools.repeat(config)):
            all_records.extend(block)
            if write is not None:
                write(r.to_row() for r in block)
    return all_records


def report(records_path, out_dir) -> list[Path]:
    """Produce the analysis CSVs for a records file; returns written paths.

    Outputs: aggregate.csv, angle_concentration.csv, angle_histogram.csv,
    max_degree_zero.csv, forest_summary.csv, and (when the paired strategies
    are present) ar_difference_summary.csv and ar_difference_histogram.csv.
    Deterministic: the same records file yields byte-identical outputs.
    """
    records = read_records(records_path)
    blocks: dict[tuple[int, int, int], list[ExperimentRecord]] = {}
    cells = set()
    for record in records:
        cell = (record.graph_id, record.p, record.strategy, record.replicate)
        if cell in cells:
            raise ValueError(f"{records_path}: cell {cell} appears twice")
        cells.add(cell)
        blocks.setdefault(report_key(record), []).append(record)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header, rows) -> None:
        path = out / name
        with csv_table(path, header) as write:
            write(rows)
        written.append(path)

    emit(
        "aggregate.csv",
        ("n", "p", "strategy", "mean_ar", "std_ar", "graph_count"),
        (
            (
                row.n,
                row.p,
                row.strategy,
                format_float(row.mean_ar),
                format_float(row.std_ar),
                row.graph_count,
            )
            for row in aggregate_table(records)
        ),
    )

    concentration_rows = []
    histogram_rows = []
    zero_rows = []
    forest_rows = []
    for n, p, rank in sorted(blocks):
        block = blocks[n, p, rank]
        group = (n, p, STRATEGY_KINDS[rank])
        stats = angle_concentration(block)
        concentration_rows.append(
            (
                *group,
                stats.total_angles,
                stats.pi8_multiples,
                format_float(stats.pi8_fraction),
                stats.gamma_count,
                stats.beta_count,
            )
        )
        for left, count in zip(HISTOGRAM_BIN_LEFT_EDGES, stats.histogram):
            histogram_rows.append((*group, format_float(left), count))
        zero_rows.append((*group, format_float(max_degree_zero_fraction(block))))
        fractions = [
            forest_check(r.graph(), r.angle_vector()).acyclic_fraction for r in block
        ]
        forest_rows.append(
            (*group, format_float(sum(fractions) / len(fractions)), len(block))
        )

    emit(
        "angle_concentration.csv",
        (
            "n",
            "p",
            "strategy",
            "total_angles",
            "pi8_multiples",
            "pi8_fraction",
            "gamma_count",
            "beta_count",
        ),
        concentration_rows,
    )
    emit(
        "angle_histogram.csv",
        ("n", "p", "strategy", "bin_left", "count"),
        histogram_rows,
    )
    emit("max_degree_zero.csv", ("n", "p", "strategy", "zero_fraction"), zero_rows)
    emit(
        "forest_summary.csv",
        ("n", "p", "strategy", "mean_acyclic_fraction", "records"),
        forest_rows,
    )

    summary_rows = []
    diff_histogram_rows = []
    normal = STRATEGY_KINDS.index("normal")
    for n, p, rank in sorted(blocks):
        if rank != normal:
            continue
        for other_kind in _COMPARISONS:
            other = blocks.get((n, p, STRATEGY_KINDS.index(other_kind)))
            if other is None:
                continue
            stats = ar_difference_histogram(blocks[n, p, rank], other)
            label = f"normal-{other_kind}"
            summary_rows.append(
                (
                    n,
                    p,
                    label,
                    stats.pairs,
                    format_float(stats.mean_difference),
                    format_float(stats.same_ar_fraction),
                    format_float(stats.other_ge_base_fraction),
                )
            )
            for left, count in stats.bins:
                diff_histogram_rows.append((n, p, label, format_float(left), count))
    if summary_rows:
        emit(
            "ar_difference_summary.csv",
            (
                "n",
                "p",
                "comparison",
                "pairs",
                "mean_difference",
                "same_ar_fraction",
                "other_ge_base_fraction",
            ),
            summary_rows,
        )
        emit(
            "ar_difference_histogram.csv",
            ("n", "p", "comparison", "bin_left", "count"),
            diff_histogram_rows,
        )
    return written
