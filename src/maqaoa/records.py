"""Experiment records and the package's one CSV dialect.

One record captures one strategy run on one graph at one depth. Records are
self-contained: they carry the edge list, so every downstream analysis can
rebuild the graph without a sidecar file.

Every CSV the package writes, records and report tables alike, uses one
dialect: ASCII, "\\n" line ends, a header row first (see `csv_table`).
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .graphs import Graph
from .simulator import AngleVector

#: The strategy column's domain, in report order.
STRATEGY_KINDS = (
    "normal",
    "rounded_no_opt",
    "random_pi8_opt",
    "max_degree_zero_no_opt",
    "max_degree_zero_opt",
)


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def _join_edges(edges) -> str:
    return ";".join([f"{u}-{v}" for u, v in edges])


def _split_edges(cell: str) -> tuple[tuple[int, ...], ...]:
    pairs = (pair.split("-") for pair in cell.split(";") if pair)
    return tuple(tuple(int(x) for x in pair) for pair in pairs)


def _join_floats(values) -> str:
    # "%.12g" % x equals format_float(x); one %-format call covers the list
    return ("%.12g;" * len(values) % tuple(values))[:-1]


def _split_floats(cell: str) -> tuple[float, ...]:
    return tuple(float(x) for x in cell.split(";") if x)


def _strategy(cell: str) -> str:
    if cell not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {cell!r}")
    return cell


def _true_false(flag: bool) -> str:
    return "true" if flag else "false"


def _flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"converged must be 'true' or 'false', got {cell!r}")
    return cell == "true"


def _column(encode, decode):
    """A record field that is also a CSV column, with its text codec."""
    return field(metadata={"encode": encode, "decode": decode})


@dataclass(frozen=True)
class ExperimentRecord:
    # the fields in CSV column order
    graph_id: str = _column(str, str)
    n: int = _column(str, int)
    edge_count: int = _column(str, int)
    edges: tuple[tuple[int, int], ...] = _column(_join_edges, _split_edges)
    p: int = _column(str, int)
    strategy: str = _column(str, _strategy)
    replicate: int = _column(str, int)
    seed: int = _column(str, int)
    initial_ar: float = _column(format_float, float)
    final_ar: float = _column(format_float, float)
    final_angles: tuple[float, ...] = _column(_join_floats, _split_floats)
    iterations: int = _column(str, int)
    function_evaluations: int = _column(str, int)
    converged: bool = _column(_true_false, _flag)
    wall_time: float = _column(format_float, float)

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def angle_vector(self) -> AngleVector:
        """The stored flat angles, reshaped to (p, edges) and (p, vertices)."""
        return AngleVector.unflatten(
            np.asarray(self.final_angles, dtype=np.float64),
            self.p,
            self.edge_count,
            self.n,
        )

    def to_row(self) -> list[str]:
        return [encode(value) for encode, value in zip(_ENCODERS, _values(self))]

    @classmethod
    def from_row(cls, row: list[str]) -> "ExperimentRecord":
        """Decode one CSV row; raise ValueError on any cell `report` would misread."""
        if len(row) != len(CSV_HEADER):
            raise ValueError(
                f"expected {len(CSV_HEADER)} columns, got {len(row)}: {row!r}"
            )
        columns = zip(CSV_HEADER, _DECODERS, row)
        values = {name: decode(cell) for name, decode, cell in columns}
        n, p, edges = values["n"], values["p"], values["edges"]
        edge_count, angles = values["edge_count"], values["final_angles"]
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if edge_count != len(edges):
            raise ValueError(f"edge_count {edge_count} != {len(edges)} listed edges")
        if Graph(n, edges).edges != edges:
            raise ValueError("edges must be sorted pairs u-v with u < v")
        if len(angles) != p * (edge_count + n):
            raise ValueError(
                f"expected {p * (edge_count + n)} final angles for p={p}, "
                f"{edge_count} edges, {n} vertices; got {len(angles)}"
            )
        for name in ("initial_ar", "final_ar"):
            if not math.isfinite(values[name]):
                raise ValueError(f"{name} must be finite, got {values[name]}")
        if not all(map(math.isfinite, angles)):
            raise ValueError("final angles must be finite")
        return cls(**values)


CSV_HEADER = tuple(f.name for f in fields(ExperimentRecord))
_ENCODERS = tuple(f.metadata["encode"] for f in fields(ExperimentRecord))
_DECODERS = tuple(f.metadata["decode"] for f in fields(ExperimentRecord))
_values = operator.attrgetter(*CSV_HEADER)


@contextlib.contextmanager
def csv_table(path, header):
    """Open a CSV in the package dialect and yield `write(rows)`.

    Each `write` reaches the file before it returns, so a stream of blocks
    leaves a readable prefix if the writer is interrupted.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)

        def write(rows) -> None:
            writer.writerows(rows)
            fh.flush()

        yield write


def write_records(records, path) -> None:
    with csv_table(path, CSV_HEADER) as write:
        write(r.to_row() for r in records)


def read_records(path) -> list[ExperimentRecord]:
    """Every record of a records CSV; a row that fails to decode names its line."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ValueError(f"unexpected header in {path}: {header}")
        records = []
        for row in reader:
            if not row:
                continue
            try:
                records.append(ExperimentRecord.from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"no records in {path}")
    return records
