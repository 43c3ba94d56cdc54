"""Experiment records and their CSV serialization.

One record captures one strategy run on one graph at one depth. Records are
self-contained: they carry the edge list, so every downstream analysis can
rebuild the graph without a sidecar file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .simulator import AngleVector

CSV_HEADER = (
    "graph_id",
    "n",
    "edge_count",
    "edges",
    "p",
    "strategy",
    "replicate",
    "seed",
    "initial_ar",
    "final_ar",
    "final_angles",
    "iterations",
    "function_evaluations",
    "converged",
    "wall_time",
)


def format_float(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ExperimentRecord:
    graph_id: str
    n: int
    edge_count: int
    edges: tuple[tuple[int, int], ...]
    p: int
    strategy: str
    replicate: int
    seed: int
    initial_ar: float
    final_ar: float
    final_angles: tuple[float, ...]
    iterations: int
    function_evaluations: int
    converged: bool
    wall_time: float

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
        return [
            self.graph_id,
            str(self.n),
            str(self.edge_count),
            ";".join(f"{u}-{v}" for u, v in self.edges),
            str(self.p),
            self.strategy,
            str(self.replicate),
            str(self.seed),
            format_float(self.initial_ar),
            format_float(self.final_ar),
            ";".join(format_float(a) for a in self.final_angles),
            str(self.iterations),
            str(self.function_evaluations),
            "true" if self.converged else "false",
            format_float(self.wall_time),
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "ExperimentRecord":
        if len(row) != len(CSV_HEADER):
            raise ValueError(
                f"expected {len(CSV_HEADER)} columns, got {len(row)}: {row!r}"
            )
        edges = tuple(
            tuple(int(x) for x in pair.split("-"))
            for pair in row[3].split(";")
            if pair
        )
        angles = tuple(float(a) for a in row[10].split(";") if a)
        n, edge_count, p = int(row[1]), int(row[2]), int(row[4])
        if edge_count != len(edges):
            raise ValueError(f"edge_count {edge_count} != {len(edges)} listed edges")
        if len(angles) != p * (edge_count + n):
            raise ValueError(
                f"expected {p * (edge_count + n)} final angles for p={p}, "
                f"{edge_count} edges, {n} vertices; got {len(angles)}"
            )
        if row[13] not in ("true", "false"):
            raise ValueError(f"converged must be 'true' or 'false', got {row[13]!r}")
        return cls(
            graph_id=row[0],
            n=n,
            edge_count=edge_count,
            edges=edges,  # type: ignore[arg-type]
            p=p,
            strategy=row[5],
            replicate=int(row[6]),
            seed=int(row[7]),
            initial_ar=float(row[8]),
            final_ar=float(row[9]),
            final_angles=angles,
            iterations=int(row[11]),
            function_evaluations=int(row[12]),
            converged=row[13] == "true",
            wall_time=float(row[14]),
        )
