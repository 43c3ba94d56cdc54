"""Statistics over experiment records: angle structure and AR comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _find, max_degree_vertices
from .records import STRATEGY_KINDS, ExperimentRecord
from .simulator import AngleVector
from .strategies import PI8, PI8_TOLERANCE, normalize_angles, pi8_multiples

HISTOGRAM_BINS = 16
HISTOGRAM_BIN_LEFT_EDGES = tuple(-np.pi + k * PI8 for k in range(HISTOGRAM_BINS))

#: Two ARs within this distance count as equal in difference summaries.
SAME_AR_TOLERANCE = 5e-4


@dataclass(frozen=True)
class AngleStats:
    total_angles: int
    pi8_multiples: int
    gamma_count: int
    beta_count: int
    histogram: tuple[int, ...]  # 16 pi/8-wide bins over [-pi, pi)

    @property
    def pi8_fraction(self) -> float:
        return self.pi8_multiples / self.total_angles if self.total_angles else 0.0


@dataclass(frozen=True)
class ArDifferenceStats:
    pairs: int
    mean_difference: float
    same_ar_fraction: float
    other_ge_base_fraction: float
    bins: tuple[tuple[float, int], ...]  # (left edge, count)


@dataclass(frozen=True)
class AggregateRow:
    n: int
    p: int
    strategy: str
    mean_ar: float
    std_ar: float
    graph_count: int


@dataclass(frozen=True)
class ForestClass:
    layer: int
    gamma: float
    edges: tuple[tuple[int, int], ...]
    acyclic: bool


@dataclass(frozen=True)
class ForestReport:
    classes: tuple[ForestClass, ...]
    acyclic_fraction: float


def _require_records(records) -> list[ExperimentRecord]:
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    return records


def angle_concentration(records, tolerance: float = PI8_TOLERANCE) -> AngleStats:
    """How strongly final angles cluster on multiples of pi/8.

    Counts every stored angle (normalized to [-pi, pi)) across all records,
    and bins them into 16 pi/8-wide histogram bins.
    """
    records = _require_records(records)
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    total = 0
    multiples = 0
    gamma_count = 0
    beta_count = 0
    for record in records:
        angles = record.angle_vector()
        gamma_count += angles.gamma.size
        beta_count += angles.beta.size
        flat = normalize_angles(angles).flatten()
        total += flat.size
        if flat.size == 0:
            continue
        multiples += int(pi8_multiples(angles.flatten(), tolerance).sum())
        bins = np.clip(
            np.floor((flat + np.pi) / PI8).astype(np.int64), 0, HISTOGRAM_BINS - 1
        )
        counts += np.bincount(bins, minlength=HISTOGRAM_BINS)
    return AngleStats(
        total_angles=total,
        pi8_multiples=multiples,
        gamma_count=gamma_count,
        beta_count=beta_count,
        histogram=tuple(int(c) for c in counts),
    )


def max_degree_zero_fraction(records, tolerance: float = PI8_TOLERANCE) -> float:
    """Fraction of angles at maximum-degree vertices that are (near) zero.

    For every record, every maximum-degree vertex v, and every layer, the
    considered angles are beta_v plus the gamma of each edge incident to v.
    An edge joining two maximum-degree vertices is counted once per endpoint.
    """
    records = _require_records(records)
    near = 0
    total = 0
    for record in records:
        g = record.graph()
        angles = normalize_angles(record.angle_vector())
        gamma = np.abs(angles.gamma)
        beta = np.abs(angles.beta)
        for v in max_degree_vertices(g):
            near += int((beta[:, v] < tolerance).sum())
            total += angles.p
            for k, (a, b) in enumerate(g.edges):
                if v in (a, b):
                    near += int((gamma[:, k] < tolerance).sum())
                    total += angles.p
    return near / total if total else 0.0


def ar_difference_histogram(
    base_records,
    other_records,
    bin_width: float = 0.01,
) -> ArDifferenceStats:
    """Distribution of final AR differences, base minus other.

    Records are paired by (graph id, p, replicate); both sides must cover
    exactly the same keys. Bin k covers [k*bin_width, (k+1)*bin_width).
    """
    base_records = _require_records(base_records)
    other_records = _require_records(other_records)
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")

    def index(records, label):
        table = {}
        for r in records:
            key = (r.graph_id, r.p, r.replicate)
            if key in table:
                raise ValueError(f"duplicate {label} record for {key}")
            table[key] = r
        return table

    base = index(base_records, "base")
    other = index(other_records, "other")
    if base.keys() != other.keys():
        missing = base.keys() ^ other.keys()
        raise ValueError(f"unpaired records for keys: {sorted(missing)[:5]}")

    diffs = np.array(
        [base[k].final_ar - other[k].final_ar for k in sorted(base)], dtype=np.float64
    )
    bin_index = np.floor(diffs / bin_width).astype(np.int64)
    bins = tuple(
        (float(k * bin_width), int((bin_index == k).sum()))
        for k in sorted(set(bin_index.tolist()))
    )
    return ArDifferenceStats(
        pairs=diffs.size,
        mean_difference=float(diffs.mean()),
        same_ar_fraction=float((np.abs(diffs) < SAME_AR_TOLERANCE).mean()),
        other_ge_base_fraction=float((diffs <= 0).mean()),
        bins=bins,
    )


def report_key(record: ExperimentRecord) -> tuple[int, int, int]:
    """(n, p, strategy rank): the row order of every per-strategy table."""
    if record.strategy not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {record.strategy!r}")
    return (record.n, record.p, STRATEGY_KINDS.index(record.strategy))


def aggregate_table(records) -> list[AggregateRow]:
    """Mean and population std of final AR, grouped by (n, p, strategy)."""
    records = _require_records(records)
    groups: dict[tuple[int, int, int], list[ExperimentRecord]] = {}
    for r in records:
        groups.setdefault(report_key(r), []).append(r)

    rows = []
    for key in sorted(groups):
        n, p, rank = key
        ars = np.array([r.final_ar for r in groups[key]], dtype=np.float64)
        rows.append(
            AggregateRow(
                n=n,
                p=p,
                strategy=STRATEGY_KINDS[rank],
                mean_ar=float(ars.mean()),
                std_ar=float(ars.std()),
                graph_count=len({r.graph_id for r in groups[key]}),
            )
        )
    return rows


def forest_check(
    g: Graph, angles: AngleVector, tolerance: float = PI8_TOLERANCE
) -> ForestReport:
    """Group each layer's edges by equal gamma and test the groups for cycles.

    Edges whose normalized gammas sit within tolerance of each other (by
    chaining along the sorted values) form one class; a class is acyclic when
    its edges induce a forest. The report covers all layers; an edgeless
    graph yields no classes and fraction 1.
    """
    if angles.gamma.shape[1] != g.edge_count or angles.beta.shape[1] != g.n:
        raise ValueError("angle shape does not match graph")
    classes: list[ForestClass] = []
    gamma = normalize_angles(angles).gamma
    for layer in range(angles.p):
        values = gamma[layer]
        order = sorted(range(g.edge_count), key=lambda k: values[k])
        cluster: list[int] = []
        clusters: list[list[int]] = []
        for k in order:
            if cluster and values[k] - values[cluster[-1]] >= tolerance:
                clusters.append(cluster)
                cluster = []
            cluster.append(k)
        if cluster:
            clusters.append(cluster)
        for members in clusters:
            edges = tuple(g.edges[k] for k in members)
            parent = list(range(g.n))
            acyclic = True
            for u, v in edges:
                ru, rv = _find(parent, u), _find(parent, v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            classes.append(
                ForestClass(
                    layer=layer,
                    gamma=float(np.mean([values[k] for k in members])),
                    edges=edges,
                    acyclic=acyclic,
                )
            )
    total = len(classes)
    acyclic_count = sum(1 for c in classes if c.acyclic)
    return ForestReport(
        classes=tuple(classes),
        acyclic_fraction=acyclic_count / total if total else 1.0,
    )
