"""Statistics of final angles and approximation ratios, as `report` tabulates them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _find, max_degree_incidence
from .simulator import AngleVector, _check_angles
from .strategies import PI8, PI8_TOLERANCE, normalize_angles, pi8_multiples

HISTOGRAM_BINS = 16
HISTOGRAM_BIN_LEFT_EDGES = tuple(-np.pi + k * PI8 for k in range(HISTOGRAM_BINS))

#: Two ARs within this distance count as equal in difference summaries.
SAME_AR_TOLERANCE = 5e-4
#: Width of the bins of the AR difference histogram.
AR_DIFFERENCE_BIN_WIDTH = 0.01


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


def _require_nonempty(items) -> list:
    items = list(items)
    if not items:
        raise ValueError("empty input")
    return items


def angle_concentration(angle_vectors) -> AngleStats:
    """How strongly angles cluster on multiples of pi/8.

    Counts every angle (normalized to [-pi, pi)) across all angle vectors,
    and bins them into 16 pi/8-wide histogram bins.
    """
    angle_vectors = _require_nonempty(angle_vectors)
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    multiples = 0
    for angles in angle_vectors:
        flat = normalize_angles(angles).flatten()
        multiples += int(pi8_multiples(flat).sum())
        bins = np.clip(
            np.floor((flat + np.pi) / PI8).astype(np.int64), 0, HISTOGRAM_BINS - 1
        )
        counts += np.bincount(bins, minlength=HISTOGRAM_BINS)
    gamma_count = sum(angles.gamma.size for angles in angle_vectors)
    beta_count = sum(angles.beta.size for angles in angle_vectors)
    return AngleStats(
        total_angles=gamma_count + beta_count,
        pi8_multiples=multiples,
        gamma_count=gamma_count,
        beta_count=beta_count,
        histogram=tuple(int(c) for c in counts),
    )


def max_degree_zero_fraction(graphs, angle_vectors) -> float:
    """Fraction of angles at maximum-degree vertices that are (near) zero.

    For every (graph, angles) pair, maximum-degree vertex v and layer, the
    considered angles are beta_v plus the gamma of each edge incident to v.
    An edge joining two maximum-degree vertices is counted once per endpoint.
    """
    pairs = _require_nonempty(zip(graphs, angle_vectors, strict=True))
    near = 0
    total = 0
    for g, angles in pairs:
        _check_angles(g, angles)
        hits, top = max_degree_incidence(g)
        angles = normalize_angles(angles)
        near += int((np.abs(angles.beta[:, top]) < PI8_TOLERANCE).sum())
        near += int((hits * (np.abs(angles.gamma) < PI8_TOLERANCE)).sum())
        total += angles.p * int(top.sum() + hits.sum())
    return near / total


def ar_difference_histogram(base_records, other_records) -> ArDifferenceStats:
    """Distribution of final AR differences, base minus other.

    Records are paired by (graph id, p, replicate); both sides must cover
    exactly the same keys. Bin k covers [k*w, (k+1)*w) for the width w of
    AR_DIFFERENCE_BIN_WIDTH.
    """
    base_records = _require_nonempty(base_records)
    other_records = _require_nonempty(other_records)

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
    bin_index = np.floor(diffs / AR_DIFFERENCE_BIN_WIDTH).astype(np.int64)
    bins = tuple(
        (float(k * AR_DIFFERENCE_BIN_WIDTH), int((bin_index == k).sum()))
        for k in sorted(set(bin_index.tolist()))
    )
    return ArDifferenceStats(
        pairs=diffs.size,
        mean_difference=float(diffs.mean()),
        same_ar_fraction=float((np.abs(diffs) < SAME_AR_TOLERANCE).mean()),
        other_ge_base_fraction=float((diffs <= 0).mean()),
        bins=bins,
    )


def forest_check(g: Graph, angles: AngleVector) -> float:
    """Fraction of each layer's equal-gamma edge classes that induce a forest.

    Edges whose normalized gammas sit within PI8_TOLERANCE of each other (by
    chaining along the sorted values, and across +-pi) form one class. The
    fraction is over the classes of all layers; an edgeless graph gives 1.
    """
    _check_angles(g, angles)
    if not g.edge_count:
        return 1.0
    classes = 0
    forests = 0
    for values in normalize_angles(angles).gamma.tolist():
        order = sorted(range(g.edge_count), key=values.__getitem__)
        members = [[order[0]]]
        for prev, k in zip(order, order[1:]):
            if values[k] - values[prev] >= PI8_TOLERANCE:
                members.append([])
            members[-1].append(k)
        # gammas are angles mod 2*pi: the last class joins the first when
        # they meet across +-pi
        wrap_gap = values[order[0]] + 2.0 * np.pi - values[order[-1]]
        if len(members) > 1 and wrap_gap < PI8_TOLERANCE:
            members[0] += members.pop()
        classes += len(members)
        for cls in members:
            parent = list(range(g.n))
            for k in cls:
                u, v = g.edges[k]
                ru, rv = _find(parent, u), _find(parent, v)
                if ru == rv:
                    break
                parent[ru] = rv
            else:
                forests += 1
    return forests / classes
