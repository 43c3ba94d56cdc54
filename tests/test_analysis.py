import math

import numpy as np
import pytest

from maqaoa import (
    AngleVector,
    ExperimentRecord,
    Graph,
    PI8,
    aggregate_table,
    angle_concentration,
    ar_difference_histogram,
    forest_check,
    init_random_pi8,
    max_degree_zero_fraction,
    run_strategy,
)
from maqaoa.analysis import HISTOGRAM_BINS, HISTOGRAM_BIN_LEFT_EDGES


def make_record(g: Graph, angles, *, p=1, strategy="normal", graph_id=None,
                replicate=0, final_ar=0.9):
    flat = tuple(float(a) for a in np.asarray(angles, dtype=np.float64).ravel())
    return ExperimentRecord(
        graph_id=graph_id or g.id,
        n=g.n,
        edge_count=g.edge_count,
        edges=g.edges,
        p=p,
        strategy=strategy,
        replicate=replicate,
        seed=0,
        initial_ar=final_ar,
        final_ar=final_ar,
        final_angles=flat,
        iterations=0,
        function_evaluations=1,
        converged=True,
        wall_time=0.0,
    )


# ----- angle concentration -----

def test_histogram_bin_edges():
    assert HISTOGRAM_BINS == 16
    np.testing.assert_allclose(
        HISTOGRAM_BIN_LEFT_EDGES, [-math.pi + k * PI8 for k in range(16)]
    )


def test_angle_concentration_all_multiples(k2):
    record = make_record(k2, [math.pi / 4, math.pi / 4, math.pi / 4])
    stats = angle_concentration([record])
    assert stats.total_angles == 3
    assert stats.pi8_multiples == 3
    assert stats.pi8_fraction == 1.0
    assert sum(stats.histogram) == 3


def test_angle_concentration_two_of_three(k2):
    # gamma = pi/8, betas = 0.5 and -pi: exactly two pi/8 multiples
    record = make_record(k2, [PI8, 0.5, -math.pi])
    stats = angle_concentration([record])
    assert stats.total_angles == 3
    assert stats.pi8_multiples == 2
    assert abs(stats.pi8_fraction - 2 / 3) < 1e-12
    assert stats.gamma_count == 1
    assert stats.beta_count == 2


def test_angle_concentration_on_pi8_init_is_total(path4):
    angles = init_random_pi8(path4, 2, seed=1)
    record = make_record(path4, angles.flatten(), p=2)
    stats = angle_concentration([record], tolerance=1e-12)
    assert stats.pi8_multiples == stats.total_angles == 14


def test_angle_concentration_rejects_empty():
    with pytest.raises(ValueError):
        angle_concentration([])


def test_angle_concentration_histogram_placement(k2):
    # -pi lands in bin 0, 0 in bin 8, just-below-pi in bin 15
    record = make_record(k2, [-math.pi, 0.0, math.pi - 1e-9])
    stats = angle_concentration([record])
    assert stats.histogram[0] == 1
    assert stats.histogram[8] == 1
    assert stats.histogram[15] == 1


# ----- max-degree zero fraction -----

def test_max_degree_zero_fraction_by_construction(star4):
    record = run_strategy(star4, "max_degree_zero_no_opt", 2, 2)
    assert max_degree_zero_fraction([record]) == 1.0


def test_max_degree_zero_fraction_all_quarter_pi(k4):
    angles = np.full(2 * (6 + 4), math.pi / 4)
    record = make_record(k4, angles, p=2)
    assert max_degree_zero_fraction([record]) == 0.0


def test_max_degree_zero_fraction_k4_zero_angles(k4):
    record = make_record(k4, np.zeros(6 + 4))
    assert max_degree_zero_fraction([record]) == 1.0


def test_max_degree_zero_fraction_counts_only_top_vertices(star4):
    # center beta zero and all gammas zero, leaves nonzero: leaves are not
    # max degree, so the fraction only sees the zeroed angles
    angles = AngleVector([[0.0, 0.0, 0.0]], [[0.0, 0.5, 0.5, 0.5]])
    record = make_record(star4, angles.flatten())
    assert max_degree_zero_fraction([record]) == 1.0


# ----- AR difference histogram -----

def test_ar_difference_identical_sets(k2, triangle):
    records = [
        make_record(k2, [0.1, 0.2, 0.3], final_ar=0.8),
        make_record(triangle, [0.1] * 6, final_ar=1.0),
    ]
    stats = ar_difference_histogram(records, records)
    assert stats.pairs == 2
    assert stats.mean_difference == 0.0
    assert stats.same_ar_fraction == 1.0
    assert stats.other_ge_base_fraction == 1.0
    assert stats.bins == ((0.0, 2),)


def test_ar_difference_single_pair(k2):
    base = [make_record(k2, [0.0] * 3, final_ar=0.9)]
    other = [make_record(k2, [0.0] * 3, final_ar=0.8)]
    stats = ar_difference_histogram(base, other)
    assert stats.pairs == 1
    assert abs(stats.mean_difference - 0.1) < 1e-12
    assert stats.same_ar_fraction == 0.0
    assert stats.other_ge_base_fraction == 0.0
    assert len(stats.bins) == 1
    left, count = stats.bins[0]
    assert count == 1
    assert left <= 0.1 < left + 0.01 + 1e-12


def test_ar_difference_duplicate_keys_rejected(k2):
    records = [make_record(k2, [0.0] * 3), make_record(k2, [0.1] * 3)]
    with pytest.raises(ValueError):
        ar_difference_histogram(records, records)


def test_ar_difference_unpaired_keys_rejected(k2, triangle):
    base = [make_record(k2, [0.0] * 3)]
    other = [make_record(triangle, [0.0] * 6)]
    with pytest.raises(ValueError):
        ar_difference_histogram(base, other)


# ----- aggregate table -----

def test_aggregate_single_record(k2):
    rows = aggregate_table([make_record(k2, [0.0] * 3, final_ar=0.9)])
    assert len(rows) == 1
    row = rows[0]
    assert (row.n, row.p, row.strategy) == (2, 1, "normal")
    assert row.mean_ar == 0.9
    assert row.std_ar == 0.0
    assert row.graph_count == 1


def test_aggregate_population_std(k2, triangle):
    records = [
        make_record(k2, [0.0] * 3, final_ar=0.8),
        make_record(triangle, [0.0] * 6, final_ar=1.0),
    ]
    rows = aggregate_table(records)
    assert len(rows) == 2  # n=2 and n=3 group separately
    merged = aggregate_table(
        [r for r in records if r.n == 2]
        + [make_record(k2, [0.1] * 3, final_ar=1.0, replicate=1)]
    )
    assert abs(merged[0].mean_ar - 0.9) < 1e-12
    assert abs(merged[0].std_ar - 0.1) < 1e-12


def test_aggregate_order_and_permutation_invariance(k2, triangle):
    records = [
        make_record(triangle, [0.0] * 6, strategy="random_pi8_opt", p=2),
        make_record(k2, [0.0] * 3, strategy="normal", p=1),
        make_record(k2, [0.0] * 3, strategy="rounded_no_opt", p=1),
        make_record(k2, [0.0] * 3, strategy="normal", p=2),
    ]
    rows = aggregate_table(records)
    keys = [(r.n, r.p, r.strategy) for r in rows]
    assert keys == [
        (2, 1, "normal"),
        (2, 1, "rounded_no_opt"),
        (2, 2, "normal"),
        (3, 2, "random_pi8_opt"),
    ]
    assert aggregate_table(records[::-1]) == rows


# ----- forest check -----

def test_forest_check_path_always_acyclic(path4):
    rng = np.random.default_rng(3)
    for _ in range(3):
        angles = AngleVector(
            rng.uniform(-math.pi, math.pi, (2, 3)),
            rng.uniform(-math.pi, math.pi, (2, 4)),
        )
        report = forest_check(path4, angles)
        assert report.acyclic_fraction == 1.0


def test_forest_check_triangle_equal_gammas(triangle):
    angles = AngleVector([[0.5, 0.5, 0.5]], [[0.0, 0.0, 0.0]])
    report = forest_check(triangle, angles)
    assert len(report.classes) == 1
    assert not report.classes[0].acyclic
    assert report.acyclic_fraction == 0.0


def test_forest_check_triangle_distinct_gammas(triangle):
    angles = AngleVector([[0.1, 0.9, 1.7]], [[0.0, 0.0, 0.0]])
    report = forest_check(triangle, angles)
    assert len(report.classes) == 3
    assert report.acyclic_fraction == 1.0


def test_forest_check_clusters_within_tolerance(triangle):
    angles = AngleVector([[0.5, 0.5 + 1e-5, 1.5]], [[0.0] * 3])
    report = forest_check(triangle, angles, tolerance=1e-4)
    assert len(report.classes) == 2
    sizes = sorted(len(c.edges) for c in report.classes)
    assert sizes == [1, 2]
    assert report.acyclic_fraction == 1.0


def test_forest_check_per_layer(c4):
    angles = AngleVector([[0.2] * 4, [0.2, 0.9, 0.2, 0.9]], np.zeros((2, 4)))
    report = forest_check(c4, angles)
    layers = {}
    for cls in report.classes:
        layers.setdefault(cls.layer, []).append(cls)
    assert not any(c.acyclic for c in layers[0])  # all four edges, one cycle
    assert all(c.acyclic for c in layers[1])  # split into two matchings
    assert abs(report.acyclic_fraction - 2 / 3) < 1e-12


def test_forest_check_edgeless_graph():
    g = Graph(3)
    report = forest_check(g, AngleVector(np.zeros((1, 0)), np.zeros((1, 3))))
    assert report.classes == ()
    assert report.acyclic_fraction == 1.0


def test_forest_check_shape_mismatch(triangle):
    with pytest.raises(ValueError):
        forest_check(triangle, AngleVector(np.zeros((1, 2)), np.zeros((1, 3))))
