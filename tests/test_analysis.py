import csv
import math

import numpy as np
import pytest

from maqaoa import (
    AngleVector,
    ExperimentRecord,
    Graph,
    PI8,
    PI8_TOLERANCE,
    angle_concentration,
    ar_difference_histogram,
    enumerate_connected,
    forest_check,
    init_random_pi8,
    max_degree_zero_fraction,
    report,
    round_to_pi8,
    run_strategy,
    write_records,
)
from maqaoa.analysis import HISTOGRAM_BINS, HISTOGRAM_BIN_LEFT_EDGES
from maqaoa.graphs import max_degree_incidence
from oracles import naive_forest_fraction, naive_max_degree_zero_fraction


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


def test_angle_concentration_all_multiples():
    stats = angle_concentration([AngleVector([[math.pi / 4]], [[math.pi / 4] * 2])])
    assert stats.total_angles == 3
    assert stats.pi8_multiples == 3
    assert stats.pi8_fraction == 1.0
    assert sum(stats.histogram) == 3


def test_angle_concentration_two_of_three():
    # gamma = pi/8, betas = 0.5 and -pi: exactly two pi/8 multiples
    stats = angle_concentration([AngleVector([[PI8]], [[0.5, -math.pi]])])
    assert stats.total_angles == 3
    assert stats.pi8_multiples == 2
    assert abs(stats.pi8_fraction - 2 / 3) < 1e-12
    assert stats.gamma_count == 1
    assert stats.beta_count == 2


def test_angle_concentration_on_pi8_init_is_total(path4):
    angles = init_random_pi8(path4, 2, seed=1)
    flat = angles.flatten()
    np.testing.assert_allclose(flat, round_to_pi8(flat), rtol=0, atol=1e-12)
    stats = angle_concentration([angles])
    assert stats.pi8_multiples == stats.total_angles == 14


def test_angle_concentration_rejects_empty():
    with pytest.raises(ValueError):
        angle_concentration([])


def test_angle_concentration_histogram_placement():
    # -pi lands in bin 0, 0 in bin 8, just-below-pi in bin 15
    stats = angle_concentration([AngleVector([[-math.pi]], [[0.0, math.pi - 1e-9]])])
    assert stats.histogram[0] == 1
    assert stats.histogram[8] == 1
    assert stats.histogram[15] == 1


# ----- max-degree zero fraction -----

def test_max_degree_zero_fraction_by_construction(star4):
    for g in [star4, *enumerate_connected(5)]:
        for p in (1, 2):
            record = run_strategy(g, "max_degree_zero_no_opt", p, 2)
            assert max_degree_zero_fraction([g], [record.angle_vector()]) == 1.0


def test_max_degree_zero_fraction_matches_per_vertex_reference():
    graphs = enumerate_connected(5)
    assert len(graphs) == 21
    # some graphs join two maximum-degree vertices by an edge, K5 among them
    assert sum(int((max_degree_incidence(g)[0] == 2).any()) for g in graphs) > 1
    rng = np.random.default_rng(21)
    pairs = []
    for g in graphs:
        for p in (1, 2):
            angles = rng.uniform(-math.pi, math.pi, p * (g.edge_count + g.n))
            # about half the angles within twice the tolerance of 0 mod 2*pi
            near = rng.random(angles.size) < 0.5
            angles[near] = rng.uniform(-2, 2, near.sum()) * PI8_TOLERANCE
            angles[near] += 2 * math.pi * rng.integers(-1, 2, near.sum())
            pairs.append((g, AngleVector.unflatten(angles, p, g.edge_count, g.n)))
    for g, angles in pairs:
        expected = naive_max_degree_zero_fraction([g], [angles])
        assert max_degree_zero_fraction([g], [angles]) == expected
    graph_list, angle_list = zip(*pairs)
    expected = naive_max_degree_zero_fraction(graph_list, angle_list)
    assert 0.0 < expected < 1.0
    assert max_degree_zero_fraction(graph_list, angle_list) == expected


def test_max_degree_zero_fraction_all_quarter_pi(k4):
    angles = AngleVector(np.full((2, 6), math.pi / 4), np.full((2, 4), math.pi / 4))
    assert max_degree_zero_fraction([k4], [angles]) == 0.0


def test_max_degree_zero_fraction_k4_zero_angles(k4):
    angles = AngleVector(np.zeros((1, 6)), np.zeros((1, 4)))
    assert max_degree_zero_fraction([k4], [angles]) == 1.0


def test_max_degree_zero_fraction_rejects_empty_and_unpaired(k4):
    angles = AngleVector(np.zeros((1, 6)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        max_degree_zero_fraction([], [])
    with pytest.raises(ValueError):
        max_degree_zero_fraction([k4, k4], [angles])


def test_max_degree_zero_fraction_rejects_angles_of_another_graph(star4):
    # a width-1 gamma would broadcast against star4's three edges
    gamma = AngleVector([[0.0]], [[0.0, 1.0, 1.0, 1.0]])
    beta = AngleVector([[0.0] * 3], [[0.0] * 3])
    for angles in (gamma, beta):
        with pytest.raises(ValueError):
            max_degree_zero_fraction([star4], [angles])


def test_max_degree_zero_fraction_counts_only_top_vertices(star4):
    # center beta zero and all gammas zero, leaves nonzero: leaves are not
    # max degree, so the fraction only sees the zeroed angles
    angles = AngleVector([[0.0, 0.0, 0.0]], [[0.0, 0.5, 0.5, 0.5]])
    assert max_degree_zero_fraction([star4], [angles]) == 1.0


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


# ----- aggregate table, as `report` writes it -----

def aggregate_rows(records, tmp_path) -> list[dict[str, str]]:
    tmp_path.mkdir(exist_ok=True)
    write_records(records, tmp_path / "records.csv")
    report(tmp_path / "records.csv", tmp_path / "report")
    with open(tmp_path / "report" / "aggregate.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_aggregate_single_record(k2, tmp_path):
    rows = aggregate_rows([make_record(k2, [0.0] * 3, final_ar=0.9)], tmp_path)
    assert rows == [
        {"n": "2", "p": "1", "strategy": "normal", "mean_ar": "0.9", "std_ar": "0",
         "graph_count": "1"},
    ]


def test_aggregate_population_std(k2, triangle, tmp_path):
    records = [
        make_record(k2, [0.0] * 3, final_ar=0.8),
        make_record(triangle, [0.0] * 6, final_ar=1.0),
    ]
    rows = aggregate_rows(records, tmp_path / "split")
    assert [row["n"] for row in rows] == ["2", "3"]  # n=2 and n=3 group separately
    merged = aggregate_rows(
        [r for r in records if r.n == 2]
        + [make_record(k2, [0.1] * 3, final_ar=1.0, replicate=1)],
        tmp_path / "merged",
    )
    assert len(merged) == 1
    assert abs(float(merged[0]["mean_ar"]) - 0.9) < 1e-12
    assert abs(float(merged[0]["std_ar"]) - 0.1) < 1e-12
    assert merged[0]["graph_count"] == "1"


def test_aggregate_order_and_permutation_invariance(k2, triangle, tmp_path):
    records = [
        make_record(triangle, [0.0] * 12, strategy="random_pi8_opt", p=2),
        make_record(k2, [0.0] * 3, strategy="normal", p=1),
        make_record(k2, [0.0] * 3, strategy="rounded_no_opt", p=1),
        make_record(k2, [0.0] * 6, strategy="normal", p=2),
    ]
    rows = aggregate_rows(records, tmp_path / "forward")
    keys = [(row["n"], row["p"], row["strategy"]) for row in rows]
    assert keys == [
        ("2", "1", "normal"),
        ("2", "1", "rounded_no_opt"),
        ("2", "2", "normal"),
        ("3", "2", "random_pi8_opt"),
    ]
    assert aggregate_rows(records[::-1], tmp_path / "reversed") == rows


# ----- forest check -----

@pytest.fixture
def paw() -> Graph:
    # a triangle with a pendant edge: the fraction is 1/2 exactly when the
    # triangle's three edges form one class and the pendant another
    return Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


def test_forest_check_path_always_acyclic(path4):
    rng = np.random.default_rng(3)
    for _ in range(3):
        angles = AngleVector(
            rng.uniform(-math.pi, math.pi, (2, 3)),
            rng.uniform(-math.pi, math.pi, (2, 4)),
        )
        assert forest_check(path4, angles) == 1.0


def test_forest_check_triangle_equal_gammas(triangle):
    angles = AngleVector([[0.5, 0.5, 0.5]], [[0.0, 0.0, 0.0]])
    assert forest_check(triangle, angles) == 0.0


def test_forest_check_triangle_distinct_gammas(triangle):
    angles = AngleVector([[0.1, 0.9, 1.7]], [[0.0, 0.0, 0.0]])
    assert forest_check(triangle, angles) == 1.0


def test_forest_check_clusters_within_tolerance(paw):
    # neighbours chain within PI8_TOLERANCE although the triangle's ends are
    # further apart than it: one cyclic class and the pendant
    step = 0.6 * PI8_TOLERANCE
    chained = AngleVector([[0.5, 0.5 + step, 0.5 + 2 * step, 1.5]], [[0.0] * 4])
    assert forest_check(paw, chained) == 0.5
    # neighbours PI8_TOLERANCE or more apart stay apart: four forests
    step = 1.5 * PI8_TOLERANCE
    apart = AngleVector([[0.5, 0.5 + step, 0.5 + 2 * step, 1.5]], [[0.0] * 4])
    assert forest_check(paw, apart) == 1.0


def test_forest_check_classes_wrap_across_pi(paw):
    # gammas are angles mod 2*pi; the second set is a stored -pi that reads
    # back from CSV as just below pi
    for gammas in (
        [math.pi - 1e-5, -math.pi, -math.pi + 1e-5, 0.5],
        [math.pi - 2e-13, -math.pi, -math.pi, 0.5],
        [math.pi, -math.pi, math.pi + 1e-5, 0.5],
    ):
        assert forest_check(paw, AngleVector([gammas], [[0.0] * 4])) == 0.5
    # ends further apart than PI8_TOLERANCE across +-pi stay apart
    apart = [math.pi - 2 * PI8_TOLERANCE, -math.pi, -math.pi + 1e-5, 0.5]
    assert forest_check(paw, AngleVector([apart], [[0.0] * 4])) == 1.0


def test_forest_check_per_layer(c4):
    # layer 0: all four edges, one cycle; layer 1: two matchings
    angles = AngleVector([[0.2] * 4, [0.2, 0.9, 0.2, 0.9]], np.zeros((2, 4)))
    assert abs(forest_check(c4, angles) - 2 / 3) < 1e-12


def test_forest_check_edgeless_graph():
    g = Graph(3)
    assert forest_check(g, AngleVector(np.zeros((1, 0)), np.zeros((1, 3)))) == 1.0


def test_forest_check_shape_mismatch(triangle):
    with pytest.raises(ValueError):
        forest_check(triangle, AngleVector(np.zeros((1, 2)), np.zeros((1, 3))))
    with pytest.raises(ValueError):
        forest_check(triangle, AngleVector(np.zeros((1, 3)), np.zeros((1, 2))))


def test_forest_check_matches_pairwise_reference():
    rng = np.random.default_rng(25)
    fractions = []
    for g in enumerate_connected(5):
        m = g.edge_count
        for p in (1, 3):
            # pi/8 multiples from a few steps, +-pi among them, so that
            # classes of three or more edges are common
            base = rng.choice([-8, -7, -1, 0, 1, 7, 8], (p, m)) * PI8
            for gamma in (
                base,
                base + rng.uniform(-0.4, 0.4, (p, m)) * PI8_TOLERANCE,
                base + rng.uniform(-3, 3, (p, m)) * PI8_TOLERANCE,
                np.where(rng.random((p, m)) < 0.5, math.pi, -math.pi),
            ):
                angles = AngleVector(gamma, np.zeros((p, g.n)))
                expected = naive_forest_fraction(g, angles)
                assert forest_check(g, angles) == pytest.approx(expected, abs=1e-12)
                fractions.append(expected)
    # the cases reach cyclic classes and forests alike
    assert min(fractions) == 0.0 and max(fractions) == 1.0
    assert len(set(fractions)) > 5
