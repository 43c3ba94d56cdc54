import math

import numpy as np
import pytest
from scipy.stats import chisquare

from maqaoa import (
    AngleVector,
    Graph,
    PI8,
    STRATEGY_KINDS,
    expectation,
    init_max_degree_zero,
    init_random_pi8,
    init_uniform_random,
    normalize_angle,
    normalize_angles,
    pi8_multiples,
    round_angles,
    round_to_pi8,
    run_circuit,
    run_strategy,
)
from oracles import apply_cost_phase, apply_mixer_rotation, prepare_plus_state


# ----- normalize / round -----

def test_normalize_angle_examples():
    assert abs(normalize_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-12
    assert normalize_angle(-math.pi) == -math.pi
    assert normalize_angle(math.pi) == -math.pi
    assert normalize_angle(0.0) == 0.0
    assert isinstance(normalize_angle(0.5), float)
    assert isinstance(round_to_pi8(0.5), float)
    assert abs(normalize_angle(7 * math.pi) - (-math.pi)) < 1e-9


def test_normalize_angle_range_and_equivalence():
    rng = np.random.default_rng(0)
    # odd multiples of pi and their 8 float neighbours on each side, where
    # theta + pi can round up to a multiple of 2 pi
    odd = []
    for j in range(-50, 50):
        down = up = (2 * j + 1) * math.pi
        odd.append(down)
        for _ in range(8):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            odd += [down, up]
    for theta in [*rng.uniform(-50, 50, 200), *odd]:
        out = normalize_angle(theta)
        assert -math.pi <= out < math.pi
        k = (theta - out) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-9


def test_round_to_pi8_examples():
    assert abs(round_to_pi8(math.pi / 3) - 3 * PI8) < 1e-12
    assert round_to_pi8(PI8) == PI8
    assert round_to_pi8(math.pi / 16) == PI8  # tie rounds away from zero
    assert round_to_pi8(-math.pi / 16) == -PI8
    assert round_to_pi8(0.0) == 0.0


def test_round_to_pi8_bound_and_idempotence():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-math.pi, math.pi, 200):
        r = round_to_pi8(theta)
        assert abs(r - theta) <= math.pi / 16 + 1e-12
        assert round_to_pi8(r) == r
        assert abs(r / PI8 - round(r / PI8)) < 1e-9


def test_pi8_multiples():
    assert pi8_multiples(math.pi / 4)
    assert not pi8_multiples(math.pi / 4 + 0.01)
    assert pi8_multiples(2 * math.pi + PI8)
    np.testing.assert_array_equal(
        pi8_multiples([[PI8, 0.01], [-math.pi, math.pi - 1e-9]]),
        [[True, False], [True, True]],
    )


def test_round_angles_vector_behavior():
    angles = AngleVector([[2 * math.pi + 0.01, math.pi / 3]], [[0.5, -0.3, PI8]])
    rounded = round_angles(angles)
    np.testing.assert_allclose(rounded.gamma[0], [0.0, 3 * PI8], atol=1e-12)
    np.testing.assert_allclose(rounded.beta[0], [PI8, -PI8, PI8], atol=1e-12)
    again = round_angles(rounded)
    np.testing.assert_array_equal(again.gamma, rounded.gamma)
    np.testing.assert_array_equal(again.beta, rounded.beta)


def test_round_angles_within_pi16_of_normalized():
    rng = np.random.default_rng(2)
    angles = AngleVector(rng.uniform(-9, 9, (2, 4)), rng.uniform(-9, 9, (2, 5)))
    rounded = round_angles(angles)
    norm = normalize_angles(angles)
    assert np.max(np.abs(rounded.gamma - norm.gamma)) <= math.pi / 16 + 1e-12
    assert np.max(np.abs(rounded.beta - norm.beta)) <= math.pi / 16 + 1e-12


def test_round_angles_bitwise_equals_scalar_rule():
    def reference(theta):
        k = theta / PI8
        return (math.floor(k + 0.5) if k >= 0 else math.ceil(k - 0.5)) * PI8

    # halfway points round away from zero; small negatives give 0.0, not -0.0
    halfway = (np.arange(-8, 8) + 0.5) * PI8
    near_zero = [-1e-9, -0.19, 0.0, 0.19]
    rng = np.random.default_rng(17)
    angles = AngleVector(
        [np.concatenate([halfway, near_zero])], [rng.uniform(-9, 9, 40)]
    )
    expected = [reference(t) for t in normalize_angles(angles).flatten()]
    assert round_angles(angles).flatten().tobytes() == np.array(expected).tobytes()


def test_normalize_angle_bitwise_equals_scalar_rule():
    def reference(theta):
        out = theta - 2.0 * math.pi * math.floor((theta + math.pi) / (2.0 * math.pi))
        return out + 2.0 * math.pi if out < -math.pi else out

    # signed zeros, +-pi and their float neighbours, huge magnitudes, and
    # multiples of pi/8 and of pi, where the floor can step
    edges = [0.0, -0.0, 1e300, -1e300]
    for t in (math.pi, -math.pi):
        edges += [t, math.nextafter(t, 0.0), math.nextafter(t, 2 * t)]
    multiples = [k * PI8 for k in range(-48, 49)] + [k * math.pi for k in range(-9, 10)]
    rng = np.random.default_rng(18)
    values = edges + multiples + list(rng.uniform(-50, 50, 200))
    expected = np.array([reference(t) for t in values])
    scalar = np.array([normalize_angle(t) for t in values])
    assert scalar.tobytes() == expected.tobytes()
    array = normalize_angles(AngleVector([values], [[0.0]])).gamma[0]
    assert array.tobytes() == expected.tobytes()


# ----- initializers -----

def test_init_uniform_random_contract(k2):
    a = init_uniform_random(k2, 1, seed=5)
    b = init_uniform_random(k2, 1, seed=5)
    np.testing.assert_array_equal(a.flatten(), b.flatten())
    assert a.size == 3
    big = init_uniform_random(Graph(5, ((0, 1), (2, 3))), 4, seed=6)
    flat = big.flatten()
    assert ((-math.pi <= flat) & (flat < math.pi)).all()
    assert big.size == 4 * (2 + 5)


def test_init_random_pi8_all_multiples(path4):
    angles = init_random_pi8(path4, 3, seed=7)
    flat = angles.flatten()
    np.testing.assert_allclose(flat, round_to_pi8(flat), rtol=0, atol=1e-12)
    again = init_random_pi8(path4, 3, seed=7)
    np.testing.assert_array_equal(angles.flatten(), again.flatten())


def test_init_random_pi8_uniform_over_17_values():
    g = Graph(10, tuple((i, i + 1) for i in range(9)))
    draws = np.concatenate(
        [init_random_pi8(g, 9, seed=s).flatten() for s in range(600)]
    )
    assert draws.size >= 100000
    k = np.rint(draws / PI8).astype(int)
    assert k.min() >= -8 and k.max() <= 8
    counts = np.bincount(k + 8, minlength=17)
    assert chisquare(counts).pvalue > 0.01
    # normalized, k = 8 lands on k = -8: 16 classes, -pi at twice the weight
    m = np.rint(normalize_angle(draws) / PI8).astype(int)
    assert m.min() == -8 and m.max() == 7
    weights = np.full(16, 1 / 17)
    weights[0] = 2 / 17
    normalized = np.bincount(m + 8, minlength=16)
    assert chisquare(normalized, weights * draws.size).pvalue > 0.01


def test_init_max_degree_zero_star(star4):
    angles = init_max_degree_zero(star4, 1, seed=8)
    np.testing.assert_array_equal(angles.gamma, np.zeros((1, 3)))
    assert angles.beta[0, 0] == 0.0
    leaves = angles.beta[0, 1:]
    np.testing.assert_allclose(leaves, round_to_pi8(leaves), rtol=0, atol=1e-12)


def test_init_max_degree_zero_k4_all_zero(k4):
    angles = init_max_degree_zero(k4, 2, seed=9)
    assert not angles.flatten().any()


def test_init_max_degree_zero_path(path4):
    angles = init_max_degree_zero(path4, 2, seed=10)
    np.testing.assert_array_equal(angles.gamma, np.zeros((2, 3)))
    np.testing.assert_array_equal(angles.beta[:, 1], np.zeros(2))
    np.testing.assert_array_equal(angles.beta[:, 2], np.zeros(2))
    free = np.concatenate([angles.beta[:, 0], angles.beta[:, 3]])
    np.testing.assert_allclose(free, round_to_pi8(free), rtol=0, atol=1e-12)


# ----- run_strategy -----

def test_run_strategy_validation(k2):
    with pytest.raises(ValueError, match=r"^unknown strategy 'bogus'$"):
        run_strategy(k2, "bogus", 1, 0)
    with pytest.raises(ValueError, match=r"^p must be >= 1, got 0$"):
        run_strategy(k2, "normal", 0, 0)
    # every kind runs given the cell's normal record; only rounded_no_opt reads it
    normal = run_strategy(k2, "normal", 1, 0)
    for kind in STRATEGY_KINDS:
        assert run_strategy(k2, kind, 1, 0, prior=normal).strategy == kind


def test_optimizing_strategies_solve_k2(k2):
    for kind in ("normal", "random_pi8_opt"):
        record = run_strategy(k2, kind, 1, 11)
        assert abs(record.final_ar - 1.0) < 1e-6, kind
        assert record.converged
        assert record.final_ar >= record.initial_ar - 1e-12


def test_max_degree_zero_opt_sticks_on_regular_graphs(k2):
    # every vertex of a regular graph is max-degree, so the start is the
    # all-zero vector, an exact stationary point: the optimizer stays put
    record = run_strategy(k2, "max_degree_zero_opt", 1, 11)
    assert record.iterations == 0
    assert record.converged
    assert record.initial_ar == record.final_ar == 0.5


def test_max_degree_zero_opt_improves_off_regular_graphs(star4):
    record = run_strategy(star4, "max_degree_zero_opt", 1, 11)
    assert record.converged
    assert record.final_ar > record.initial_ar + 0.1


def test_no_opt_strategies_report_zero_iterations(k4):
    record = run_strategy(k4, "max_degree_zero_no_opt", 1, 12)
    assert record.iterations == 0
    assert record.function_evaluations == 1
    assert record.initial_ar == record.final_ar
    assert record.converged


def test_max_degree_zero_no_opt_k4_ar(k4):
    # the all-zero start leaves the uniform superposition: <C> = |E|/2 = 3,
    # MaxCut = 4, so AR = 0.75
    record = run_strategy(k4, "max_degree_zero_no_opt", 2, 13)
    assert abs(record.final_ar - 0.75) < 1e-12


def test_rounded_no_opt_requires_prior(path4):
    with pytest.raises(ValueError):
        run_strategy(path4, "rounded_no_opt", 1, 14)


def test_rounded_no_opt_rejects_another_graphs_prior(path4, star4):
    # the same n, edge count and p: only the edges tell the graphs apart
    prior = run_strategy(path4, "normal", 1, 3)
    with pytest.raises(ValueError, match="does not match"):
        run_strategy(star4, "rounded_no_opt", 1, 3, prior=prior)
    # the path 0-2-1-3 has path4's graph id, but its gammas follow other edges
    relabeled = Graph(4, ((0, 2), (1, 2), (1, 3)))
    assert relabeled.id == prior.graph_id
    with pytest.raises(ValueError, match="does not match"):
        run_strategy(relabeled, "rounded_no_opt", 1, 3, prior=prior)


def test_rounded_no_opt_fixed_point(triangle):
    normal = run_strategy(triangle, "normal", 1, 15)
    rounded = run_strategy(triangle, "rounded_no_opt", 1, 15, prior=normal)
    twice = run_strategy(triangle, "rounded_no_opt", 1, 15, prior=rounded)
    # rounding an already-rounded record changes nothing
    assert twice.final_ar == rounded.final_ar
    assert twice.final_angles == rounded.final_angles
    final = np.asarray(rounded.final_angles)
    np.testing.assert_allclose(final, round_to_pi8(final), rtol=0, atol=1e-9)


def test_record_angles_reproduce_final_ar(four_vertex_graphs):
    from maqaoa import max_cut

    for g in four_vertex_graphs[:3]:
        for kind in ("normal", "max_degree_zero_no_opt"):
            record = run_strategy(g, kind, 2, 16)
            value = expectation(g, run_circuit(g, record.angle_vector()))
            assert abs(value / max_cut(g) - record.final_ar) < 1e-10
            assert 0.0 <= record.final_ar <= 1.0
            flat = np.asarray(record.final_angles)
            assert ((-math.pi <= flat) & (flat < math.pi)).all()


def test_edgeless_graph_gets_ar_one():
    g = Graph(2)
    record = run_strategy(g, "normal", 1, 17)
    assert record.final_ar == 1.0


def test_zero_angle_gates_can_be_elided(star4):
    # gates whose angle is zero are identities: skipping them reproduces
    # the full circuit state
    angles = init_max_degree_zero(star4, 2, seed=18)
    full = run_circuit(star4, angles)
    manual = prepare_plus_state(4)
    for layer in range(2):
        for k, edge in enumerate(star4.edges):
            if angles.gamma[layer, k] != 0.0:
                apply_cost_phase(manual, edge, angles.gamma[layer, k])
        for v in range(4):
            if angles.beta[layer, v] != 0.0:
                apply_mixer_rotation(manual, v, angles.beta[layer, v])
    np.testing.assert_allclose(manual, full, atol=1e-12)


def test_strategy_kinds_are_stable():
    assert STRATEGY_KINDS == (
        "normal",
        "rounded_no_opt",
        "random_pi8_opt",
        "max_degree_zero_no_opt",
        "max_degree_zero_opt",
    )
