"""End-to-end acceptance gate.

One test per shipping criterion, each checked at its stated tolerance, so
`pytest -v` prints a single pass/fail line per criterion. The two sweep
fixtures are module-scoped and shared across criteria; their run time is
part of what the criteria assert. Bands for the stochastic criteria are
deliberately loose: they check direction and magnitude, not exact replay.

Time bounds read the calling thread's CPU time, which another process on
the machine cannot inflate. The dense oracle builds its gates in closed
form, with no call large enough to wake an OpenBLAS worker thread, so
criterion 1's process CPU time stays close to its wall time. Each timed
test also asserts the work it did, a count that no machine changes.
"""

import math
import time

import numpy as np
import pytest

from maqaoa import (
    AngleVector,
    Graph,
    OptimizerConfig,
    RunConfig,
    angle_concentration,
    canonical_form,
    cut_values,
    enumerate_connected,
    expectation,
    expectation_and_gradient,
    optimize_angles,
    random_nonisomorphic_connected,
    round_to_pi8,
    run_circuit,
    run_experiment,
)
from oracles import (
    apply_cost_phase,
    apply_mixer_rotation,
    dense_circuit,
    dense_cost,
    fd_gradient,
    prepare_plus_state,
)


def random_vector(rng, g, p):
    return AngleVector(
        rng.uniform(-np.pi, np.pi, size=(p, g.edge_count)),
        rng.uniform(-np.pi, np.pi, size=(p, g.n)),
    )


def mean_ar(records, strategy, p):
    values = [r.final_ar for r in records if r.strategy == strategy and r.p == p]
    assert values, f"no records for {strategy} at p={p}"
    return float(np.mean(values))


@pytest.fixture(scope="module")
def four_vertex_run():
    config = RunConfig(dataset="builtin:n4", p_values=(1, 2, 3), replicates=10, seed=7)
    start = time.thread_time()
    records = run_experiment(config)
    return records, time.thread_time() - start


@pytest.fixture(scope="module")
def eight_vertex_run():
    config = RunConfig(dataset="random:n=8,count=100", p_values=(1, 2, 3), seed=0)
    start = time.thread_time()
    records = run_experiment(config)
    return records, time.thread_time() - start


def test_criterion_1_dense_oracle_equivalence():
    start = time.thread_time()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for g in enumerate_connected(4):
        cost = dense_cost(g)
        for p in (1, 2):
            for _ in range(100):
                angles = random_vector(rng, g, p)
                state = run_circuit(g, angles)
                reference = dense_circuit(g, angles)
                state_err = float(np.max(np.abs(state - reference)))
                value = expectation(g, state)
                ref_value = float(np.real(np.conj(reference) @ cost @ reference))
                worst = max(worst, state_err, abs(value - ref_value))
                checked += 1
    elapsed = time.thread_time() - start
    print(f"criterion 1: {checked} circuits, worst error {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert checked == 1200
    assert elapsed < 10.0


def test_criterion_2_gradient_matches_finite_differences():
    start = time.thread_time()
    pool = (
        enumerate_connected(4)
        + enumerate_connected(5)
        + random_nonisomorphic_connected(6, 3, seed=2)
    )
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        g = pool[rng.integers(len(pool))]
        p = int(rng.integers(1, 4))
        angles = random_vector(rng, g, p)
        _, analytic = expectation_and_gradient(g, angles)
        numeric = fd_gradient(g, angles, h=1e-6)
        scale = np.maximum(1e-8, 1e-5 * np.abs(numeric))
        gaps = np.abs(analytic - numeric)
        worst = max(worst, float(np.max(gaps / scale)))
        assert np.all(gaps <= scale)
    elapsed = time.thread_time() - start
    print(f"criterion 2: 20 cases, worst gap {worst:.3f}x allowance, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_four_vertex_normal_strategy_means(four_vertex_run):
    records, elapsed = four_vertex_run
    means = {p: mean_ar(records, "normal", p) for p in (1, 2, 3)}
    print(
        "criterion 3: normal means "
        f"p1={means[1]:.4f} p2={means[2]:.4f} p3={means[3]:.4f}, run {elapsed:.1f}s"
    )
    assert abs(means[1] - 0.931) < 0.03
    assert means[2] >= 0.995
    assert means[3] >= 0.995
    assert len(records) == 900
    assert elapsed < 120.0


def test_criterion_4_four_vertex_rounded_no_opt_means(four_vertex_run):
    records, _ = four_vertex_run
    means = {p: mean_ar(records, "rounded_no_opt", p) for p in (2, 3)}
    print(f"criterion 4: rounded means p2={means[2]:.4f} p3={means[3]:.4f}")
    assert abs(means[2] - 0.973) < 0.03
    assert abs(means[3] - 0.954) < 0.03


def test_criterion_5_eight_vertex_random_init_parity(eight_vertex_run):
    records, elapsed = eight_vertex_run
    gaps = {
        p: abs(mean_ar(records, "random_pi8_opt", p) - mean_ar(records, "normal", p))
        for p in (1, 2, 3)
    }
    print(
        "criterion 5: |random_pi8_opt - normal| "
        f"p1={gaps[1]:.4f} p2={gaps[2]:.4f} p3={gaps[3]:.4f}, run {elapsed:.1f}s"
    )
    assert all(gap < 0.01 for gap in gaps.values())
    assert len(records) == 1500
    assert elapsed < 1800.0


def test_criterion_6_eight_vertex_max_degree_zero_parity(eight_vertex_run):
    records, _ = eight_vertex_run
    gaps = {
        p: abs(mean_ar(records, "normal", p) - mean_ar(records, "max_degree_zero_opt", p))
        for p in (1, 2, 3)
    }
    print(
        "criterion 6: |normal - max_degree_zero_opt| "
        f"p1={gaps[1]:.4f} p2={gaps[2]:.4f} p3={gaps[3]:.4f}"
    )
    assert all(gap < 0.02 for gap in gaps.values())


def test_criterion_7_pi8_angle_concentration(four_vertex_run, eight_vertex_run):
    small = [r for r in four_vertex_run[0] if r.strategy == "normal" and r.p == 1]
    large = [r for r in eight_vertex_run[0] if r.strategy == "normal" and r.p == 1]
    small_fraction = angle_concentration(r.angle_vector() for r in small).pi8_fraction
    large_fraction = angle_concentration(r.angle_vector() for r in large).pi8_fraction
    print(
        f"criterion 7: pi/8 fraction n4={small_fraction:.3f} n8={large_fraction:.3f}"
    )
    assert small_fraction > 0.4
    assert large_fraction > 0.6


def test_criterion_8_property_suite():
    start = time.thread_time()
    rng = np.random.default_rng(808)
    graphs = enumerate_connected(4) + random_nonisomorphic_connected(6, 2, seed=3)

    # norm preservation and 2pi periodicity of the expectation
    for g in graphs:
        for p in (1, 2):
            angles = random_vector(rng, g, p)
            state = run_circuit(g, angles)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10
            value = expectation(g, state)
            gamma = angles.gamma.copy()
            beta = angles.beta.copy()
            gamma[0, 0] += 2 * math.pi
            beta[-1, -1] -= 2 * math.pi
            shifted = expectation(g, run_circuit(g, AngleVector(gamma, beta)))
            assert abs(shifted - value) < 1e-10

    # within-layer order independence
    for g in graphs[:4]:
        angles = random_vector(rng, g, 2)
        state = prepare_plus_state(g.n)
        for layer in range(angles.p):
            for k in rng.permutation(g.edge_count):
                state = apply_cost_phase(state, g.edges[k], angles.gamma[layer, k])
            for v in rng.permutation(g.n):
                state = apply_mixer_rotation(state, int(v), angles.beta[layer, v])
        np.testing.assert_allclose(state, run_circuit(g, angles), atol=1e-10)

    # uniform angles reduce to the one-angle-per-layer circuit
    for g in graphs[:4]:
        gamma = rng.uniform(-np.pi, np.pi, size=2)
        beta = rng.uniform(-np.pi, np.pi, size=2)
        tied = AngleVector(
            np.repeat(gamma[:, None], g.edge_count, axis=1),
            np.repeat(beta[:, None], g.n, axis=1),
        )
        state = prepare_plus_state(g.n)
        cuts = cut_values(g)
        for layer in range(2):
            state = state * np.exp(-1j * gamma[layer] * cuts)
            for v in range(g.n):
                state = apply_mixer_rotation(state, v, beta[layer])
        np.testing.assert_allclose(state, run_circuit(g, tied), atol=1e-10)

    # zeroed-out gates can be skipped without changing the state
    for g in graphs[:4]:
        angles = random_vector(rng, g, 2)
        gamma = angles.gamma.copy()
        beta = angles.beta.copy()
        gamma[rng.random(gamma.shape) < 0.5] = 0.0
        beta[rng.random(beta.shape) < 0.5] = 0.0
        state = prepare_plus_state(g.n)
        for layer in range(2):
            for k, edge in enumerate(g.edges):
                if gamma[layer, k] != 0.0:
                    state = apply_cost_phase(state, edge, gamma[layer, k])
            for v in range(g.n):
                if beta[layer, v] != 0.0:
                    state = apply_mixer_rotation(state, v, beta[layer, v])
        np.testing.assert_allclose(
            state, run_circuit(g, AngleVector(gamma, beta)), atol=1e-10
        )

    # rounding is idempotent and never moves an angle more than pi/16
    draws = rng.uniform(-4 * np.pi, 4 * np.pi, size=500)
    for theta in draws:
        once = round_to_pi8(theta)
        assert round_to_pi8(once) == once
        assert abs(once - theta) <= math.pi / 16 + 1e-12
    # canonical form is invariant under relabeling
    for g in graphs:
        for _ in range(5):
            perm = rng.permutation(g.n)
            relabeled = Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            assert canonical_form(relabeled) == canonical_form(g)

    # the optimizer trace never decreases
    for g in graphs[:3]:
        result = optimize_angles(
            g, random_vector(rng, g, 2), OptimizerConfig(max_iterations=60)
        )
        trace = np.asarray(result.trace)
        assert trace.size == result.iterations + 1
        assert np.all(np.diff(trace) >= -1e-12)

    # identical seeds give identical runs apart from wall time
    config = RunConfig(
        dataset="builtin:n3", p_values=(1,), strategies=("normal",), seed=11
    )
    first = [r.to_row()[:-1] for r in run_experiment(config)]
    second = [r.to_row()[:-1] for r in run_experiment(config)]
    assert first == second

    elapsed = time.thread_time() - start
    print(f"criterion 8: property suite {elapsed:.1f}s")
    assert elapsed < 60.0
