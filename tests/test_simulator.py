import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from maqaoa import (
    AngleVector,
    CapacityError,
    Graph,
    cut_values,
    enumerate_connected,
    expectation,
    expectation_and_gradient,
    random_nonisomorphic_connected,
    run_circuit,
)
from maqaoa.graphs import MAX_VERTICES
from maqaoa.simulator import (
    _DOT_SIZE,
    _GRAPH_CACHE_SIZE,
    _LO_BITS,
    _PRODUCT_SIZE,
    _LAST,
    _Block,
    _LightCone,
    _Phases,
    _Plan,
    _chunk_layout,
    _cost_tables,
    _half_cuts,
    _light_cone,
    _run,
    _spin_tables,
)
from conftest import random_angles
from oracles import (
    apply_cost_phase,
    apply_mixer_rotation,
    dense_circuit,
    dense_expectation,
    dense_gradient,
    fd_gradient,
    naive_expectation,
    prepare_plus_state,
    uniform_p1_expectation,
)


# ----- AngleVector -----

def test_angle_vector_shapes_and_size(k2):
    a = AngleVector([[0.1]], [[0.2, 0.3]])
    assert a.p == 1
    assert a.size == 3
    b = AngleVector(np.zeros((2, 3)), np.zeros((2, 4)))
    assert b.p == 2
    assert b.size == 14


def test_angle_vector_flatten_roundtrip():
    rng = np.random.default_rng(0)
    a = AngleVector(rng.normal(size=(3, 5)), rng.normal(size=(3, 4)))
    flat = a.flatten()
    assert flat.shape == (27,)
    b = AngleVector.unflatten(flat, 3, 5, 4)
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_angle_vector_flatten_order_is_layer_major_gamma_first():
    a = AngleVector([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
    np.testing.assert_array_equal(a.flatten(), [1, 2, 5, 3, 4, 6])


def test_angle_vector_layer_mismatch_rejected():
    with pytest.raises(ValueError):
        AngleVector(np.zeros((2, 1)), np.zeros((1, 2)))


def test_angle_vector_unflatten_size_check():
    with pytest.raises(ValueError):
        AngleVector.unflatten(np.zeros(5), 1, 2, 2)


# ----- state preparation -----

def test_prepare_plus_state_small():
    np.testing.assert_allclose(prepare_plus_state(1), [2 ** -0.5] * 2)
    np.testing.assert_allclose(prepare_plus_state(2), [0.5] * 4)


def test_prepare_plus_state_norm():
    state = prepare_plus_state(10)
    assert state.size == 1024
    assert abs(np.vdot(state, state).real - 1.0) < 1e-10


def test_prepare_plus_state_capacity():
    with pytest.raises(CapacityError):
        prepare_plus_state(25)
    with pytest.raises(CapacityError):
        prepare_plus_state(0)


# ----- single gates -----

def test_cost_phase_zero_is_identity():
    state = prepare_plus_state(3)
    before = state.copy()
    apply_cost_phase(state, (0, 2), 0.0)
    np.testing.assert_array_equal(state, before)


def test_cost_phase_two_pi_period():
    rng = np.random.default_rng(1)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    shifted = state.copy()
    apply_cost_phase(shifted, (0, 1), 2 * np.pi)
    np.testing.assert_allclose(shifted, state, atol=1e-12)


def test_cost_phase_pi_on_plus_state():
    state = prepare_plus_state(2)
    apply_cost_phase(state, (0, 1), np.pi)
    np.testing.assert_allclose(state, [0.5, -0.5, -0.5, 0.5], atol=1e-12)


def test_mixer_zero_is_identity():
    state = prepare_plus_state(3)
    before = state.copy()
    apply_mixer_rotation(state, 1, 0.0)
    np.testing.assert_array_equal(state, before)


def test_mixer_two_pi_period():
    rng = np.random.default_rng(2)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    shifted = state.copy()
    apply_mixer_rotation(shifted, 2, 2 * np.pi)
    np.testing.assert_allclose(shifted, state, atol=1e-12)


def test_mixer_half_pi_on_zero_state():
    state = np.array([1.0, 0.0], dtype=np.complex128)
    apply_mixer_rotation(state, 0, np.pi / 2)
    np.testing.assert_allclose(state, [0.0, -1j], atol=1e-12)


def test_gates_match_dense_oracle():
    g = Graph(3, ((0, 1), (1, 2)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        angles = AngleVector(
            rng.uniform(-np.pi, np.pi, (1, 2)), rng.uniform(-np.pi, np.pi, (1, 3))
        )
        state = prepare_plus_state(3)
        for k, edge in enumerate(g.edges):
            apply_cost_phase(state, edge, angles.gamma[0, k])
        for v in range(3):
            apply_mixer_rotation(state, v, angles.beta[0, v])
        np.testing.assert_allclose(state, dense_circuit(g, angles), atol=1e-12)


def test_gate_norm_preservation():
    rng = np.random.default_rng(4)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    for _ in range(20):
        if rng.random() < 0.5:
            u = int(rng.integers(0, 4))
            v = int(rng.integers(0, 4))
            if u == v:
                continue
            apply_cost_phase(state, (u, v), float(rng.uniform(-4, 4)))
        else:
            apply_mixer_rotation(state, int(rng.integers(0, 4)), float(rng.uniform(-4, 4)))
        assert abs(np.vdot(state, state).real - 1.0) < 1e-10


# ----- full circuit -----

def test_run_circuit_zero_angles_is_plus_state(path4):
    angles = AngleVector(np.zeros((2, 3)), np.zeros((2, 4)))
    np.testing.assert_allclose(
        run_circuit(path4, angles), prepare_plus_state(4), atol=1e-14
    )


def test_run_circuit_k2_matches_dense_oracle(k2):
    angles = AngleVector([[np.pi / 2]], [[0.3, 0.3]])
    np.testing.assert_allclose(
        run_circuit(k2, angles), dense_circuit(k2, angles), atol=1e-12
    )


def test_run_circuit_matches_dense_oracle_random(four_vertex_graphs):
    rng = np.random.default_rng(5)
    for g in four_vertex_graphs:
        for p in (1, 2):
            angles = random_angles(g, p, int(rng.integers(1 << 31)))
            np.testing.assert_allclose(
                run_circuit(g, angles), dense_circuit(g, angles), atol=1e-10
            )


def test_run_circuit_shape_mismatch(k2):
    with pytest.raises(ValueError):
        run_circuit(k2, AngleVector([[0.1, 0.2]], [[0.3, 0.4]]))
    with pytest.raises(ValueError):
        run_circuit(k2, AngleVector([[0.1]], [[0.3, 0.4, 0.5]]))


def test_run_circuit_fused_layer_equals_per_edge_application(triangle):
    # the production path fuses all edge phases of a layer into one pass;
    # floating point keeps it near the sequential per-edge product, not
    # bit-identical, so equality is pinned at rounding-error scale
    angles = random_angles(triangle, 3, seed=6)
    manual = prepare_plus_state(3)
    for layer in range(3):
        for k, edge in enumerate(triangle.edges):
            apply_cost_phase(manual, edge, angles.gamma[layer, k])
        for v in range(3):
            apply_mixer_rotation(manual, v, angles.beta[layer, v])
    np.testing.assert_allclose(run_circuit(triangle, angles), manual, atol=1e-13)


def test_within_layer_order_independence(c4):
    angles = random_angles(c4, 1, seed=7)
    rng = np.random.default_rng(8)
    reference = run_circuit(c4, angles)
    for _ in range(3):
        edge_order = rng.permutation(c4.edge_count)
        vertex_order = rng.permutation(c4.n)
        state = prepare_plus_state(4)
        for k in edge_order:
            apply_cost_phase(state, c4.edges[k], angles.gamma[0, k])
        for v in vertex_order:
            apply_mixer_rotation(state, int(v), angles.beta[0, v])
        np.testing.assert_allclose(state, reference, atol=1e-12)


def test_single_angle_two_pi_shift_invariance(triangle):
    angles = random_angles(triangle, 2, seed=9)
    base = expectation(triangle, run_circuit(triangle, angles))
    gamma = angles.gamma.copy()
    gamma[1, 2] += 2 * np.pi
    shifted = expectation(triangle, run_circuit(triangle, AngleVector(gamma, angles.beta)))
    assert abs(shifted - base) < 1e-10
    beta = angles.beta.copy()
    beta[0, 1] -= 2 * np.pi
    shifted = expectation(triangle, run_circuit(triangle, AngleVector(angles.gamma, beta)))
    assert abs(shifted - base) < 1e-10


def test_vanilla_reduction_uniform_angles(four_vertex_graphs):
    # one shared gamma and beta per layer reduces to the single-angle
    # circuit: e^{-i*gamma*sum_e C_e} applied edge by edge
    rng = np.random.default_rng(10)
    for g in four_vertex_graphs[:3]:
        gammas = rng.uniform(-np.pi, np.pi, 2)
        betas = rng.uniform(-np.pi, np.pi, 2)
        angles = AngleVector(
            np.repeat(gammas[:, None], g.edge_count, axis=1),
            np.repeat(betas[:, None], g.n, axis=1),
        )
        state = prepare_plus_state(g.n)
        for layer in range(2):
            for edge in g.edges:
                apply_cost_phase(state, edge, gammas[layer])
            for v in range(g.n):
                apply_mixer_rotation(state, v, betas[layer])
        np.testing.assert_allclose(run_circuit(g, angles), state, atol=1e-12)


# ----- expectation -----

def test_cut_values_triangle(triangle):
    np.testing.assert_array_equal(cut_values(triangle), [0, 2, 2, 2, 2, 2, 2, 0])


def test_expectation_plus_state_is_half_edges(four_vertex_graphs):
    for g in four_vertex_graphs:
        value = expectation(g, prepare_plus_state(4))
        assert abs(value - g.edge_count / 2) < 1e-12


def test_expectation_triangle_zero_angles(triangle):
    angles = AngleVector(np.zeros((1, 3)), np.zeros((1, 3)))
    assert abs(expectation(triangle, run_circuit(triangle, angles)) - 1.5) < 1e-12


def test_expectation_k2_known_optimum(k2):
    angles = AngleVector([[np.pi / 2]], [[np.pi / 8, np.pi / 8]])
    assert abs(expectation(k2, run_circuit(k2, angles)) - 1.0) < 1e-12


def test_expectation_matches_naive_and_dense(four_vertex_graphs):
    rng = np.random.default_rng(11)
    for g in four_vertex_graphs:
        state = run_circuit(g, random_angles(g, 2, int(rng.integers(1 << 31))))
        value = expectation(g, state)
        assert abs(value - naive_expectation(g, state)) < 1e-10
        assert abs(value - dense_expectation(g, state)) < 1e-10
        assert 0.0 <= value <= g.edge_count


@pytest.mark.parametrize("state, message", [
    (np.zeros(0, dtype=complex), "state is empty"),
    (np.zeros((2, 2), dtype=complex), r"state must be 1-D, got shape \(2, 2\)"),
    (np.zeros(6, dtype=complex), "state length 6 is not a power of two"),
], ids=["empty", "2-D", "length-6"])
def test_expectation_names_each_malformed_state(triangle, state, message):
    with pytest.raises(ValueError, match=message):
        expectation(triangle, state)


# ----- gradients -----

def test_gradient_beta_zero_at_zero_angles(four_vertex_graphs):
    for g in four_vertex_graphs:
        angles = AngleVector(np.zeros((1, g.edge_count)), np.zeros((1, g.n)))
        _, grad = expectation_and_gradient(g, angles)
        beta_part = grad.reshape(1, -1)[:, g.edge_count:]
        np.testing.assert_allclose(beta_part, 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    cases = [
        (Graph(2, ((0, 1),)), 1),
        (Graph(3, ((0, 1), (1, 2))), 2),
        (Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), 2),
        (Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))), 3),
        (Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))), 1),
    ]
    for g, p in cases:
        angles = random_angles(g, p, int(rng.integers(1 << 31)))
        value, grad = expectation_and_gradient(g, angles)
        assert abs(value - expectation(g, run_circuit(g, angles))) < 1e-12
        fd = fd_gradient(g, angles)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("p", [2, 3])
def test_gradient_matches_dense_oracle_on_every_small_graph(p):
    """Value and gradient of the adjoint sweep against dense generators, on
    every connected graph with at most 5 vertices."""
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    assert len(graphs) == 31  # OEIS A001349: 1, 1, 2, 6, 21
    for seed, g in enumerate(graphs):
        angles = random_angles(g, p, seed)
        value, grad = expectation_and_gradient(g, angles)
        dense_value, dense_grad = dense_gradient(g, angles)
        assert abs(value - dense_value) < 1e-10
        np.testing.assert_allclose(grad, dense_grad, rtol=0, atol=1e-10)


def test_gradient_vanishes_at_k2_optimum(k2):
    angles = AngleVector([[np.pi / 2]], [[np.pi / 8, np.pi / 8]])
    _, grad = expectation_and_gradient(k2, angles)
    assert np.linalg.norm(grad) < 1e-6


def test_gradient_order_matches_flattening(triangle):
    angles = random_angles(triangle, 2, seed=13)
    _, grad = expectation_and_gradient(triangle, angles)
    assert grad.shape == (angles.size,)
    fd = fd_gradient(triangle, angles)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


# ----- the factored cost diagonal, above and across its index split -----

def _split_graph(n: int) -> Graph:
    """Edges inside the low _LO_BITS qubits, inside the high ones and across.

    The circuit runs on the half with vertex n - 1's bit at 0, whose index
    splits at _LO_BITS too: there an edge to vertex n - 1 is a single-bit
    column, and at n = 12 (0, b) is the one crossing edge.
    """
    b = _LO_BITS
    low = [(0, 1), (2, 7), (3, b - 1)]
    high = [(b, n - 1)] + ([(b + 1, b + 2), (b, n - 2)] if n - b > 3 else [])
    cross = [(0, b), (b - 1, n - 1), (5, b + 1)] + ([(4, n - 2)] if n - b > 3 else [])
    assert all(v < b for _, v in low) and all(u >= b for u, _ in high)
    assert all(u < b <= v for u, v in cross)
    return Graph(n, tuple(low + high + cross))


def _ring_graph(n: int) -> Graph:
    """A cycle with a chord, so edges join every pair of adjacent qubits."""
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)) + ((0, n - 1), (1, n // 2)))


SPLIT_GRAPHS = [
    _split_graph(_LO_BITS + 2),
    _split_graph(16),
    Graph(_LO_BITS + 2),  # edgeless
    Graph(1),
    # the mixer's Hadamard transform in one, two and three chunks
    _ring_graph(6),
    _ring_graph(7),
    _split_graph(13),
    Graph(2, ((0, 1),)),  # a half of one qubit
    # a half of exactly _LO_BITS qubits, with no high part
    random_nonisomorphic_connected(_LO_BITS + 1, 1, seed=21)[0],
    # (0, b), (1, b) and (5, b) cross the half's split to one high vertex,
    # so they share one flip group
    Graph(_LO_BITS + 2, ((0, _LO_BITS), (1, _LO_BITS), (2, 3), (3, _LO_BITS + 1), (4, 9),
                         (5, _LO_BITS), (6, 7), (_LO_BITS, _LO_BITS + 1))),
]


def _gate_by_gate(g: Graph, angles: AngleVector) -> np.ndarray:
    state = prepare_plus_state(g.n)
    for layer in range(angles.p):
        for k, edge in enumerate(g.edges):
            apply_cost_phase(state, edge, angles.gamma[layer, k])
        for v in range(g.n):
            apply_mixer_rotation(state, v, angles.beta[layer, v])
    return state


@pytest.mark.parametrize("g", SPLIT_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_cut_values_match_per_edge_xor_count(g):
    np.testing.assert_array_equal(cut_values(g), _xor_cuts(g))


def _xor_cuts(g: Graph) -> np.ndarray:
    """Each basis state's count of edges whose endpoint bits differ."""
    index = np.arange(1 << g.n)
    cuts = np.zeros(1 << g.n)
    for u, v in g.edges:
        cuts += ((index >> u) ^ (index >> v)) & 1
    return cuts


@pytest.mark.parametrize("g", [
    Graph(1, ()), Graph(2, ((0, 1),)), *(_split_graph(n) for n in (13, 14, 15, 16))
], ids=lambda g: f"n{g.n}")
def test_expectation_of_states_that_are_not_flip_symmetric(g):
    """At 1, 2 and 13 qubits a state has at most _DOT_SIZE amplitudes and
    expectation takes one dot with cut_values; at 14 to 16 it takes chunks
    of _DOT_SIZE, reading the upper half of the cut table reversed from the
    half."""
    cuts = _xor_cuts(g)
    rng = np.random.default_rng(25)
    for _ in range(2):
        state = rng.normal(size=1 << g.n) + 1j * rng.normal(size=1 << g.n)
        reference = np.abs(state) ** 2 @ cuts
        assert abs(expectation(g, state) - reference) <= 1e-12 * max(1.0, reference)
    h = 1 << g.n - 1
    for x in {x % (2 * h) for x in (0, 1, h - 1, h, h + 1, 2 * h - 1, *rng.integers(2 * h, size=4))}:
        basis = np.zeros(1 << g.n, dtype=complex)
        basis[x] = 1.0
        assert expectation(g, basis) == cuts[x]


@pytest.mark.parametrize("g", SPLIT_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_run_circuit_matches_gate_by_gate(g):
    angles = random_angles(g, 2, seed=14)
    state = run_circuit(g, angles)
    np.testing.assert_allclose(state, _gate_by_gate(g, angles), rtol=0, atol=1e-12)
    # the flip-symmetric half, mirrored: psi(x) = psi(~x) exactly
    np.testing.assert_array_equal(state, state[::-1])


@pytest.mark.parametrize("g, p", [
    pytest.param(g, p, id=f"n{g.n}m{g.edge_count}" + ("-p1" if p == 1 else ""))
    for p in (2, 1) for g in (SPLIT_GRAPHS[i] for i in (0, 2, 3, 5, 6, 7, 8, 9))
])
def test_gradient_matches_finite_differences_across_split(g, p):
    angles = random_angles(g, p, seed=15)
    value, grad = expectation_and_gradient(g, angles)
    assert abs(value - expectation(g, _gate_by_gate(g, angles))) < 1e-12
    np.testing.assert_allclose(grad, fd_gradient(g, angles), rtol=1e-5, atol=1e-8)


def _butterflies(x: np.ndarray) -> np.ndarray:
    """H^n of x, one butterfly per qubit."""
    x = x.copy()
    for j in range(x.size.bit_length() - 1):
        pairs = x.reshape(-1, 2, 1 << j)
        pairs[:] = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
        pairs /= np.sqrt(2)
    return x


@pytest.mark.parametrize("n", [1, 6, 7, 13, 16])
def test_hadamard_transform_matches_dense_and_is_its_own_inverse(n):
    """From one row of a block into another, and in place, in one, two and
    three chunks, and at 13 and 16 qubits with the lowest and the top chunk
    split into slices; the source row is never written, since the adjoint
    transforms its stored rows."""
    layout = _chunk_layout(n)
    lowest_shape, top_swap = layout[0][2], layout[-1][3]
    assert (len(lowest_shape) > 2 and top_swap) == (n >= 13)
    rng = np.random.default_rng(16)
    block = _Block(3, n)
    states = block.states
    states[0] = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    source = states[0].copy()
    _run(block.transform(0, 1, 2))
    np.testing.assert_array_equal(states[0], source)
    if n <= 7:
        dense = np.ones((1, 1))
        for _ in range(n):
            dense = np.kron(dense, [[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(states[1], dense @ source, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(states[1], _butterflies(source), rtol=0, atol=1e-12)
    _run(block.transform(1, 1, 2))
    np.testing.assert_allclose(states[1], source, rtol=0, atol=1e-12)


# ----- no BLAS call large enough to wake a worker thread -----

# OpenBLAS multiplies a gemm of 2^19 multiply-adds on the calling thread and
# hands one of 2^20 to its workers (see simulator._PRODUCT_SIZE)
_GEMM_ON_CALLER = 1 << 19


def test_transform_slices_stay_under_the_gemm_threshold():
    """Read from the layout's shapes alone, nothing allocated: at every half
    size up to the vertex cap the chunks cover the qubits, their slices tile
    a row's float view, and each slice is one product within bounds."""
    for h in range(MAX_VERTICES):
        layout = _chunk_layout(h)
        assert sum(k for k, _, _, _ in layout) == h
        for k, left, shape, swap in layout:
            assert np.prod(shape) == 2 << h
            if left:
                inner, columns = shape[-3] if swap else shape[-2], shape[-1]
                assert inner == 1 << k
                size = inner * inner * columns
            else:
                rows, columns = shape[-2:]
                assert columns == 2 << k
                size = rows * columns * columns
            assert size <= _PRODUCT_SIZE <= _GEMM_ON_CALLER, (h, k, shape)


def test_blas_calls_stay_under_the_thresholds(monkeypatch):
    """Every product and dot a call hands numpy, by its shapes: a p = 2 call
    at n = 16, and the tables of K_24 and of the 24-vertex mixer, whose
    products grow with 2^(n - 1 - _LO_BITS) and the edge count."""
    products, dots = [], []
    matmul, dot, vdot = np.matmul, np.dot, np.vdot

    def record(x, y):
        x, y = np.asarray(x), np.asarray(y)
        if x.ndim == y.ndim == 1:
            dots.append(x.size)
        else:
            rows = x.shape[-2] if x.ndim > 1 else 1
            products.append(rows * x.shape[-1] * (y.shape[-1] if y.ndim > 1 else 1))

    def recording(product):
        def wrapper(x, y, out=None):
            record(x, y)
            return product(x, y) if out is None else product(x, y, out=out)
        return wrapper

    monkeypatch.setattr(np, "matmul", recording(matmul))
    monkeypatch.setattr(np, "dot", recording(dot))
    monkeypatch.setattr(np, "vdot", recording(vdot))

    g = _split_graph(16)
    angles = random_angles(g, 2, seed=23)
    expectation(g, run_circuit(g, angles))
    expectation_and_gradient(g, angles)
    assert max(dots) == _DOT_SIZE

    n = MAX_VERTICES
    complete = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    cost = _cost_tables.__wrapped__(complete)  # not kept in the cache
    cost.sums()
    angles = random_angles(complete, 2, seed=24)
    w = np.zeros((2, 1 << n - 1))  # only read: its pages stay the kernel's zero page
    for tables, layers in ((cost, angles.gamma), (_spin_tables.__wrapped__(n), angles.beta)):
        _run(tables.arguments(layers, np.zeros((len(layers), tables.width))))
        _run(tables.contract(w, np.empty(layers.shape)))
    assert max(products) <= _PRODUCT_SIZE
    assert max(dots) <= _DOT_SIZE


def _timeslices() -> dict[str, int]:
    """Timeslices run so far by each thread of this process but the calling one."""
    me = str(threading.get_native_id())
    counts = {}
    for tid in os.listdir("/proc/self/task"):
        if tid != me:
            try:
                with open(f"/proc/self/task/{tid}/schedstat") as f:
                    counts[tid] = int(f.read().split()[2])
            except FileNotFoundError:  # the thread has ended
                pass
    return counts


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/task")
def test_no_call_wakes_another_thread():
    """Once the process's other threads (OpenBLAS's workers) have been idle
    for 0.3 s, none of them runs while the circuit, the expectation and the
    gradient are computed at n = 16 and 20 and p = 1 and 2."""
    counts = _timeslices()
    if not counts:
        pytest.skip("no other thread in this process")
    deadline = time.monotonic() + 5.0
    quiet_since = time.monotonic()
    while time.monotonic() - quiet_since < 0.3:
        if time.monotonic() > deadline:
            pytest.skip("another thread kept running for 5 s")
        time.sleep(0.02)
        now = _timeslices()
        if now != counts:
            counts, quiet_since = now, time.monotonic()
    for n in (16, 20):
        # edges inside and across the index split, in several flip groups
        g = Graph(n, tuple((v, w) for v in range(n) for w in (v + 1, v + 5) if w < n))
        for p in (1, 2):
            angles = random_angles(g, p, seed=22)
            expectation(g, run_circuit(g, angles))
            expectation_and_gradient(g, angles)
    after = _timeslices()
    woken = {tid: c - counts.get(tid, 0) for tid, c in after.items() if c != counts.get(tid, 0)}
    assert not woken, f"timeslices gained by other threads: {woken}"


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("g", [
    Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))),
    _ring_graph(8),
    _split_graph(13),  # three transform chunks, edges across the index split
], ids=lambda g: f"n{g.n}")
def test_oracle_never_writes_its_angles(g, p):
    """optimize_angles passes views of the BFGS point, which must stay as it was."""
    angles = random_angles(g, p, seed=19)
    flat = angles.flatten()
    flat.flags.writeable = False
    layers = flat.reshape(p, -1)
    value, grad = expectation_and_gradient(
        g, AngleVector(layers[:, :g.edge_count], layers[:, g.edge_count:])
    )
    ref_value, ref_grad = expectation_and_gradient(
        g, AngleVector(angles.gamma.copy(), angles.beta.copy())
    )
    assert value == ref_value
    np.testing.assert_array_equal(grad, ref_grad)
    np.testing.assert_array_equal(flat, angles.flatten())


def test_one_call_holds_4p_plus_2_states():
    """The tracemalloc peak of one p = 3 call: its block of 4p + 2 half
    states, the phase-factor tables, and one numpy iterator buffer."""
    g = _split_graph(12)
    p = 3
    angles = random_angles(g, p, seed=20)
    expectation_and_gradient(g, angles)  # fill the per-graph caches
    state = 16 << (g.n - 1)  # a half state
    tables = _factor_table_bytes(g, p)
    buffer = 16 * min(1 << (g.n - 1), np.getbufsize())
    tracemalloc.start()
    try:
        expectation_and_gradient(g, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (4 * p + 2) * state + tables + buffer + (16 << 10)


def _factor_table_bytes(g: Graph, p: int) -> int:
    """The cost and mixer phase-factor tables of p layers (_CostTables.factors)."""
    return 16 * p * sum(
        len(t.low) * (1 + len(t.groups)) + len(t.high) for t in (_cost_tables(g), _spin_tables(g.n))
    )


def test_run_circuit_holds_one_state():
    """The tracemalloc peak of one run_circuit call at n = 16: the full state
    it returns, in whose halves the circuit runs, and the phase-factor
    tables, whose float arguments are freed before the state is allocated;
    no numpy iterator buffer."""
    g = _split_graph(16)
    p = 3
    angles = random_angles(g, p, seed=26)
    run_circuit(g, angles)  # fill the per-graph caches
    tracemalloc.start()
    try:
        state = run_circuit(g, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.nbytes + _factor_table_bytes(g, p) + (16 << 10)


def test_expectation_adds_only_chunk_temporaries():
    """On a held n = 16 state, expectation allocates per _DOT_SIZE chunk: two
    squares, their sum, and np.dot's copy of a reversed slice of the half
    cut table."""
    g = _split_graph(16)
    state = run_circuit(g, random_angles(g, 2, seed=27))
    expectation(g, state)  # fill the per-graph caches
    tracemalloc.start()
    try:
        expectation(g, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _DOT_SIZE + (16 << 10)


# ----- the adjoint's plans -----

def _in_thread(target, timeout: float = 120.0):
    """target() run in a new thread, which starts with no plan; its result,
    or the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append((True, target()))
        except Exception as error:  # re-raised in the calling thread
            outcome.append((False, error))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive() and outcome, "the thread did not finish"
    ok, result = outcome[0]
    if not ok:
        raise result
    return result


@pytest.mark.parametrize("n, p", [(4, 2), (8, 3), (_LO_BITS + 1, 2)])
def test_plan_reuse_keeps_the_bits(n, p):
    """A call's value and gradient are the same bits on a fresh plan and
    after other graphs of its (n, p), its graph at another p, and another n
    have been served too."""
    g, *others = random_nonisomorphic_connected(n, 3, seed=28)
    angles = random_angles(g, p, seed=29)

    def calls():
        first = expectation_and_gradient(g, angles)
        for seed, h in enumerate(others):
            expectation_and_gradient(h, random_angles(h, p, seed=seed))
        expectation_and_gradient(g, random_angles(g, p + 1, seed=30))
        larger = random_nonisomorphic_connected(n + 1, 1, seed=31)[0]
        expectation_and_gradient(larger, random_angles(larger, p, seed=31))
        return first, expectation_and_gradient(g, angles)

    (value, grad), (again, grad_again) = _in_thread(calls)
    assert value == again
    np.testing.assert_array_equal(grad, grad_again)


def test_calls_alternating_between_plans_keep_the_bits():
    """Calls that alternate between K4, C4 and the paw (C4's edge count) at
    p = 2, on C4 between p = 2 and 3, and between plans and the closed forms
    of C4 and the paw at p = 1, each return the bits of that input's call in
    a thread of its own: each graph and depth runs in an oracle of its own."""
    k4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    paw = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    inputs = [(g, random_angles(g, p, seed=43 + k)) for k, (g, p) in enumerate(
        ((k4, 2), (c4, 2), (c4, 1), (paw, 2), (paw, 1), (c4, 3))
    )]

    def bits(g, angles):
        value, grad = expectation_and_gradient(g, angles)
        return np.float64(value).view(np.uint64), grad.view(np.uint64).tolist()

    alone = [_in_thread(lambda: bits(g, a)) for g, a in inputs]
    rounds = _in_thread(lambda: [[bits(g, a) for g, a in inputs] for _ in range(3)])
    assert all(round_ == alone for round_ in rounds)


def test_a_thread_keeps_one_oracle_its_last():
    """Consecutive calls on C4 at p = 2 run in one plan; a call on the paw
    (C4's edge count) at p = 1 frees it and keeps the paw's closed form,
    which a second such call reuses; a call on the paw at p = 3 frees that
    in turn. The per-graph tables stay bounded by _GRAPH_CACHE_SIZE."""
    c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    paw = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))

    def oracle_after(g, p, seed):
        expectation_and_gradient(g, random_angles(g, p, seed=seed))
        return _LAST.oracle

    def calls():
        first = oracle_after(c4, 2, 0)
        plan_reused = oracle_after(c4, 2, 1) is first
        plan = weakref.ref(first)
        del first
        cone = oracle_after(paw, 1, 2)
        plan_freed = plan() is None
        cone_kept = type(cone) is _LightCone and cone.graph == paw
        cone_reused = oracle_after(paw, 1, 3) is cone
        kept = weakref.ref(cone)
        del cone
        oracle_after(paw, 3, 4)
        return plan_reused, plan_freed, cone_kept, cone_reused, kept() is None

    plan_reused, plan_freed, cone_kept, cone_reused, cone_freed = _in_thread(calls)
    assert plan_reused and plan_freed
    assert cone_kept and cone_reused and cone_freed
    for cache in (_cost_tables, _half_cuts):
        assert cache.cache_info().maxsize == _GRAPH_CACHE_SIZE


@pytest.mark.parametrize("p", [1, 2, 3])
def test_each_call_returns_a_new_gradient(p):
    """BFGS keeps a gradient across calls, so no later call may write it."""
    g = _ring_graph(6)
    _, first = expectation_and_gradient(g, random_angles(g, p, seed=32))
    kept = first.copy()
    _, second = expectation_and_gradient(g, random_angles(g, p, seed=33))
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)


def test_run_circuit_keeps_no_plan():
    """run_circuit builds, reads and replaces no plan: in a thread of its own
    it leaves none at n = 4, 8 and _LO_BITS + 1, p = 1..3, and the plan an
    oracle call on g at p = 2 leaves is still kept after run_circuit on
    another graph, and on g at p = 3."""

    def plans_after_circuits(n):
        g = random_nonisomorphic_connected(n, 1, seed=44)[0]
        plans = []
        for p in (1, 2, 3):
            run_circuit(g, random_angles(g, p, seed=45 + p))
            plans.append(getattr(_LAST, "oracle", None))
        return plans

    for n in (4, 8, _LO_BITS + 1):
        assert _in_thread(lambda: plans_after_circuits(n)) == [None] * 3

    g, other = random_nonisomorphic_connected(6, 2, seed=49)

    def kept_plans():
        expectation_and_gradient(g, random_angles(g, 2, seed=50))
        plan = _LAST.oracle
        run_circuit(other, random_angles(other, 2, seed=51))
        after_other = _LAST.oracle
        run_circuit(g, random_angles(g, 3, seed=52))
        return plan, after_other, _LAST.oracle

    plan, after_other, after_depth = _in_thread(kept_plans)
    assert after_other is plan and after_depth is plan


def test_run_circuit_returns_a_new_state():
    """The state run_circuit returns is its own: later run_circuit and
    oracle calls on its graph leave it as it was."""
    g = _ring_graph(6)
    angles = random_angles(g, 2, seed=40)
    state = run_circuit(g, angles)
    kept = state.copy()
    expectation_and_gradient(g, random_angles(g, 2, seed=41))
    again = run_circuit(g, random_angles(g, 2, seed=42))
    assert not np.shares_memory(state, again)
    np.testing.assert_array_equal(state, kept)
    np.testing.assert_array_equal(run_circuit(g, angles), kept)


def test_threads_get_their_own_plans():
    """Four threads, more than this box's cores, calling at n = 8, p = 3 on
    their own graphs with a 1 us switch interval, get the bits of serial
    calls: a plan shared between threads would mix their states."""
    graphs = random_nonisomorphic_connected(8, 4, seed=34)
    angles = [[random_angles(g, 3, seed=35 + k) for k in range(20)] for g in graphs]
    serial = [[expectation_and_gradient(g, a) for a in batch] for g, batch in zip(graphs, angles)]
    results = [None] * len(graphs)

    def work(i):
        results[i] = [expectation_and_gradient(graphs[i], a) for a in angles[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(graphs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for expected, got in zip(serial, results):
        assert got is not None and len(got) == len(expected)
        for (value, grad), (ref_value, ref_grad) in zip(got, expected):
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)


def test_a_call_above_the_split_keeps_no_plan():
    """At n = 16 (n - 1 > _LO_BITS) a p = 2 call builds a plan, with its
    block of 4p + 2 half states, and drops it: once it returns, tracemalloc
    holds less than one half state, and the thread keeps no plan for g."""
    g = _split_graph(16)
    angles = random_angles(g, 2, seed=36)
    expectation_and_gradient(g, angles)  # fill the per-graph caches
    tracemalloc.start()
    try:
        value, grad = expectation_and_gradient(g, angles)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    half = 16 << (g.n - 1)
    assert peak >= (4 * 2 + 2) * half  # the block was there
    assert current < 16 << 10 < half
    kept = getattr(_LAST, "oracle", None)
    assert kept is None or (kept.graph, kept.p) != (g, 2)


def test_diagonal_multiplies_allocate_nothing_above_the_split():
    """At n = 12, p = 2 the half's index crosses the split, and the cost and
    mixer diagonals, with their crossing groups, go row by row: no numpy
    iterator buffer (32 KiB here) is allocated, only row views and scalars."""
    g = _split_graph(12)
    p = 2
    tables, spins = _cost_tables(g), _spin_tables(g.n)
    assert len(tables.high) > 1 and len(tables.groups) and len(spins.groups)
    angles = random_angles(g, p, seed=37)
    phases = _Phases(tables, spins, angles.gamma, angles.beta, np.empty((p, tables.width + spins.width)))
    _run(phases.calls)
    state = np.ones(1 << (g.n - 1), dtype=np.complex128)
    out = np.empty_like(state)
    calls = [
        diagonal.step(state, factors[layer], out)
        for diagonal, factors in ((tables, phases.cost), (spins, phases.mix))
        for layer in range(p)
    ]
    _run(calls)
    tracemalloc.start()
    try:
        _run(calls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 10


@pytest.mark.parametrize("g", [_ring_graph(8)] + SPLIT_GRAPHS[:2], ids=lambda g: f"n{g.n}")
def test_phase_factors_are_the_bits_of_the_complex_exp(g):
    """cos(arg) and -sin(arg) give exp(-1j * arg) to the bit, at random
    angles and at the pi/8 multiples the rounded starts use."""
    tables, spins = _cost_tables(g), _spin_tables(g.n)
    rng = np.random.default_rng(38)
    for angles in (random_angles(g, 3, seed=39), AngleVector(
        rng.integers(-8, 9, (3, g.edge_count)) * np.pi / 8,
        rng.integers(-8, 9, (3, g.n)) * np.pi / 8,
    )):
        phases = _Phases(
            tables, spins, angles.gamma, angles.beta, np.empty((angles.p, tables.width + spins.width))
        )
        _run(phases.calls)
        for diagonal, layers, factors in (
            (tables, angles.gamma, phases.cost), (spins, angles.beta, phases.mix)
        ):
            arg = np.zeros(factors.shape)
            _run(diagonal.arguments(layers, arg))
            np.testing.assert_array_equal(
                factors.view(np.uint64), np.exp(-1j * arg).view(np.uint64)
            )


# ----- the closed form at one layer -----

def _pi8_angles(g: Graph, seed: int) -> AngleVector:
    """Random pi/8 multiples, with some gammas at +-pi/2 and betas at +-pi/4,
    where the closed form's cosine factors vanish."""
    rng = np.random.default_rng(seed)
    gamma = rng.integers(-8, 8, (1, g.edge_count)) * np.pi / 8
    beta = rng.integers(-8, 8, (1, g.n)) * np.pi / 8
    gamma[0, ::2] = rng.choice([-np.pi / 2, np.pi / 2], gamma[0, ::2].shape)
    beta[0, ::3] = rng.choice([-np.pi / 4, np.pi / 4], beta[0, ::3].shape)
    return AngleVector(gamma, beta)


P1_GRAPHS = (
    enumerate_connected(4)
    + enumerate_connected(5)
    + [Graph(6, tuple((u, v) for u in range(6) for v in range(u + 1, 6)))]  # K6
    + SPLIT_GRAPHS
)


@pytest.mark.parametrize("g", P1_GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_one_layer_closed_form_matches_adjoint(g):
    adjoint = _Plan(g, 1)
    for seed in range(3):
        for angles in (random_angles(g, 1, seed=17 + seed), _pi8_angles(g, seed)):
            value, grad = expectation_and_gradient(g, angles)
            ref_value, ref_grad = adjoint(angles)
            assert abs(value - ref_value) < 1e-12
            assert grad.shape == ref_grad.shape
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)


def test_closed_form_tables_grow_with_edges_times_degree():
    """K_24 has 12,744 factors; as a dense (factors, m + n) matrix the lift
    alone would take 30.6 MB."""
    n = 24
    cone = _light_cone(Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n))))
    assert len(cone.shift) == 12744
    tables = (cone.columns, cone.weights, cone.shift, cone.index, cone.coef)
    assert sum(t.nbytes for t in tables) < 1 << 20


def test_uniform_angles_match_single_angle_formula():
    rng = np.random.default_rng(18)
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for gamma, beta in rng.uniform(-np.pi, np.pi, (3, 2)):
                angles = AngleVector(np.full((1, g.edge_count), gamma), np.full((1, g.n), beta))
                value, _ = expectation_and_gradient(g, angles)
                assert abs(value - uniform_p1_expectation(g, gamma, beta)) < 1e-12


@pytest.mark.parametrize("g", [
    # a ladder of triangles: edges (v, v + 1) and (v, v + 2)
    Graph(MAX_VERTICES, tuple(
        (v, w) for v in range(MAX_VERTICES) for w in (v + 1, v + 2) if w < MAX_VERTICES
    )),
    # the bipartite 4 x 6 grid
    Graph(MAX_VERTICES, tuple(
        (v, w) for v in range(MAX_VERTICES) for w in (v + 1, v + 6)
        if w < MAX_VERTICES and (w == v + 6 or w % 6)
    )),
], ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_closed_form_at_the_vertex_cap(g):
    """At n = 24 one layer needs no statevector. At uniform angles the value
    is the single-angle formula, and the gamma and beta gradients sum to its
    partial derivatives (central differences)."""
    m, h = g.edge_count, 1e-6
    rng = np.random.default_rng(25)
    for gamma, beta in rng.uniform(-np.pi, np.pi, (3, 2)):
        angles = AngleVector(np.full((1, m), gamma), np.full((1, g.n), beta))
        value, grad = expectation_and_gradient(g, angles)
        assert abs(value - uniform_p1_expectation(g, gamma, beta)) < 1e-12
        d_gamma = (
            uniform_p1_expectation(g, gamma + h, beta) - uniform_p1_expectation(g, gamma - h, beta)
        ) / (2 * h)
        d_beta = (
            uniform_p1_expectation(g, gamma, beta + h) - uniform_p1_expectation(g, gamma, beta - h)
        ) / (2 * h)
        assert abs(grad[:m].sum() - d_gamma) < 1e-6
        assert abs(grad[m:].sum() - d_beta) < 1e-6
