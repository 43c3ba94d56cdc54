import os
import sys
import threading
import time
import tracemalloc

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
    _LO_BITS,
    _PRODUCT_SIZE,
    _Block,
    _adjoint,
    _chunk_layout,
    _cost_tables,
    _light_cone,
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
    index = np.arange(1 << g.n)
    naive = np.zeros(1 << g.n)
    for u, v in g.edges:
        naive += ((index >> u) ^ (index >> v)) & 1
    np.testing.assert_array_equal(cut_values(g), naive)


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
    block.transform(0, 1, 2)
    np.testing.assert_array_equal(states[0], source)
    if n <= 7:
        dense = np.ones((1, 1))
        for _ in range(n):
            dense = np.kron(dense, [[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(states[1], dense @ source, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(states[1], _butterflies(source), rtol=0, atol=1e-12)
    block.transform(1, 1, 2)
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
        tables.factors(layers)
        tables.contract(w, np.empty(layers.shape))
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
    tables = 16 * p * sum(
        len(t.low) * (1 + len(t.groups)) + len(t.high) for t in (_cost_tables(g), _spin_tables(g.n))
    )
    buffer = 16 * min(1 << (g.n - 1), np.getbufsize())
    tracemalloc.start()
    try:
        expectation_and_gradient(g, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (4 * p + 2) * state + tables + buffer + (16 << 10)


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
    for seed in range(3):
        for angles in (random_angles(g, 1, seed=17 + seed), _pi8_angles(g, seed)):
            value, grad = expectation_and_gradient(g, angles)
            ref_value, ref_grad = _adjoint(g, angles)
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
