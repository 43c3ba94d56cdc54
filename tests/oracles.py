"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: dense matrix gates, explicit
Python loops, and brute-force search over permutations. None of it shares
code paths with the package, so agreement is meaningful evidence.

* Dense oracle: `dense_circuit`, `dense_gradient` and `dense_expectation`
  build every gate as a 2^n x 2^n matrix, the closed-form exponential of
  its dense generator.
* Gate-by-gate reference: `prepare_plus_state`, `apply_cost_phase` and
  `apply_mixer_rotation` update a full 2^n statevector in place, one edge
  phase or one vertex rotation at a time, in the package's conventions
  (bit v of the basis index is vertex v, bit 0 least significant).
* Brute force: `naive_max_cut`, `naive_expectation`, `brute_canonical`;
  `fd_gradient` (central differences) and `uniform_p1_expectation` (the
  closed form of Wang et al. at one shared angle pair).
* Report statistics: `naive_max_degree_zero_fraction`, one maximum-degree
  vertex at a time, and `naive_forest_fraction`, which links gammas pairwise
  on the circle and asks networkx whether each class is a forest.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np

from maqaoa import (
    AngleVector,
    CapacityError,
    Graph,
    PI8_TOLERANCE,
    expectation,
    normalize_angles,
    run_circuit,
)
from maqaoa.graphs import MAX_VERTICES

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _kron_at(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """op embedded on the given qubit, identity elsewhere, bit 0 = LSB.

    numpy's kron puts its first factor on the high bits, so the loop walks
    from qubit n-1 down to 0.
    """
    out = np.eye(1, dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, op if q == qubit else _I2)
    return out


def prepare_plus_state(n_qubits: int) -> np.ndarray:
    """Uniform superposition over all 2^n basis states."""
    if not 1 <= n_qubits <= MAX_VERTICES:
        raise CapacityError(
            f"qubit count must be in [1, {MAX_VERTICES}], got {n_qubits}"
        )
    dim = 1 << n_qubits
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


def _qubits(state: np.ndarray) -> int:
    n = int(state.size).bit_length() - 1
    if state.ndim != 1 or state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def apply_cost_phase(state: np.ndarray, edge: tuple[int, int], gamma: float) -> np.ndarray:
    """Multiply basis states where the edge endpoints' bits differ by exp(-i*gamma).

    Updates the array in place and returns it.
    """
    n = _qubits(state)
    u, v = edge
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge {edge} invalid for {n} qubits")
    index = np.arange(state.size, dtype=np.uint32)
    differ = (((index >> u) ^ (index >> v)) & 1).astype(bool)
    state[differ] *= np.exp(-1j * gamma)
    return state


def apply_mixer_rotation(state: np.ndarray, vertex: int, beta: float) -> np.ndarray:
    """Apply the X rotation [[c, -is], [-is, c]] on one qubit, in place."""
    n = _qubits(state)
    if not 0 <= vertex < n:
        raise ValueError(f"vertex {vertex} invalid for {n} qubits")
    # pairs differing in bit v: (lo, hi) -> c*(lo, hi) - is*(hi, lo)
    view = state.reshape(-1, 2, 1 << vertex)
    flipped = view[:, ::-1, :] * (-1j * np.sin(beta))
    view *= np.cos(beta)
    view += flipped
    return state


def dense_edge_cost(n: int, u: int, v: int) -> np.ndarray:
    """The single-edge cut observable 1/2 (I - Z_u Z_v) as a dense matrix."""
    zz = _kron_at(_Z, u, n) @ _kron_at(_Z, v, n)
    return 0.5 * (np.eye(1 << n, dtype=np.complex128) - zz)


def dense_cost(g: Graph) -> np.ndarray:
    total = np.zeros((1 << g.n, 1 << g.n), dtype=np.complex128)
    for u, v in g.edges:
        total += dense_edge_cost(g.n, u, v)
    return total


def dense_circuit(g: Graph, angles: AngleVector) -> np.ndarray:
    """Final state built entirely from dense matrix exponentials."""
    state = np.full(1 << g.n, (1 << g.n) ** -0.5, dtype=np.complex128)
    for _, gate in _dense_gates(g, angles):
        state = gate @ state
    return state


def _dense_gates(g: Graph, angles: AngleVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """(generator, unitary) of every gate in circuit order: per layer the
    edge phases, then the vertex rotations.

    Each unitary is its generator's exponential in closed form. The edge
    generator G is a projector (G^2 = G), so exp(-i t G) = I + (e^(-i t) - 1) G;
    the vertex generator X_v squares to I, so exp(-i t X_v) = cos t I - i sin t X_v.
    """
    eye = np.eye(1 << g.n, dtype=np.complex128)
    gates = []
    for layer in range(angles.p):
        for k, (u, v) in enumerate(g.edges):
            gen = dense_edge_cost(g.n, u, v)
            gates.append((gen, eye + (np.exp(-1j * angles.gamma[layer, k]) - 1) * gen))
        for vtx in range(g.n):
            gen = _kron_at(_X, vtx, g.n)
            beta = angles.beta[layer, vtx]
            gates.append((gen, np.cos(beta) * eye - 1j * np.sin(beta) * gen))
    return gates


def dense_gradient(g: Graph, angles: AngleVector) -> tuple[float, np.ndarray]:
    """<C> and its exact gradient in flattened parameter order, from dense
    generators only.

    Gate k is exp(-i t_k G_k), whose derivative is -i G_k times the gate,
    so d<C>/dt_k = 2 Re <psi|C|psi_k'>, with psi_k' the circuit's state
    when -i G_k is inserted right after gate k. Each psi_k' is rebuilt by
    running the remaining gates, with no reverse sweep.
    """
    gates = _dense_gates(g, angles)
    states = [np.full(1 << g.n, (1 << g.n) ** -0.5, dtype=np.complex128)]
    for _, unitary in gates:
        states.append(unitary @ states[-1])
    c_psi = dense_cost(g) @ states[-1]
    grad = np.empty(len(gates))
    for k, (gen, _) in enumerate(gates):
        tangent = -1j * (gen @ states[k + 1])
        for _, unitary in gates[k + 1:]:
            tangent = unitary @ tangent
        grad[k] = 2.0 * np.real(np.vdot(c_psi, tangent))
    return float(np.real(np.vdot(states[-1], c_psi))), grad


def dense_expectation(g: Graph, state: np.ndarray) -> float:
    return float(np.real(np.conj(state) @ dense_cost(g) @ state))


def naive_max_cut(g: Graph) -> int:
    """MaxCut by looping every bipartition with plain Python integers."""
    best = 0
    for assignment in itertools.product((0, 1), repeat=g.n):
        cut = sum(1 for u, v in g.edges if assignment[u] != assignment[v])
        best = max(best, cut)
    return best


def naive_expectation(g: Graph, state: np.ndarray) -> float:
    total = 0.0
    for z, amp in enumerate(state):
        cut = sum(1 for u, v in g.edges if ((z >> u) ^ (z >> v)) & 1)
        total += (amp.real ** 2 + amp.imag ** 2) * cut
    return total


def fd_gradient(g: Graph, angles: AngleVector, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of <C> in flattened parameter order."""
    flat = angles.flatten()
    p, m, n = angles.p, g.edge_count, g.n

    def value(x: np.ndarray) -> float:
        return expectation(g, run_circuit(g, AngleVector.unflatten(x, p, m, n)))

    grad = np.empty(flat.size)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (value(plus) - value(minus)) / (2 * h)
    return grad


def uniform_p1_expectation(g: Graph, gamma: float, beta: float) -> float:
    """<C> at p = 1 with one shared gamma and beta, by the formula of
    Wang, Hadfield, Jiang & Rieffel 2018 (PRA 97:022304).

    Per edge (u, v), with d_u, d_v the other neighbours of each endpoint
    and lam the triangles on the edge:
    1/2 + 1/4 sin 4b sin g (cos^d_u g + cos^d_v g)
        - 1/4 sin^2 2b cos^(d_u + d_v - 2 lam) g (1 - cos^lam 2g).
    """
    neighbours = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    total = 0.0
    for u, v in g.edges:
        d_u = len(neighbours[u]) - 1
        d_v = len(neighbours[v]) - 1
        lam = len(neighbours[u] & neighbours[v])
        total += (
            0.5
            + 0.25 * math.sin(4 * beta) * math.sin(gamma)
            * (math.cos(gamma) ** d_u + math.cos(gamma) ** d_v)
            - 0.25 * math.sin(2 * beta) ** 2 * math.cos(gamma) ** (d_u + d_v - 2 * lam)
            * (1 - math.cos(2 * gamma) ** lam)
        )
    return total


def brute_canonical(g: Graph) -> tuple:
    """Lexicographically minimal relabeled edge list over all n! relabelings.

    Exponential; fine for n <= 7. Two graphs are isomorphic exactly when
    these keys match.
    """
    best = None
    for perm in itertools.permutations(range(g.n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def naive_max_degree_zero_fraction(graphs, angle_vectors) -> float:
    """Share of the angles at maximum-degree vertices within PI8_TOLERANCE of 0.

    For every (graph, angles) pair, every maximum-degree vertex v, and every
    layer, the considered angles are beta_v plus the gamma of each edge
    incident to v, so an edge joining two maximum-degree vertices counts once
    per endpoint.
    """
    near = 0
    total = 0
    for g, angles in zip(graphs, angle_vectors):
        angles = normalize_angles(angles)
        gamma = np.abs(angles.gamma)
        beta = np.abs(angles.beta)
        degrees = g.degrees()
        for v in range(g.n):
            if degrees[v] < max(degrees):
                continue
            near += int((beta[:, v] < PI8_TOLERANCE).sum())
            total += angles.p
            for k, (a, b) in enumerate(g.edges):
                if v in (a, b):
                    near += int((gamma[:, k] < PI8_TOLERANCE).sum())
                    total += angles.p
    return near / total


def naive_forest_fraction(g: Graph, angles: AngleVector) -> float:
    """Share of the equal-gamma edge classes, over all layers, that are forests.

    Two edges of a layer are linked when their gammas lie within
    PI8_TOLERANCE of each other on the circle (mod 2*pi, so across +-pi too);
    a class is a connected component of those links, and networkx decides
    whether its edges induce a forest. An edgeless graph gives 1.
    """
    if not g.edge_count:
        return 1.0
    classes = 0
    forests = 0
    for values in angles.gamma:
        links = nx.Graph()
        links.add_nodes_from(range(g.edge_count))
        for i, j in itertools.combinations(range(g.edge_count), 2):
            gap = abs(values[i] - values[j]) % (2.0 * math.pi)
            if min(gap, 2.0 * math.pi - gap) < PI8_TOLERANCE:
                links.add_edge(i, j)
        for component in nx.connected_components(links):
            classes += 1
            forests += nx.is_forest(nx.Graph([g.edges[k] for k in component]))
    return forests / classes
