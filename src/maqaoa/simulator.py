"""Statevector simulation of the multi-angle QAOA circuit for MaxCut.

Conventions, fixed across the package:

* A state on n qubits is a numpy complex128 array of 2^n amplitudes. Bit v
  of the basis-state index is qubit (= graph vertex) v, bit 0 least
  significant.
* The circuit for p layers applies, per layer, one phase gate per edge with
  its own angle gamma, then one X rotation per vertex with its own angle
  beta. The start state is the uniform superposition.
* The edge phase gate multiplies every basis state whose endpoint bits
  differ by exp(-i*gamma). The vertex rotation is
  [[cos(beta), -i*sin(beta)], [-i*sin(beta), cos(beta)]]. A whole mixer
  layer is applied in the Hadamard basis, as
  exp(-i*sum_v beta_v X_v) = H^n diag(exp(-i*sum_v beta_v (1 - 2 z_v))) H^n.
* Flattened parameter order is layer-major, gammas before betas inside a
  layer, each block in edge / vertex index order.

The cost observable is the cut size: sum over edges of 1/2*(1 - Z_u Z_v),
diagonal in the computational basis with value = number of cut edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .graphs import MAX_VERTICES, Graph

# the cost diagonal is kept factored over a split of the basis index into
# its low _LO_BITS bits and the remaining high bits; see _CostTables
_LO_BITS = 10

# H^n is applied as one matmul per chunk of at most _WHT_BITS qubits
_WHT_BITS = 6

#: A statevector is a bare 1-D complex128 array of length 2^n.
StateVector = np.ndarray


@dataclass(frozen=True, eq=False)
class AngleVector:
    """Per-layer circuit angles: gamma has shape (p, edges), beta (p, vertices)."""

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.atleast_2d(np.asarray(self.gamma, dtype=np.float64))
        beta = np.atleast_2d(np.asarray(self.beta, dtype=np.float64))
        if gamma.ndim != 2 or beta.ndim != 2:
            raise ValueError("gamma and beta must be 2-D (layers, angles)")
        if gamma.shape[0] != beta.shape[0]:
            raise ValueError(
                f"layer mismatch: gamma has {gamma.shape[0]}, beta {beta.shape[0]}"
            )
        if gamma.shape[0] < 1:
            raise ValueError("at least one layer is required")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)

    @property
    def p(self) -> int:
        return self.gamma.shape[0]

    @property
    def size(self) -> int:
        return self.gamma.size + self.beta.size

    def flatten(self) -> np.ndarray:
        """Flat view: [gamma_1, beta_1, gamma_2, beta_2, ...]."""
        return np.hstack([self.gamma, self.beta]).ravel()

    @classmethod
    def unflatten(
        cls, flat: np.ndarray, p: int, edge_count: int, vertex_count: int
    ) -> "AngleVector":
        flat = np.asarray(flat, dtype=np.float64)
        width = edge_count + vertex_count
        if flat.size != p * width:
            raise ValueError(
                f"expected {p * width} angles for p={p}, "
                f"{edge_count} edges, {vertex_count} vertices; got {flat.size}"
            )
        layers = flat.reshape(p, width)
        return cls(layers[:, :edge_count].copy(), layers[:, edge_count:].copy())


@dataclass(frozen=True, eq=False)
class _CostTables:
    """A diagonal, factored over a (2^a, 2^b) split of the basis index.

    Basis index i is read as row i >> b (the high a = n - b bits) and column
    i & (2^b - 1) (the low b bits). `low` is (2^b, m) and `high` is (2^a, m),
    one column per term. For a graph's cost the terms are its edges: an edge
    inside the low or the high bits is its cut indicator in that table and
    zero in the other. An edge (u, v) with u < b <= v holds z_u in `low` and
    z_v in `high`, and is listed in `cross`; its cut indicator is
    z_u + z_v - 2 z_u z_v. For the mixer in the Hadamard basis the terms are
    the vertices, each holding its spin 1 - 2 z_v, and none crosses.
    """

    low: np.ndarray
    high: np.ndarray
    cross: np.ndarray

    def phase(self, gammas: np.ndarray) -> np.ndarray:
        """Sum of gamma_e times term e of each basis state, flat 2^n."""
        phase = self.low @ gammas
        # for n <= _LO_BITS, high is one all-zero row and no term crosses
        if len(self.high) > 1:
            phase = (self.high @ gammas)[:, None] + phase
            phase += self._cross_phase(gammas)
        return phase.ravel()

    def _cross_phase(self, gammas: np.ndarray) -> np.ndarray:
        c = self.cross
        return (self.high[:, c] * (-2.0 * gammas[c])) @ self.low[:, c].T

    def factors(self, angles: np.ndarray) -> np.ndarray:
        """exp(-i * low @ a), then exp(-i * high @ a), for every row a of angles.

        Returns one (rows, 2^b + 2^a) table, one row per layer, from one
        matvec per layer and part and one exp for all. Its conjugate undoes
        the layers.
        """
        b = len(self.low)
        arg = np.zeros((len(angles), b + len(self.high)))
        for row, a in zip(arg, angles):
            np.matmul(self.low, a, out=row[:b])
            # for n <= _LO_BITS, high is one all-zero row: its factor stays 1
            if len(self.high) > 1:
                np.matmul(self.high, a, out=row[b:])
        return np.exp(-1j * arg)

    def multiply(
        self, states: np.ndarray, factors: np.ndarray, gammas: np.ndarray,
        spare: np.ndarray, undo: bool = False,
    ) -> None:
        """Multiply states in place by one layer's diagonal exp(-i * phase(gammas)).

        `states` holds one or more 2^n states and `factors` is that layer's
        row of `factors(...)`, conjugated to undo the layer. Only crossing
        terms need a factor per amplitude; those are built in `spare`, the
        size of one state, as exp(+i * phase) when `undo` is set.
        """
        b = len(self.low)
        view = states.reshape(-1, len(self.high), b)
        view *= factors[:b]
        if len(self.high) > 1:
            view *= factors[b:, None]
            if len(self.cross):
                f = spare.reshape(view.shape[1:])
                np.multiply(self._cross_phase(gammas), 1j if undo else -1j, out=f)
                view *= np.exp(f, out=f)

    def contract(self, w: np.ndarray, out: np.ndarray) -> None:
        """Per term, the sum of a real 2^n vector weighted by that term, into out."""
        w = w.reshape(len(self.high), len(self.low))
        if len(self.high) == 1:
            np.matmul(w[0], self.low, out=out)
            return
        np.matmul(w.sum(axis=0), self.low, out=out)
        c = self.cross
        out += w.sum(axis=1) @ self.high
        out[c] -= 2.0 * ((self.high[:, c].T @ w) * self.low[:, c].T).sum(axis=1)


def _bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit tables of the index split: column j is bit j of the row index."""
    b = min(n, _LO_BITS)
    a = n - b
    z_low = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    z_high = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
    return z_low, z_high


@lru_cache(maxsize=256)
def _cost_tables(g: Graph) -> _CostTables:
    z_low, z_high = _bits(g.n)
    b = z_low.shape[1]
    low = np.zeros((len(z_low), g.edge_count))
    high = np.zeros((len(z_high), g.edge_count))
    cross = []
    for k, (u, v) in enumerate(g.edges):  # u < v
        if v < b:
            low[:, k] = z_low[:, u] ^ z_low[:, v]
        elif u >= b:
            high[:, k] = z_high[:, u - b] ^ z_high[:, v - b]
        else:
            low[:, k] = z_low[:, u]
            high[:, k] = z_high[:, v - b]
            cross.append(k)
    return _CostTables(low, high, np.array(cross, dtype=np.intp))


@lru_cache(maxsize=None)
def _spin_tables(n: int) -> _CostTables:
    """The mixer's diagonal in the Hadamard basis: vertex v holds 1 - 2 z_v."""
    z_low, z_high = _bits(n)
    b = z_low.shape[1]
    low = np.zeros((len(z_low), n))
    high = np.zeros((len(z_high), n))
    low[:, :b] = 1 - 2 * z_low
    high[:, b:] = 1 - 2 * z_high
    return _CostTables(low, high, np.empty(0, dtype=np.intp))


@lru_cache(maxsize=None)
def _hadamard(k: int) -> np.ndarray:
    """The normalized 2^k x 2^k Hadamard matrix: (-1)^popcount(i & j) / 2^(k/2)."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h *= 2.0 ** (-k / 2)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _complex_hadamard(k: int) -> np.ndarray:
    """_hadamard(k) as complex128, so the lowest chunk's matmul casts nothing."""
    h = _hadamard(k).astype(np.complex128)
    h.flags.writeable = False
    return h


def _transform(states: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply H^n to every 2^n row of `states`, a C-contiguous (..., 2^n) array.

    `spare` is a work buffer of the same shape. Returns (result, other): the
    buffer that holds the transformed rows and the one left as scratch.
    The qubits go in ceil(n / _WHT_BITS) near-equal chunks, lowest first,
    one matmul each, alternating between the two buffers. Above the lowest
    chunk H is real and acts on whole rows, so it runs on the float view.
    """
    n = states.shape[-1].bit_length() - 1
    chunks = -(-n // _WHT_BITS)
    src, dst = states, spare
    lo = 0
    for c in range(chunks):
        k = (n + c) // chunks  # near-equal sizes summing to n
        if lo:
            shape = (-1, 1 << k, 2 << lo)  # float view: 2 doubles per amplitude
            np.matmul(_hadamard(k), src.view(np.float64).reshape(shape),
                      out=dst.view(np.float64).reshape(shape))
        else:
            np.matmul(src.reshape(-1, 1 << k), _complex_hadamard(k),
                      out=dst.reshape(-1, 1 << k))
        src, dst = dst, src
        lo += k
    return src, dst


@lru_cache(maxsize=256)
def cut_values(g: Graph) -> np.ndarray:
    """Cut size of every basis state, as a read-only float array of length 2^n."""
    cuts = _cost_tables(g).phase(np.ones(g.edge_count))
    cuts.flags.writeable = False
    return cuts


def prepare_plus_state(n_qubits: int) -> StateVector:
    """Uniform superposition over all 2^n basis states."""
    if not 1 <= n_qubits <= MAX_VERTICES:
        raise CapacityError(
            f"qubit count must be in [1, {MAX_VERTICES}], got {n_qubits}"
        )
    dim = 1 << n_qubits
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


def _check_state(state: np.ndarray) -> int:
    n = int(state.size).bit_length() - 1
    if state.ndim != 1 or state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def apply_cost_phase(state: StateVector, edge: tuple[int, int], gamma: float) -> StateVector:
    """Multiply basis states where the edge endpoints' bits differ by exp(-i*gamma).

    Updates the array in place and returns it.
    """
    n = _check_state(state)
    u, v = edge
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge {edge} invalid for {n} qubits")
    index = np.arange(state.size, dtype=np.uint32)
    differ = (((index >> u) ^ (index >> v)) & 1).astype(bool)
    state[differ] *= np.exp(-1j * gamma)
    return state


def apply_mixer_rotation(state: StateVector, vertex: int, beta: float) -> StateVector:
    """Apply the X rotation [[c, -is], [-is, c]] on one qubit, in place."""
    n = _check_state(state)
    if not 0 <= vertex < n:
        raise ValueError(f"vertex {vertex} invalid for {n} qubits")
    # pairs differing in bit v: (lo, hi) -> c*(lo, hi) - is*(hi, lo)
    view = state.reshape(-1, 2, 1 << vertex)
    flipped = view[:, ::-1, :] * (-1j * np.sin(beta))
    view *= np.cos(beta)
    view += flipped
    return state


def _check_angles(g: Graph, angles: AngleVector) -> None:
    if angles.gamma.shape[1] != g.edge_count:
        raise ValueError(
            f"gamma width {angles.gamma.shape[1]} != edge count {g.edge_count}"
        )
    if angles.beta.shape[1] != g.n:
        raise ValueError(
            f"beta width {angles.beta.shape[1]} != vertex count {g.n}"
        )


def _forward(
    g: Graph, angles: AngleVector, psi: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the circuit on psi, which holds the plus state, in place.

    `spare` is a work buffer the size of psi. Every layer transforms twice,
    so the final state ends in psi. Returns the cost and mixer factor
    tables of every layer (see _CostTables.factors).
    """
    tables = _cost_tables(g)
    spins = _spin_tables(g.n)
    cost = tables.factors(angles.gamma)
    mix = spins.factors(angles.beta)
    for layer in range(angles.p):
        tables.multiply(psi, cost[layer], angles.gamma[layer], spare)
        psi, spare = _transform(psi, spare)
        spins.multiply(psi, mix[layer], angles.beta[layer], spare)
        psi, spare = _transform(psi, spare)
    return cost, mix


def run_circuit(g: Graph, angles: AngleVector) -> StateVector:
    """Full circuit: plus state, then per layer all edge phases, all rotations."""
    _check_angles(g, angles)
    psi = prepare_plus_state(g.n)
    _forward(g, angles, psi, np.empty_like(psi))
    return psi


def expectation(g: Graph, state: StateVector) -> float:
    """Expected cut size of a state: sum of |amplitude|^2 * cut value."""
    n = _check_state(state)
    if n != g.n:
        raise ValueError(f"state has {n} qubits, graph has {g.n} vertices")
    probs = state.real ** 2 + state.imag ** 2
    return float(probs @ cut_values(g))


@dataclass(frozen=True, eq=False)
class _LightCone:
    """The expected cut size at p = 1 in closed form, with its gradient.

    Write c_x = cos 2 beta_x, s_x = sin 2 beta_x and N(x) for the neighbours
    of x. Edge (u, v) contributes <C_uv> = 1/2 - 1/2 <+|U^+ Z_u Z_v U|+>,
    with U = e^{-i sum beta X} e^{-i sum gamma C}, read in two steps:

    1. The mixer turns Z_x into e^{i beta_x X_x} Z_x e^{-i beta_x X_x}
       = c_x Z_x + s_x Y_x, so Z_u Z_v becomes four Pauli products.
    2. The cost layer is diagonal: it leaves Z alone and turns Y_x into
       Y_x prod_{w in N(x)} e^{i gamma_xw Z_x Z_w}. Expand each exponential
       as cos + i sin Z Z and keep the products that reduce to X strings,
       the only Paulis with a nonzero mean on |+>. Z_u Z_v gives none;
       Z_u Y_v needs the sine of gamma_uv, so its mean is
       -sin gamma_uv prod_{w in N(v) - u} cos gamma_vw. Y_u Y_v commutes
       with edge (u, v) and needs Z_u Z_v once more: an odd number of
       sines from the common neighbours D = N(u) & N(v), paired per w as
       -sin gamma_uw sin gamma_vw, and cosines elsewhere.

    So, with N[x] = N(x) + x,

        <C_uv> = 1/2 + 1/2 sin gamma_uv (c_u s_v prod_{w in N(v) - u} cos gamma_vw
                                         + s_u c_v prod_{w in N(u) - v} cos gamma_uw)
                 + 1/4 s_u s_v prod_{w in N(u) - N[v]} cos gamma_uw
                               prod_{w in N(v) - N[u]} cos gamma_vw
                   (prod_{w in D} cos(gamma_uw + gamma_vw)
                    - prod_{w in D} cos(gamma_uw - gamma_vw)),

    the formula of Herrman et al. 2022 (Sci. Rep. 12:6781), which reduces to
    that of Wang et al. 2018 (PRA 97:022304) at uniform angles.

    Every term is coef times a product of factors cos(lift @ theta + shift),
    theta the flat [gamma, beta] vector; a sine has shift -pi/2. Row t of
    `index` lists term t's factors, padded with len(shift), a factor fixed
    at 1. The derivative of a product takes the product of the other
    factors from prefix and suffix products, never a division: the pi/8
    starts put cosines at zero.
    """

    lift: np.ndarray  # (factors, m + n)
    shift: np.ndarray  # (factors,)
    index: np.ndarray  # (terms, width)
    coef: np.ndarray  # (terms,)
    offset: float  # m / 2

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        arg = self.lift @ theta + self.shift
        factors = np.ones(len(arg) + 1)
        np.cos(arg, out=factors[:-1])
        x = factors[self.index]
        terms, width = x.shape
        before = np.ones((terms, width + 1))  # before[:, j]: product of x[:, :j]
        np.cumprod(x, axis=1, out=before[:, 1:])
        after = np.ones((terms, width + 1))  # after[:, j]: product of x[:, j:]
        np.cumprod(x[:, ::-1], axis=1, out=after[:, width - 1::-1])
        value = self.offset + self.coef @ before[:, width]
        others = before[:, :width] * after[:, 1:] * self.coef[:, None]
        weight = np.bincount(self.index.ravel(), others.ravel(), len(factors))[:-1]
        return float(value), (weight * -np.sin(arg)) @ self.lift


@lru_cache(maxsize=256)
def _light_cone(g: Graph) -> _LightCone:
    m = g.edge_count
    edge_at = {}
    neighbours = [set() for _ in range(g.n)]
    for k, (u, v) in enumerate(g.edges):
        edge_at[u, v] = edge_at[v, u] = k
        neighbours[u].add(v)
        neighbours[v].add(u)
    rows: dict[tuple, int] = {}  # (shift, (column, weight) pairs) -> factor

    def factor(shift: float, *columns: tuple[int, float]) -> int:
        return rows.setdefault((shift, columns), len(rows))

    def cos_gammas(x: int, ws) -> list[int]:
        return [factor(0.0, (edge_at[x, w], 1.0)) for w in sorted(ws)]

    def cos_beta(x: int) -> int:
        return factor(0.0, (m + x, 2.0))

    def sin_beta(x: int) -> int:
        return factor(-np.pi / 2, (m + x, 2.0))

    terms = []  # (coef, factors)
    for k, (u, v) in enumerate(g.edges):
        sin_gamma = factor(-np.pi / 2, (k, 1.0))
        terms.append((0.5, [sin_gamma, cos_beta(u), sin_beta(v)]
                      + cos_gammas(v, neighbours[v] - {u})))
        terms.append((0.5, [sin_gamma, sin_beta(u), cos_beta(v)]
                      + cos_gammas(u, neighbours[u] - {v})))
        common = sorted(neighbours[u] & neighbours[v])
        if common:
            outer = ([sin_beta(u), sin_beta(v)]
                     + cos_gammas(u, neighbours[u] - neighbours[v] - {v})
                     + cos_gammas(v, neighbours[v] - neighbours[u] - {u}))
            for sign in (1.0, -1.0):
                pairs = [factor(0.0, (edge_at[u, w], 1.0), (edge_at[v, w], sign))
                         for w in common]
                terms.append((0.25 * sign, outer + pairs))

    lift = np.zeros((len(rows), m + g.n))
    shift = np.empty(len(rows))
    for (phase, columns), f in rows.items():
        shift[f] = phase
        for column, weight in columns:
            lift[f, column] = weight
    width = max((len(fs) for _, fs in terms), default=1)
    index = np.full((len(terms), width), len(rows), dtype=np.intp)
    for t, (_, fs) in enumerate(terms):
        index[t, :len(fs)] = fs
    coef = np.array([c for c, _ in terms])
    return _LightCone(lift, shift, index, coef, m / 2)


def expectation_and_gradient(g: Graph, angles: AngleVector) -> tuple[float, np.ndarray]:
    """Expected cut size and its gradient in flattened angle order.

    One layer is evaluated in closed form (see _LightCone), deeper circuits
    by the adjoint statevector sweep (see _adjoint).
    """
    _check_angles(g, angles)
    if angles.p == 1:
        return _light_cone(g).evaluate(angles.flatten())
    return _adjoint(g, angles)


def _adjoint(g: Graph, angles: AngleVector) -> tuple[float, np.ndarray]:
    """expectation_and_gradient on the statevector, for any number of layers.

    The gradient is computed by reverse-mode (adjoint) differentiation: one
    forward pass, then a backward sweep holding two states. Every gate
    exp(-i*t*G) commutes with its generator G and with the rest of its
    layer, so all of a layer's derivatives are read off at the layer
    boundary as 2*Im(<bra|G|ket>) before both states are stepped back.
    The beta derivatives are read in the Hadamard basis, where X_v is the
    diagonal 1 - 2 z_v. Bra and ket are one (2, 2^n) pair: each transform
    and each undo acts on both, the undo multiplying by the conjugates of
    the forward pass's phase factors.
    """
    p = angles.p
    m = g.edge_count
    n = g.n
    tables = _cost_tables(g)
    spins = _spin_tables(n)
    cuts = cut_values(g)

    # one block, not two: once freed, a block this size lifts glibc's mmap
    # and trim thresholds above itself, so later calls reuse its pages
    # (two 2-state blocks at n=16 faulted 1,152 pages in on every call)
    pair, other = np.empty((2, 2, 1 << n), dtype=np.complex128)
    bra, ket = pair
    ket.fill((1 << n) ** -0.5)
    cost, mix = _forward(g, angles, ket, other[0])
    undo_cost = np.conjugate(cost, out=cost)
    undo_mix = np.conjugate(mix, out=mix)
    np.multiply(cuts, ket, out=bra)
    value = float(np.vdot(ket, bra).real)

    grad = np.empty((p, m + n), dtype=np.float64)
    for layer in reversed(range(p)):
        pair, other = _transform(pair, other)
        # <bra|X_v|ket> = <H bra|Z_v|H ket>, Z_v = 1 - 2 z_v on every state
        w = np.conjugate(pair[0], out=other[0])
        spins.contract(np.multiply(w, pair[1], out=w).imag, grad[layer, m:])
        spins.multiply(pair, undo_mix[layer], angles.beta[layer], other[0])
        pair, other = _transform(pair, other)
        if m:
            w = np.conjugate(pair[0], out=other[0])
            tables.contract(np.multiply(w, pair[1], out=w).imag, grad[layer, :m])
            if layer:
                # states below layer 0 are never read, skip the last undo
                tables.multiply(pair, undo_cost[layer], angles.gamma[layer],
                                other[0], undo=True)
    grad *= 2.0
    return value, grad.ravel()
