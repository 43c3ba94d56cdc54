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
* The cost and the mixer both commute with the global flip X^n, and the
  plus state is its +1 eigenstate, so every state the circuit reaches has
  psi(x) = psi(~x) (Shaydulin et al., Quantum Inf. Process. 20:359, 2021).
  The circuit runs on the half of the state with vertex n - 1's bit at 0,
  2^(n-1) amplitudes. In the Hadamard basis such a state has weight only
  on even-parity indices, so there H^n is sqrt(2) H^(n-1) on the half (the
  factors of a layer's two transforms cancel) and vertex n - 1's spin is
  the product of the others'. The states and cut tables the public
  functions return are full, the half mirrored.

The cost observable is the cut size: sum over edges of 1/2*(1 - Z_u Z_v),
diagonal in the computational basis with value = number of cut edges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph

# the diagonals are kept factored over a split of the half's basis index
# into its low _LO_BITS bits and the remaining high bits; see _CostTables
_LO_BITS = 10

# H^n is applied in chunks of at most _WHT_BITS qubits
_WHT_BITS = 6

# OpenBLAS (0.3.31, as bundled with numpy 2.4.6) hands a call above some size
# to its worker threads. Measured on 2 cores, by whether the worker's
# timeslice count in /proc/self/task/<tid>/schedstat rises:
#   gemm   2^19 multiply-adds stay on the calling thread, 2^20 do not:
#          (128, 64) @ (64, 64) against (256, 64) @ (64, 64), (32, 32) @ (32, 1024)
#   gemv   (16384, 24) @ (24,) stays, (16384, 32) and (4096, 128) do not
#   dot    ddot and zdotc of 10,000 elements stay, of 10,240 do not
# Every product here is at most _PRODUCT_SIZE multiply-adds and every dot at
# most _DOT_SIZE elements, so no call wakes a worker: a woken worker spins for
# as long as the calls take, doubling CPU time, and on a busy 2-core machine a
# threaded call can stall for 8-16 ms.
_PRODUCT_SIZE = 1 << 18
_DOT_SIZE = 1 << 13

# graphs whose cost and half cut tables stay cached: the harness runs a graph's
# cells back to back; one graph's tables take about 1.4 MB at n = 18, 16x at 22
_GRAPH_CACHE_SIZE = 8

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

    @classmethod
    def _unchecked(cls, gamma: np.ndarray, beta: np.ndarray) -> "AngleVector":
        """gamma and beta as they are, float64 (p, edges) and (p, vertices)
        with p >= 1, unchecked: for views of a point already validated."""
        vector = object.__new__(cls)
        vector.__dict__.update(gamma=gamma, beta=beta)
        return vector

    @property
    def p(self) -> int:
        return self.gamma.shape[0]

    @property
    def size(self) -> int:
        return self.gamma.size + self.beta.size

    def flatten(self) -> np.ndarray:
        """Flat view: [gamma_1, beta_1, gamma_2, beta_2, ...]."""
        return np.concatenate((self.gamma, self.beta), axis=1).ravel()

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

    Basis index i is read as row r = i >> b (the high a bits) and column
    c = i & (2^b - 1) (the low b bits). `low` is (2^b, m) and `high` is
    (2^a, m), one column per term. A term that crosses the split also
    belongs to one group h of `flips`, (groups, 2^a) booleans over rows,
    as set in `groups`, (groups, m) zeros and ones. Term k's value is

        low[c, k] + high[r, k] - 2 low[c, k] * sum_h groups[h, k] flips[h, r].

    For a graph's cost the terms are its edges: an edge inside the low or
    the high bits is its cut indicator in that table and zero in the other.
    An edge (u, v) with u < b <= v holds z_u in `low` and z_v in `high`,
    its cut indicator being z_u + z_v - 2 z_u z_v; its group is v's, whose
    flips are z_v. For the mixer in the Hadamard basis the terms are the
    vertices, each holding its spin 1 - 2 z_v. Above the split the last
    vertex's spin is the parity spin s_lo(c) s_hi(r) of the others (see
    _spin_tables): it holds s_lo in `low`, nothing in `high`, and is the
    one group, flipped on the rows of odd parity. A flipped row takes its
    group's factor exp(2i sum_k gamma_k low[:, k]) over 2^b columns, so no
    factor is built per amplitude.
    """

    low: np.ndarray
    high: np.ndarray
    flips: np.ndarray
    groups: np.ndarray
    flipped: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # per row of `high`, the groups whose flips it takes, for multiply
        object.__setattr__(self, "flipped", tuple(
            tuple(int(h) for h in np.flatnonzero(row)) for row in self.flips.T
        ))

    def sums(self, rows: slice = slice(None)) -> np.ndarray:
        """The sum of the terms of each basis state in a range of rows, all
        by default, flat, 2^b per row.

        The cost's terms are zeros and ones, so its sums, the cut sizes, are
        exact in any order of addition.
        """
        # for a = 0, high is one all-zero row and no term crosses
        sums = self.high[rows].sum(axis=1)[:, None] + self.low.sum(axis=1)
        for flipped, group in zip(self.flips[:, rows], self.groups):
            crossing = self.low[:, group == 1].sum(axis=1)
            np.subtract(sums, 2.0 * crossing, out=sums, where=flipped[:, None])
        return sums.ravel()

    @property
    def width(self) -> int:
        """Columns of a factor table: 2^b, then for a > 0 2^a + groups * 2^b.
        For a = 0, high is one all-zero row and no term crosses."""
        high = len(self.high) if len(self.high) > 1 else 0
        return len(self.low) * (1 + len(self.groups)) + high

    def arguments(self, angles: np.ndarray, arg: np.ndarray) -> list[tuple]:
        """The calls that write low @ a, high @ a, then each group's flip
        argument, for every row a of angles as it holds when they run, into
        that row of arg, a float (rows, width) table whose every entry is
        written; see _Phases for their factors.

        As in step, for a = 0 they are numpy calls, which hold nothing of
        the tables but `low`.
        """
        if len(self.high) == 1:
            return _matmul(angles[:, None, :], self.low.T, arg[:, None, :])
        return [(self._arguments, (angles, arg))]

    def _arguments(self, angles: np.ndarray, arg: np.ndarray) -> None:
        """One stack of per-layer products per part (see _matmul)."""
        b = len(self.low)
        width = b + len(self.high)
        layers = angles[:, None, :]
        _run(_matmul(layers, self.low.T, arg[:, None, :b]))
        _run(_matmul(layers, self.high.T, arg[:, None, b:width]))
        _run(_matmul(self.groups * (-2.0 * layers), self.low.T, arg[:, width:].reshape(len(arg), -1, b)))

    def step(self, state: np.ndarray, factors: np.ndarray, out: np.ndarray) -> tuple:
        """The call that multiplies one state by one layer's diagonal, into
        out, as (function, arguments); `factors` is that layer's row of its
        _Phases table, conjugated to undo the layer. For a = 0 it is one
        numpy call, which holds nothing of the tables."""
        if len(self.high) == 1:
            return np.multiply, (state, factors, out)
        return self.multiply, (state, factors, out)

    def multiply(self, state: np.ndarray, factors: np.ndarray, out: np.ndarray) -> None:
        """step's call for a > 0: row by row of 2^b amplitudes, so that every
        numpy call takes operands of one shape or a scalar. A broadcast over
        rows would allocate an iterator buffer of up to np.getbufsize()
        amplitudes per call, and a flip applied with `where` would pass over
        every row."""
        b = len(self.low)
        width = b + len(self.high)
        low = factors[:b]
        flips = factors[width:].reshape(-1, b)
        rows = zip(state.reshape(-1, b), out.reshape(-1, b), factors[b:width], self.flipped)
        for src, row, high, groups in rows:
            np.multiply(src, low, out=row)
            np.multiply(row, high, out=row)
            for h in groups:
                np.multiply(row, flips[h], out=row)

    def contract(self, w: np.ndarray, out: np.ndarray) -> list[tuple]:
        """The calls that write, per row and term, the sum of a real
        2^(a + b) row of w weighted by that term, into out, as w holds when
        they run. w is (rows, 2^(a + b)), out (rows, terms).

        As in step, for a = 0 they are numpy calls, which hold nothing of
        the tables but `low`.
        """
        if len(self.high) == 1:
            return _matmul(w, self.low, out)
        return [(self._contract, (w, out))]

    def _contract(self, w: np.ndarray, out: np.ndarray) -> None:
        w = w.reshape(len(w), len(self.high), len(self.low))
        _run(_matmul(w.sum(axis=1), self.low, out))
        high = np.empty_like(out)
        _run(_matmul(w.sum(axis=2), self.high, high))
        out += high
        # per group, the sum of w over its flipped rows, then weighted by the terms
        flipped = np.empty((len(w), len(self.flips), len(self.low)))
        _run(_matmul(self.flips.astype(np.float64), w, flipped))
        weighted = np.empty(flipped.shape[:2] + out.shape[1:])  # (rows, groups, terms)
        _run(_matmul(flipped, self.low, weighted))
        weighted *= self.groups
        out -= 2.0 * weighted.sum(axis=1)


def _matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> list[tuple]:
    """The calls that write x @ y into out, one np.matmul per group of y's
    columns: each product is at most _PRODUCT_SIZE multiply-adds as long as
    x's trailing (rows, inner) slice is. A product within the bound is one call."""
    step = max(1, _PRODUCT_SIZE // max(1, x.shape[-1] * (x.shape[-2] if x.ndim > 1 else 1)))
    if step >= y.shape[-1]:
        return [(np.matmul, (x, y, out))]
    return [(np.matmul, (x, y[..., j:j + step], out[..., j:j + step]))
            for j in range(0, y.shape[-1], step)]


def _dot(dot, x: np.ndarray, y: np.ndarray):
    """dot(x, y) of 1-D arrays, as dots of at most _DOT_SIZE elements added in
    order. A dot within the bound is one call."""
    if len(x) <= _DOT_SIZE:
        return dot(x, y)
    return sum(dot(x[j:j + _DOT_SIZE], y[j:j + _DOT_SIZE]) for j in range(0, len(x), _DOT_SIZE))


def _bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit tables of the index split: column j is bit j of the row index."""
    b = min(n, _LO_BITS)
    a = n - b
    z_low = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    z_high = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
    return z_low, z_high


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _cost_tables(g: Graph) -> _CostTables:
    """The cut diagonal on the half: vertex n - 1's bit is 0, so an edge
    (u, n - 1) is cut where z_u is 1."""
    z_low, z_high = _bits(g.n - 1)
    b = z_low.shape[1]
    low = np.zeros((len(z_low), g.edge_count))
    high = np.zeros((len(z_high), g.edge_count))
    crossing = {}  # high vertex -> its crossing edges
    for k, (u, v) in enumerate(g.edges):  # u < v
        if v == g.n - 1:
            if u < b:
                low[:, k] = z_low[:, u]
            else:
                high[:, k] = z_high[:, u - b]
        elif v < b:
            low[:, k] = z_low[:, u] ^ z_low[:, v]
        elif u >= b:
            high[:, k] = z_high[:, u - b] ^ z_high[:, v - b]
        else:
            low[:, k] = z_low[:, u]
            high[:, k] = z_high[:, v - b]
            crossing.setdefault(v, []).append(k)
    groups = np.zeros((len(crossing), g.edge_count))
    flips = np.zeros((len(crossing), len(z_high)), dtype=bool)
    for h, (v, edges) in enumerate(crossing.items()):
        groups[h, edges] = 1.0
        flips[h] = z_high[:, v - b]
    return _CostTables(low, high, flips, groups)


@lru_cache(maxsize=None)
def _spin_tables(n: int) -> _CostTables:
    """The mixer's diagonal on the half in the Hadamard basis.

    A flip-symmetric state has no weight on odd-parity Hadamard indices, so
    vertex n - 1's bit there is the parity of the others and its spin is
    their product. Vertex v < n - 1 holds 1 - 2 z_v.
    """
    z_low, z_high = _bits(n - 1)
    b = z_low.shape[1]
    low = np.zeros((len(z_low), n))
    high = np.zeros((len(z_high), n))
    low[:, :b] = 1 - 2 * z_low
    high[:, b:n - 1] = 1 - 2 * z_high
    low[:, n - 1] = low[:, :b].prod(axis=1)
    # above the split that product is s_lo(c) s_hi(r), the one crossing
    # term: the rows of odd parity flip the sign of s_lo
    odd = (z_high.sum(axis=1) & 1).astype(bool)
    crossing = int(len(z_high) > 1)
    groups = np.zeros((crossing, n))
    groups[:, n - 1] = 1.0
    return _CostTables(low, high, odd[None][:crossing], groups)


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
def _pair_hadamard(k: int) -> np.ndarray:
    """kron(_hadamard(k), I_2): _hadamard(k) acting on the float view of 2^k amplitudes."""
    h = np.kron(_hadamard(k), np.eye(2))
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _chunk_layout(n: int) -> tuple[tuple[int, bool, tuple[int, ...], bool], ...]:
    """How H^n on the float view of one 2^n-amplitude row splits into products.

    The qubits go in ceil(n / _WHT_BITS) near-equal chunks, lowest first.
    Per chunk: its size k, whether H_k multiplies from the left, the row's
    shape as a stack of slices of at most _PRODUCT_SIZE multiply-adds each,
    and whether its third- and second-last axes must be swapped. The lowest
    chunk's shape is (groups, rows, 2^(k+1)): kron(H_k, I_2)
    right-multiplies each group of rows, runs of 2^k amplitudes. A higher
    chunk's is (outer, 2^k, groups, columns); with the groups axis swapped
    ahead of the 2^k axis, H_k left-multiplies each group of columns.
    Stack axes of length one are left out.
    """
    chunks = -(-n // _WHT_BITS)
    layout = []
    lo = 0
    for c in range(chunks):
        k = (n + c) // chunks  # near-equal sizes summing to n
        if lo:
            width = min(2 << lo, _PRODUCT_SIZE >> 2 * k)
            outer, groups = 1 << n - lo - k, (2 << lo) // width
            shape = (outer,) * (outer > 1) + (1 << k,) + (groups,) * (groups > 1) + (width,)
            layout.append((k, True, shape, groups > 1))
        else:
            rows = min(1 << n - k, _PRODUCT_SIZE >> 2 * k + 2)
            groups = (1 << n - k) // rows
            layout.append((k, False, (groups,) * (groups > 1) + (rows, 2 << k), False))
        lo += k
    return tuple(layout)


class _Block:
    """Rows of 2^n-amplitude states, with H^n from any row into any other.

    H^n is one product call per chunk of _chunk_layout on the float view
    (2 doubles per amplitude), shaped once per chunk, so a transform only
    indexes rows. A chunk small enough for one product has one 2-D slice
    per row, which ndarray.dot multiplies with less dispatch than
    np.matmul's stacks, and than np.dot, which first calls its Python
    dispatcher.
    """

    def __init__(self, rows: int, n: int) -> None:
        # one allocation, not one per row: once freed, a block this size lifts
        # glibc's mmap and trim thresholds above itself, so later calls reuse
        # its pages
        self.states = np.empty((rows, 1 << n), dtype=np.complex128)
        floats = self.states.view(np.float64)
        self._chunks = []  # (product, matrix, whether it multiplies from the left, view)
        for k, left, shape, swap in _chunk_layout(n):
            view = floats.reshape(rows, *shape)
            if swap:
                view = view.swapaxes(-3, -2)
            product = np.ndarray.dot if view.ndim == 3 else np.matmul
            matrix = _hadamard(k) if left else _pair_hadamard(k)
            self._chunks.append((product, matrix, left, view))

    def transform(self, src: int, dst: int, spare: int) -> list[tuple]:
        """The calls that write H^n of row src into row dst, through row
        spare, as (function, arguments) pairs for _run.

        Row src is never written unless it is dst. The chunks alternate
        between dst and spare so that the last lands in dst; in place, an
        odd number of them lands in spare and is copied back.
        """
        odd = len(self._chunks) % 2
        out, other = (dst, spare) if odd and dst != src else (spare, dst)
        calls = []
        for product, h, left, view in self._chunks:
            args = (h, view[src], view[out]) if left else (view[src], h, view[out])
            calls.append((product, args))
            src, out, other = out, other, out
        if src != dst:
            calls.append((np.copyto, (self.states[dst], self.states[src])))
        return calls


def _run(calls) -> None:
    """Make each (function, arguments) call in order."""
    for call, args in calls:
        call(*args)


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _half_cuts(g: Graph) -> np.ndarray:
    """The half's cut table, read-only; reversed, it is the other half's."""
    cuts = _cost_tables(g).sums()
    cuts.flags.writeable = False
    return cuts


def cut_values(g: Graph) -> np.ndarray:
    """Cut size of every basis state, as a new float array of length 2^n.

    Its first half is the half's cut table, the only part cached; the second
    mirrors it, since a cut and its complement cut the same edges.
    """
    half = _half_cuts(g)
    return np.concatenate((half, half[::-1]))


def _check_state(state: np.ndarray) -> int:
    if state.size == 0:
        raise ValueError("state is empty")
    if state.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {state.shape}")
    n = state.size.bit_length() - 1
    if state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


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
    block: _Block,
    tables: _CostTables,
    spins: _CostTables,
    cost: np.ndarray,
    mix: np.ndarray,
    ring: int,
    out: int,
    spare: int,
) -> list[tuple]:
    """The calls that run the circuit from the plus state in a block of half
    states, given its cost and mixer factor tables (one row per layer, see
    _Phases).

    The final state goes to row `out`. Rows 0 .. ring - 1 keep the state at
    the two points per layer where the adjoint reads that layer's gradient:
    layer l's state after its cost diagonal, in the computational basis,
    goes to row 2l mod ring, and its state after its mixer diagonal, in the
    Hadamard basis, to row 2l + 1 mod ring; a ring of one row keeps only
    the current state. Row `spare` is a work buffer.
    """
    states = block.states
    n = spins.low.shape[1]  # one spin per vertex
    p = len(cost)
    ket = 0
    calls = [(states[ket].fill, (2.0 ** (-n / 2),))]  # the plus state
    for layer in range(p):
        calls.append(tables.step(states[ket], cost[layer], states[ket]))
        mixed = (2 * layer + 1) % ring
        calls += block.transform(ket, mixed, spare)
        calls.append(spins.step(states[mixed], mix[layer], states[mixed]))
        ket = (2 * layer + 2) % ring if layer + 1 < p else out
        calls += block.transform(mixed, ket, spare)
    return calls


class _Phases:
    """The phase factors of p layers of the cost and the mixer, side by side.

    `cost` and `mix` are the (p, width) halves of one complex table, each
    row a layer: exp(-1j * arg) of the arguments that `calls` write to
    `arg`, a float table of the same shape that the caller provides, from
    gamma and beta as they hold when the calls run (see
    _CostTables.arguments). The factors are built as cos(arg) and
    -sin(arg), which are the same bits with no complex exp. Conjugated,
    they undo their layers.
    """

    def __init__(
        self, tables: _CostTables, spins: _CostTables, gamma: np.ndarray, beta: np.ndarray,
        arg: np.ndarray,
    ) -> None:
        width = tables.width
        self.table = np.empty(arg.shape, dtype=np.complex128)
        self.cost, self.mix = self.table[:, :width], self.table[:, width:]
        sines = self.table.imag
        self.calls = [
            *tables.arguments(gamma, arg[:, :width]),
            *spins.arguments(beta, arg[:, width:]),
            (np.cos, (arg, self.table.real)),
            (np.sin, (arg, sines)),
            (np.negative, (sines, sines)),
        ]


def run_circuit(g: Graph, angles: AngleVector) -> StateVector:
    """Full circuit: plus state, then per layer all edge phases, all rotations.

    The circuit runs in the first half of the array returned, through the
    second, which then mirrors the first: a call holds one full state and
    its phase tables, and keeps nothing.
    """
    _check_angles(g, angles)
    tables = _cost_tables(g)
    spins = _spin_tables(g.n)
    phases = _Phases(
        tables, spins, angles.gamma, angles.beta, np.empty((angles.p, tables.width + spins.width))
    )
    _run(phases.calls)
    cost, mix = phases.cost, phases.mix
    del phases  # its float arguments go before the block is allocated
    block = _Block(2, g.n - 1)
    # every transform in place in row 0, through row 1
    _run(_forward(block, tables, spins, cost, mix, 1, 0, 1))
    block.states[1] = block.states[0][::-1]
    return block.states.reshape(-1)


def expectation(g: Graph, state: StateVector) -> float:
    """Expected cut size of a state: sum of |amplitude|^2 * cut value.

    The state need not be flip-symmetric. Above _DOT_SIZE amplitudes it is
    squared one chunk of _DOT_SIZE at a time, each dotted with its slice of
    the half cut table, reversed over the upper half, and the dots add in
    order: no full-size temporary is built.
    """
    n = _check_state(state)
    if n != g.n:
        raise ValueError(f"state has {n} qubits, graph has {g.n} vertices")
    if state.size <= _DOT_SIZE:
        return float(np.dot(state.real ** 2 + state.imag ** 2, cut_values(g)))
    half = _half_cuts(g)
    h = len(half)
    value = 0
    # np.dot copies a reversed slice before its BLAS call
    for start, cuts in ((0, half), (h, half[::-1])):
        for j in range(0, h, _DOT_SIZE):
            x = state[start + j:start + j + _DOT_SIZE]
            value += np.dot(x.real ** 2 + x.imag ** 2, cuts[j:j + _DOT_SIZE])
    return float(value)


@dataclass(frozen=True, eq=False)
class _LightCone:
    """Called on angles, the expected cut size of `graph` at p = 1 in
    closed form, with its gradient.

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

    Every term is coef times a product of factors cos(w . theta[c] + shift),
    theta the flat [gamma, beta] vector, c a factor's row of `columns` and w
    its row of `weights`; a sine has shift -pi/2. Each factor reads one or
    two angles, so the tables grow with edges times degree. Row t of
    `index` lists term t's factors, padded with len(shift), a factor fixed
    at 1. The derivative of a product takes the product of the other
    factors from prefix and suffix products, never a division: the pi/8
    starts put cosines at zero.
    """

    graph: Graph
    columns: np.ndarray  # (factors, 2), indices into theta
    weights: np.ndarray  # (factors, 2), 0 for a factor of one angle
    shift: np.ndarray  # (factors,)
    index: np.ndarray  # (terms, width)
    coef: np.ndarray  # (terms,)
    offset: float  # m / 2
    p = 1

    def __call__(self, angles: AngleVector) -> tuple[float, np.ndarray]:
        theta = angles.flatten()
        # the weights are +-1, 2 and 0, so every product here is exact
        pairs = theta[self.columns]
        pairs *= self.weights
        arg = pairs[:, 0] + pairs[:, 1] + self.shift
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
        slopes = self.weights * (weight * -np.sin(arg))[:, None]
        return float(value), np.bincount(self.columns.ravel(), slopes.ravel(), len(theta))


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

    columns = np.zeros((len(rows), 2), dtype=np.intp)
    weights = np.zeros((len(rows), 2))
    shift = np.empty(len(rows))
    for (phase, pairs), f in rows.items():
        shift[f] = phase
        for j, (column, weight) in enumerate(pairs):
            columns[f, j] = column
            weights[f, j] = weight
    width = max((len(fs) for _, fs in terms), default=1)
    index = np.full((len(terms), width), len(rows), dtype=np.intp)
    for t, (_, fs) in enumerate(terms):
        index[t, :len(fs)] = fs
    coef = np.array([c for c, _ in terms])
    return _LightCone(g, columns, weights, shift, index, coef, m / 2)


def expectation_and_gradient(g: Graph, angles: AngleVector) -> tuple[float, np.ndarray]:
    """Expected cut size and its gradient in flattened angle order: one layer
    in closed form (see _LightCone), deeper circuits by the adjoint
    statevector sweep (see _Plan)."""
    _check_angles(g, angles)
    return _oracle(g, angles.p)(angles)


class _Plan:
    """The adjoint sweep of one graph at p layers, with every numpy call bound.

    Called on angles, it returns the expected cut size and its gradient by
    reverse-mode (adjoint) differentiation. Every gate exp(-i*t*G) commutes
    with its generator G and with the rest of its layer, so all of a
    layer's derivatives are 2*Im(<bra|G|ket>) at one point of the layer: the
    gammas' just after its cost diagonal, the betas' just after its mixer
    diagonal in the Hadamard basis, where X_v is the diagonal 1 - 2 z_v.

    Its block holds 4p + 2 half states: the forward pass keeps the ket at
    both points of every layer in rows 0 .. 2p - 1, the backward pass the
    bra in rows 2p .. 4p - 1, and rows 4p (`bra`) and 4p + 1 (`final`) are
    the bra and the work row. `forward` reads the angles from `gamma` and
    `beta`, views of one (p, m + n) buffer: the argument products into the
    bras' rows, the phase factors, and the circuit into `final`.
    `backward` steps the bra from `bra` back through the layers alone,
    undoing each diagonal with the conjugates of the forward pass's phase
    factors, takes each layer's product conj(bra) * ket, and contracts its
    imaginary parts into `grad`, flat, one contraction per diagonal. Every
    stored amplitude stands for two, so the value is twice the half's sum
    and `grad` a quarter of the gradient. No call refers to the plan, so
    one built per call is freed as soon as it is dropped.
    """

    def __init__(self, g: Graph, p: int) -> None:
        self.graph, self.p = g, p
        m, n = g.edge_count, g.n
        tables, spins = _cost_tables(g), _spin_tables(n)
        self.cuts = _half_cuts(g)
        block = _Block(4 * p + 2, n - 1)
        states = block.states
        kets, bras = states[:2 * p], states[2 * p:4 * p]
        # the backward pass alone writes the bras, after the phases are
        # built, so their rows hold the phases' arguments: p * width floats
        # of p * 2^(n + 1), each table's width being at most 2^n
        arg = bras.view(np.float64).reshape(-1)[:p * (tables.width + spins.width)]
        angles = np.empty((p, m + n))
        self.gamma, self.beta = angles[:, :m], angles[:, m:]
        phases = _Phases(tables, spins, self.gamma, self.beta, arg.reshape(p, -1))
        cost, mix = phases.cost, phases.mix
        bra, spare = 4 * p, 4 * p + 1
        self.bra, self.final = states[bra], states[spare]
        # the final state lands in the backward pass's spare row, and the
        # forward pass works through the bra's row
        self.forward = phases.calls + _forward(block, tables, spins, cost, mix, 2 * p, spare, bra)
        # conjugated, the factors undo their layers
        calls = [(np.conjugate, (phases.table, phases.table))]
        for layer in reversed(range(p)):
            after_cost, after_mixer = 2 * p + 2 * layer, 2 * p + 2 * layer + 1
            calls += block.transform(bra, after_mixer, spare)
            calls.append(spins.step(states[after_mixer], mix[layer], states[bra]))
            calls += block.transform(bra, after_cost, spare)
            if layer:
                # states below layer 0 are never read, skip the last undo
                calls.append(tables.step(states[after_cost], cost[layer], states[bra]))
        calls += [(np.conjugate, (bras, bras)), (np.multiply, (bras, kets, bras))]
        self.grad = np.empty(p * (m + n))
        w, grad = bras.imag, self.grad.reshape(p, m + n)
        calls += tables.contract(w[0::2], grad[:, :m]) + spins.contract(w[1::2], grad[:, m:])
        self.backward = calls

    def __call__(self, angles: AngleVector) -> tuple[float, np.ndarray]:
        # two copies into prebound views take a third of np.concatenate's time
        self.gamma[...] = angles.gamma
        self.beta[...] = angles.beta
        _run(self.forward)
        np.multiply(self.cuts, self.final, out=self.bra)
        value = 2.0 * float(_dot(np.vdot, self.final, self.bra).real)
        _run(self.backward)
        return value, 4.0 * self.grad


_LAST = threading.local()  # the calling thread's kept oracle, see _oracle


def _oracle(g: Graph, p: int) -> _LightCone | _Plan:
    """The calling thread's oracle for g at p layers: the closed form at
    p = 1, else an adjoint plan. A thread keeps its last oracle, as a BFGS
    run makes every call on one graph and p and the harness runs a graph's
    cells back to back; a call on another graph or p replaces it, freeing
    it: at n = 11, p = 3 a plan holds 224 KiB of half states and 96 KiB of
    phase tables. Only a plan whose half state crosses the split
    (n - 1 > _LO_BITS) is built per call and dropped."""
    oracle = getattr(_LAST, "oracle", None)
    if oracle is None or oracle.p != p or (oracle.graph is not g and oracle.graph != g):
        oracle = _light_cone(g) if p == 1 else _Plan(g, p)
        if p == 1 or g.n - 1 <= _LO_BITS:
            _LAST.oracle = oracle
    return oracle
