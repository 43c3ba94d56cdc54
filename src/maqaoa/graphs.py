"""Undirected simple graphs for MaxCut experiments.

Provides the graph value type plus the supporting machinery the benchmark
needs: exact MaxCut, the maximum of the simulator's cut table, a catalog of
every connected graph on up to eight vertices, seeded random generation of
non-isomorphic connected graphs, canonical labeling, and graph6 / edge-list
file I/O.

Vertices are always 0..n-1. Edges are stored as sorted (u, v) pairs with
u < v, and the edge list itself is sorted, so two equal graphs compare equal.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import CapacityError, GenerationError
from .simulator import _cost_tables

MAX_VERTICES = 24
MAX_ENUM_VERTICES = 8
MAX_CANON_VERTICES = 12
# connected isomorphism classes on 1..MAX_CANON_VERTICES vertices, OEIS A001349
_CONNECTED_CLASSES = (
    1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565, 164059830476,
)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1.

    Edge pairs are normalized to u < v and sorted; duplicates and loops are
    rejected. Hashable, so graphs can key caches and sets directly.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise CapacityError(
                f"vertex count must be in [1, {MAX_VERTICES}], got {self.n}"
            )
        normalized = []
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge} out of range for n={self.n}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        for prev, cur in zip(normalized, normalized[1:]):
            if prev == cur:
                raise ValueError(f"duplicate edge {cur}")
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    @property
    def id(self) -> str:
        """Stable text identifier, equal exactly for isomorphic graphs."""
        return graph_id(self)


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (K1 is connected)."""
    parent = list(range(g.n))
    for u, v in g.edges:
        parent[_find(parent, u)] = _find(parent, v)
    root = _find(parent, 0)
    return all(_find(parent, v) == root for v in range(g.n))


def max_degree_incidence(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Where the maximum-degree vertices sit, as (hits, top).

    hits[k] counts the endpoints of edge k that have maximum degree (0, 1 or
    2); top[v] is True for every maximum-degree vertex. The angles at a
    maximum-degree vertex are the gammas with hits > 0 and the betas in top.
    """
    degs = np.array(g.degrees())
    top = degs == degs.max()
    hits = top[np.array(g.edges, dtype=np.int64).reshape(-1, 2)].sum(axis=1)
    return hits, top


# ===== MaxCut oracle =====


# cut values per block of the MaxCut scan, about 0.6 MB of temporaries
_MAX_CUT_BLOCK = 1 << 16


@lru_cache(maxsize=4096)
def max_cut(g: Graph) -> int:
    """Exact MaxCut value by exhaustive bipartition search.

    The search reads the simulator's half cut table, where vertex n - 1 is
    pinned to side 0, so it covers 2^(n-1) bipartitions, taken in blocks of
    rows of at most _MAX_CUT_BLOCK cut values. Runtime doubles per vertex;
    intended range is n <= 24.
    """
    tables = _cost_tables(g)
    rows = _MAX_CUT_BLOCK // len(tables.low)
    return int(max(
        tables.sums(slice(first, first + rows)).max()
        for first in range(0, len(tables.high), rows)
    ))


# ===== canonical labeling =====
#
# Partition refinement (vertices split by neighbor counts per cell) followed
# by backtracking individualization. Among all labelings consistent with the
# refinement the lexicographically smallest adjacency bit string wins; the
# bit order is column-major over the upper triangle, i.e. pair (i, j) with
# j ascending and i < j, so fixing a prefix of the vertex order determines a
# prefix of the string. Automorphisms discovered at equal leaves prune
# symmetric branches, which keeps highly regular graphs tractable.


def _refine(partition: list[list[int]], adj: list[int]) -> list[list[int]]:
    while True:
        masks = []
        for cell in partition:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_partition: list[list[int]] = []
        changed = False
        for cell in partition:
            if len(cell) == 1:
                new_partition.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_partition.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_partition.append(groups[sig])
        if not changed:
            return new_partition
        partition = new_partition


def _prefix_bits(order: list[int], adj: list[int]) -> list[int]:
    bits = []
    for j in range(1, len(order)):
        aj = adj[order[j]]
        for i in range(j):
            bits.append((aj >> order[i]) & 1)
    return bits


def _canonical_order(n: int, adj: list[int]) -> list[int]:
    best_bits: list[int] | None = None
    best_order: list[int] | None = None
    autos: list[tuple[int, ...]] = []

    def search(partition: list[list[int]], fixed: list[int]) -> None:
        nonlocal best_bits, best_order
        partition = _refine(partition, adj)
        prefix: list[int] = []
        for cell in partition:
            if len(cell) != 1:
                break
            prefix.append(cell[0])
        if best_bits is not None and prefix:
            determined = _prefix_bits(prefix, adj)
            if determined > best_bits[: len(determined)]:
                return
        if len(prefix) == n:
            bits = _prefix_bits(prefix, adj)
            if best_bits is None or bits < best_bits:
                best_bits = bits
                best_order = prefix
            elif bits == best_bits and best_order is not None:
                perm = [0] * n
                for a, b in zip(best_order, prefix):
                    perm[a] = b
                autos.append(tuple(perm))
            return
        ci = next(i for i, c in enumerate(partition) if len(c) > 1)
        cell = partition[ci]
        tried_roots: set[int] = set()
        for v in cell:
            # orbit pruning: two cell members connected through discovered
            # automorphisms that fix the individualized vertices lead to
            # identical subtrees, so explore one representative
            parent = list(range(n))
            for a in autos:
                if all(a[x] == x for x in fixed):
                    for w in range(n):
                        rw, ra = _find(parent, w), _find(parent, a[w])
                        if rw != ra:
                            parent[rw] = ra
            root = _find(parent, v)
            if root in tried_roots:
                continue
            tried_roots.add(root)
            rest = [u for u in cell if u != v]
            branch = partition[:ci] + [[v], rest] + partition[ci + 1 :]
            search(branch, fixed + [v])

    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    start = [by_degree[d] for d in sorted(by_degree)]
    search(start, [])
    assert best_order is not None
    return best_order


@lru_cache(maxsize=32768)
def _canonical(g: Graph) -> tuple[tuple[int, ...], bytes]:
    """Canonical vertex order of g and the canonical form it induces."""
    if g.n > MAX_CANON_VERTICES:
        raise CapacityError(
            f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got {g.n}"
        )
    adj = _neighbor_masks(g)
    order = _canonical_order(g.n, adj)
    bits = np.array(_prefix_bits(order, adj), dtype=np.uint8)
    return tuple(order), bytes([g.n]) + np.packbits(bits).tobytes()


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic.

    First byte is the vertex count, the rest packs the upper triangle of the
    canonically relabeled adjacency matrix, column-major, 8 bits per byte.
    Bounded to n <= 12; the backtracking search above that gets expensive.
    """
    return _canonical(g)[1]


def graph_id(g: Graph) -> str:
    """Short stable identifier derived from the canonical form."""
    digest = hashlib.sha1(canonical_form(g)).hexdigest()
    return f"g{g.n}-{digest[:10]}"


def canonical_relabel(g: Graph) -> Graph:
    """The isomorphic copy of g in canonical vertex order (n <= 12)."""
    position = {v: i for i, v in enumerate(_canonical(g)[0])}
    edges = tuple((position[u], position[v]) for u, v in g.edges)
    return Graph(g.n, edges)


# ===== catalog and random generation =====


@lru_cache(maxsize=None)
def _catalog(n: int) -> tuple[Graph, ...]:
    path = resources.files(__package__) / "catalog" / f"connected{n}.g6"
    return tuple(parse_graph6(line) for line in path.read_text("ascii").splitlines())


def enumerate_connected(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Read from the package's graph6 catalog, one file per n <= 8 (11,117
    graphs at n = 8). Representatives are canonically relabeled and sorted
    by (edge count, canonical form).
    """
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise CapacityError(
            f"the connected-graph catalog covers 1 <= n <= {MAX_ENUM_VERTICES}, got {n}"
        )
    return list(_catalog(n))


def random_nonisomorphic_connected(n: int, count: int, seed: int) -> list[Graph]:
    """Sample `count` pairwise non-isomorphic connected graphs on n vertices.

    Each candidate is drawn by including every possible edge independently
    with probability 1/2; disconnected candidates and isomorphic repeats are
    rejected. Deterministic for a fixed seed. Raises GenerationError when the
    request cannot be met (more classes than exist, or too many rejections).
    """
    if not 1 <= n <= MAX_CANON_VERTICES:
        raise CapacityError(
            f"random generation supports 1 <= n <= {MAX_CANON_VERTICES}, got {n}"
        )
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    available = _CONNECTED_CLASSES[n - 1]
    if count > available:
        raise GenerationError(
            f"only {available} connected isomorphism classes exist on "
            f"{n} vertices, cannot produce {count}"
        )
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    found: list[Graph] = []
    seen: set[bytes] = set()
    attempts = 0
    limit = 1000 + 200 * count
    while len(found) < count:
        if attempts >= limit:
            raise GenerationError(
                f"gave up after {attempts} attempts with {len(found)} of "
                f"{count} graphs found"
            )
        attempts += 1
        edges = tuple(pq for pq in pairs if rng.random() < 0.5)
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        key = canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        found.append(g)
    return found


# ===== file formats =====


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optionally prefixed with >>graph6<<).

    The body must be exactly ceil(n(n-1)/12) characters, its padding bits zero.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= x <= 63 for x in data):
        raise ValueError(f"invalid graph6 characters in {s!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError(f"truncated graph6 size in {s!r}")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n < 1:
        raise ValueError(f"graph6 vertex count {n} out of range")
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 vertex count {n} exceeds {MAX_VERTICES}")
    need = n * (n - 1) // 2
    size = -(-need // 6)
    if len(body) != size:
        raise ValueError(f"graph6 string {s!r} has {len(body)} body characters, n={n} needs {size}")
    # six bits per character, most significant first, filling the upper
    # triangle column by column: (0, 1), (0, 2), (1, 2), (0, 3), ...
    bits = np.unpackbits(np.array(body, dtype=np.uint8)[:, None], axis=1)[:, 2:].ravel()
    if bits[need:].any():
        raise ValueError(f"graph6 string {s!r} has nonzero padding bits")
    cols, rows = np.tril_indices(n, -1)
    present = bits[:need].astype(bool)
    return Graph(n, tuple(zip(rows[present].tolist(), cols[present].tolist())))


def read_graph6(path) -> list[Graph]:
    """All graphs from a graph6 file, one per non-empty line."""
    graphs = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.strip():
                graphs.append(parse_graph6(line))
    if not graphs:
        raise ValueError(f"no graphs found in {path}")
    return graphs


def read_edge_list(path) -> list[Graph]:
    """Graphs from a plain edge-list file.

    Each graph is a header line "n m" followed by m lines "u v"; several
    graphs may be concatenated in one file.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    values = [int(t) for t in tokens]
    graphs = []
    pos = 0
    while pos < len(values):
        if pos + 2 > len(values):
            raise ValueError(f"truncated edge-list header in {path}")
        n, m = values[pos], values[pos + 1]
        pos += 2
        if m < 0:
            raise ValueError(f"negative edge count {m} in {path}")
        if pos + 2 * m > len(values):
            raise ValueError(f"truncated edge list in {path}")
        edges = []
        for _ in range(m):
            edges.append((values[pos], values[pos + 1]))
            pos += 2
        graphs.append(Graph(n, tuple(edges)))
    if not graphs:
        raise ValueError(f"no graphs found in {path}")
    return graphs


def write_edge_list(graphs, path) -> None:
    """Write graphs in the edge-list format accepted by read_edge_list."""
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(f"{g.n} {g.edge_count}\n")
            for u, v in g.edges:
                fh.write(f"{u} {v}\n")
