import itertools
import random

import pytest

from maqaoa import (
    CapacityError,
    GenerationError,
    Graph,
    canonical_form,
    canonical_relabel,
    enumerate_connected,
    graph_id,
    is_connected,
    max_cut,
    max_degree_vertices,
    parse_graph6,
    random_nonisomorphic_connected,
    read_edge_list,
    read_graph6,
    write_edge_list,
)
from maqaoa.graphs import MAX_VERTICES
from oracles import brute_canonical, naive_max_cut


def permuted(g: Graph, perm) -> Graph:
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


# ----- Graph value type -----

def test_edges_are_normalized_and_sorted():
    g = Graph(4, ((3, 1), (0, 2), (2, 1)))
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.edge_count == 3


def test_degree_sum_is_twice_edge_count(four_vertex_graphs):
    for g in four_vertex_graphs:
        assert sum(g.degrees()) == 2 * g.edge_count


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


def test_vertex_count_bounds():
    with pytest.raises(CapacityError):
        Graph(0)
    with pytest.raises(CapacityError):
        Graph(25)


def test_is_connected(path4):
    assert is_connected(path4)
    assert is_connected(Graph(1))
    assert not is_connected(Graph(3, ((0, 1),)))


# ----- MaxCut -----

def test_max_cut_known_values(k2, triangle, path4, c4, k4):
    assert max_cut(k2) == 1
    assert max_cut(triangle) == 2
    assert max_cut(path4) == 3
    assert max_cut(c4) == 4
    assert max_cut(k4) == 4
    c5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert max_cut(c5) == 4


def test_max_cut_edgeless_is_zero():
    assert max_cut(Graph(3)) == 0


def test_max_cut_matches_naive_oracle_on_enumeration():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert max_cut(g) == naive_max_cut(g)


def test_max_cut_matches_naive_oracle_on_random_graphs():
    for seed, g in enumerate(random_nonisomorphic_connected(8, 5, seed=13)):
        assert max_cut(g) == naive_max_cut(g), f"graph {seed}"


def test_bipartite_max_cut_equals_edge_count(path4, star4, c4):
    for g in (path4, star4, c4):
        assert max_cut(g) == g.edge_count


def test_max_cut_at_the_vertex_cap():
    """An odd cycle on vertices 0..22 cuts all but one of its edges, and the
    pendant edge to vertex 23 is always cut. The scan covers 2^23 masks; its
    peak is about 185 MB."""
    n = MAX_VERTICES
    odd_cycle = tuple((v, (v + 1) % (n - 1)) for v in range(n - 1))
    g = Graph(n, odd_cycle + ((n - 2, n - 1),))
    assert g.edge_count == n
    assert max_cut(g) == n - 1


# ----- enumeration -----

def test_enumerate_connected_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, count in expected.items():
        assert len(enumerate_connected(n)) == count


def test_enumerate_connected_all_connected_and_distinct():
    for n in range(1, 7):
        graphs = enumerate_connected(n)
        assert all(is_connected(g) for g in graphs)
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(forms)


def test_enumerate_connected_matches_edge_subset_scan():
    # the classes found by scanning every edge subset, told apart by the
    # permutation oracle alone
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        expected = set()
        for mask in range(1 << len(pairs)):
            g = Graph(n, tuple(pq for i, pq in enumerate(pairs) if (mask >> i) & 1))
            if is_connected(g):
                expected.add(brute_canonical(g))
        found = [brute_canonical(g) for g in enumerate_connected(n)]
        assert len(found) == len(expected)
        assert set(found) == expected


def test_enumerate_connected_capacity():
    with pytest.raises(CapacityError):
        enumerate_connected(7)
    with pytest.raises(CapacityError):
        enumerate_connected(0)


def test_enumeration_is_deterministic():
    assert enumerate_connected(5) == enumerate_connected(5)


# ----- canonical labeling -----

def test_canonical_form_relabel_invariance():
    rng = random.Random(0)
    for n in range(2, 6):
        for g in enumerate_connected(n):
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(permuted(g, perm)) == base


def test_canonical_form_matches_brute_oracle():
    # equal canonical forms exactly where the permutation oracle agrees
    graphs = enumerate_connected(4) + enumerate_connected(5)
    rng = random.Random(1)
    variants = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        variants.append(permuted(g, perm))
    pool = graphs + variants
    for a, b in itertools.combinations(pool, 2):
        assert (canonical_form(a) == canonical_form(b)) == (
            brute_canonical(a) == brute_canonical(b)
        )


def test_path_and_star_differ(path4, star4):
    assert canonical_form(path4) != canonical_form(star4)


def test_k4_all_relabelings_one_form(k4):
    forms = {
        canonical_form(permuted(k4, perm))
        for perm in itertools.permutations(range(4))
    }
    assert len(forms) == 1


def test_canonical_relabel_is_isomorphic_and_stable():
    for g in enumerate_connected(5):
        r = canonical_relabel(g)
        assert canonical_form(r) == canonical_form(g)
        assert canonical_relabel(r) == r


def test_canonical_capacity():
    with pytest.raises(CapacityError):
        canonical_form(Graph(13))
    with pytest.raises(CapacityError):
        canonical_relabel(Graph(13))


def test_graph_id_shape_and_stability(path4):
    gid = graph_id(path4)
    assert gid.startswith("g4-") and len(gid) == 13
    assert path4.id == gid
    assert graph_id(permuted(path4, [3, 2, 1, 0])) == gid
    # every graph id, cell seed and record order derives from the canonical
    # bytes, so they are pinned literally
    assert canonical_form(path4) == bytes([0x04, 0x34])
    assert gid == "g4-5a4063a6d7"
    assert [graph_id(g) for g in enumerate_connected(4)] == [
        "g4-f2fc45a853",
        "g4-5a4063a6d7",
        "g4-d88e1a005a",
        "g4-23a86ca98c",
        "g4-ac8a3ebc87",
        "g4-b159b4cb60",
    ]


# ----- max-degree vertices -----

def test_max_degree_vertices(star4, k4, path4):
    assert max_degree_vertices(star4) == [0]
    assert max_degree_vertices(k4) == [0, 1, 2, 3]
    assert max_degree_vertices(path4) == [1, 2]


# ----- random generation -----

def test_random_generation_contract():
    graphs = random_nonisomorphic_connected(9, 50, seed=7)
    assert len(graphs) == 50
    assert all(g.n == 9 for g in graphs)
    assert all(is_connected(g) for g in graphs)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == 50


def test_random_generation_is_deterministic():
    a = random_nonisomorphic_connected(10, 12, seed=3)
    b = random_nonisomorphic_connected(10, 12, seed=3)
    assert a == b
    c = random_nonisomorphic_connected(10, 12, seed=4)
    assert a != c


def test_random_generation_exhaustion():
    with pytest.raises(GenerationError):
        random_nonisomorphic_connected(3, 3, seed=0)
    with pytest.raises(GenerationError):
        random_nonisomorphic_connected(6, 113, seed=0)


def test_random_generation_validation():
    with pytest.raises(ValueError):
        random_nonisomorphic_connected(5, 0, seed=0)
    with pytest.raises(CapacityError):
        random_nonisomorphic_connected(13, 1, seed=0)


# ----- file formats -----

def test_parse_graph6_known_strings(k2, path4, k4):
    assert parse_graph6("A_") == k2
    assert canonical_form(parse_graph6("Ch")) == canonical_form(path4)
    assert parse_graph6("C~") == k4


def test_parse_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_") == Graph(2, ((0, 1),))
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(200))
    # a graph6 body is exactly ceil(n(n-1)/12) characters: one for n = 2
    for text in ("A_?", "A_~~", "C"):
        with pytest.raises(ValueError, match="body characters"):
            parse_graph6(text)
    # K2 has one edge bit; the other five bits of its character are padding
    for text in ("A`", "A~"):
        with pytest.raises(ValueError, match="padding"):
            parse_graph6(text)


def test_parse_graph6_long_form_vertex_count():
    # n = 63 uses the 3-byte form: '~' then 18 bits of n, then 1953 edge bits
    n = 63
    header = "~" + "".join(
        chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
    )
    body = "?" * ((n * (n - 1) // 2 + 5) // 6)
    with pytest.raises(CapacityError, match="63"):
        parse_graph6(header + body)  # parses, then exceeds the vertex cap


def test_read_graph6_file(tmp_path, k2, k4):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<A_\nC~\n\n")
    graphs = read_graph6(path)
    assert graphs == [k2, k4]


def test_edge_list_roundtrip(tmp_path, path4, triangle):
    path = tmp_path / "graphs.edges"
    write_edge_list([path4, triangle, Graph(2)], path)
    assert read_edge_list(path) == [path4, triangle, Graph(2)]


def test_read_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 1\n0\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("4 -2\n")
    with pytest.raises(ValueError, match="negative edge count -2 in .*bad.edges"):
        read_edge_list(path)
