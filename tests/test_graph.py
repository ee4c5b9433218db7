import random
from itertools import combinations

import pytest

from kplanar.graph import (Bipartition, Graph, GraphError, cut_size, from_edge_list,
                           induced_subgraph, read_edge_list, write_edge_list)

from conftest import complete_graph, cycle_graph, path_graph, random_graph


def test_from_edge_list_path():
    g, dups = from_edge_list(3, [(0, 1), (1, 2)])
    assert dups == 0
    assert g.degrees == (1, 2, 1)


def test_from_edge_list_k4():
    g, _ = from_edge_list(4, list(combinations(range(4), 2)))
    assert g.degrees == (3, 3, 3, 3)


def test_from_edge_list_collapses_duplicates():
    g, dups = from_edge_list(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert dups == 2
    assert g.num_edges == 2


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        from_edge_list(2, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        from_edge_list(3, [(0, 3)])


def test_cut_size_k4_singletons(k4):
    assert cut_size(k4, [0], [1]) == 1


def test_cut_size_k6_halves():
    assert cut_size(complete_graph(6), [0, 1, 2], [3, 4, 5]) == 9


def test_cut_size_c6_arcs(c6):
    assert cut_size(c6, [0, 1, 2], [3, 4, 5]) == 2


def test_cut_size_rejects_overlap(k4):
    with pytest.raises(GraphError, match="overlap"):
        cut_size(k4, [0, 1], [1, 2])


def test_cut_size_symmetry_and_bound():
    for seed in range(10):
        g = random_graph(8, 0.4, seed)
        rnd = random.Random(seed)
        verts = list(range(8))
        rnd.shuffle(verts)
        x, y = verts[:3], verts[3:6]
        assert cut_size(g, x, y) == cut_size(g, y, x)
        assert cut_size(g, x, y) <= len(x) * len(y)


def test_cut_plus_internals_equals_edges():
    for seed in range(10):
        g = random_graph(9, 0.5, seed)
        b1, b2 = list(range(4)), list(range(4, 9))
        inner1 = induced_subgraph(g, b1)[0].num_edges
        inner2 = induced_subgraph(g, b2)[0].num_edges
        assert cut_size(g, b1, b2) + inner1 + inner2 == g.num_edges


def test_induced_k4_triangle(k4):
    sub, back = induced_subgraph(k4, [0, 1, 2])
    assert sub.num_edges == 3 and sub.n == 3
    assert back == [0, 1, 2]


def test_induced_c6_even_vertices(c6):
    sub, _ = induced_subgraph(c6, [0, 2, 4])
    assert sub.n == 3 and sub.num_edges == 0


def test_induced_identity():
    g = random_graph(7, 0.4, 3)
    sub, back = induced_subgraph(g, range(7))
    assert sub.edges == g.edges and back == list(range(7))


def test_induced_rejects_empty(k4):
    with pytest.raises(GraphError, match="empty"):
        induced_subgraph(k4, [])


def test_induced_preserves_adjacency_exhaustive():
    # adjacency in the restriction matches the host for every subset, n <= 6
    g = random_graph(6, 0.5, 11)
    verts = range(6)
    for size in range(1, 7):
        for s in combinations(verts, size):
            sub, back = induced_subgraph(g, s)
            for i in range(sub.n):
                for j in range(i + 1, sub.n):
                    assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])


def test_bipartition_balance():
    b = Bipartition((0, 1, 2), (3, 4, 5, 6, 7, 8))
    assert b.balanced
    assert not Bipartition((0, 1), (2, 3, 4, 5, 6, 7, 8)).balanced


def test_bipartition_rejects_overlap():
    with pytest.raises(GraphError):
        Bipartition((0, 1), (1, 2))


def test_edge_list_roundtrip(tmp_path):
    g = random_graph(12, 0.3, 5)
    path = str(tmp_path / "g.txt")
    write_edge_list(path, g)
    assert read_edge_list(path) == g


def test_read_edge_list_rejects_bad_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(GraphError, match="header says"):
        read_edge_list(str(path))


def test_path_graph_text_format(tmp_path):
    path = str(tmp_path / "p.txt")
    write_edge_list(path, path_graph(3))
    assert open(path).read() == "3 2\n0 1\n1 2\n"
