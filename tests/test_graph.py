import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplanar.graph import (EdgePartition, Graph, GraphError, _neighbours, cut_size,
                           random_edge_partition, read_edge_list, write_edge_list)
from kplanar.models import _multigraph_keys, _simplify

from conftest import complete_graph, cycle_graph, path_graph, random_graph, simple_edge_lists


def test_from_edge_list_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert tuple(g.degrees) == (1, 2, 1)


def test_from_edge_list_k4():
    g = Graph(4, list(combinations(range(4), 2)))
    assert tuple(g.degrees) == (3, 3, 3, 3)


def test_from_edge_list_collapses_duplicates():
    # Graph rejects repeats; the union samplers' collapse is where they are counted.
    rows = np.array([(0, 1), (1, 0), (0, 1), (1, 2)])
    g, dups, loops = _simplify(3, _multigraph_keys(3, *rows.T))
    assert (dups, loops) == (2, 0)
    assert g.num_edges == 2


def test_simplify_of_loops_only():
    rows = np.array([(0, 0), (2, 2), (2, 2)])
    g, dups, loops = _simplify(3, _multigraph_keys(3, *rows.T))
    assert (g.num_edges, dups, loops) == (0, 0, 3)


@pytest.mark.parametrize("g,d", [
    (Graph(0, []), None), (Graph(3, []), 0), (cycle_graph(5), 2), (complete_graph(4), 3),
    (path_graph(4), None), (Graph(4, [(0, 1), (2, 3), (0, 2)]), None),
], ids=["n0", "edgeless", "cycle", "k4", "path", "degrees-2-1-2-1"])
def test_regular_degree(g, d):
    assert g.regular_degree() == d


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(2, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3)])


@settings(max_examples=200, deadline=None)
@given(simple_edge_lists())
def test_derived_views_agree_with_edges(case):
    n, pairs = case
    g = Graph(n, pairs)
    want = sorted((min(p), max(p)) for p in pairs)
    assert [tuple(e) for e in g.edges.tolist()] == want
    assert g.num_edges == len(want)
    indptr, indices = _neighbours(g)
    assert len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == 2 * len(want)
    for u in range(n):
        nbrs = sorted([b for a, b in want if a == u] + [a for a, b in want if b == u])
        assert indices[indptr[u]:indptr[u + 1]].tolist() == nbrs
        assert g.degrees[u] == len(nbrs)


@pytest.mark.parametrize("pairs,message", [
    ([(0, 1), (2, 2), (5, 1), (1, 0)], "self-loop (2,2)"),
    ([(0, 1), (5, 1), (2, 2), (1, 0)], "endpoint out of range in (5,1), n=4"),
    ([(0, 1), (1, 2), (1, 0), (3, 3)], "duplicate edge (0, 1)"),
    ([(1, 2), (7, 7), (-1, 2)], "self-loop (7,7)"),       # loop before range
    ([(0, 1), (-1, 5)], "endpoint out of range in (-1,5), n=4"),  # key equals (0, 1)'s
    ([(-1, 5), (0, 1)], "endpoint out of range in (-1,5), n=4"),
    ([(3, 0), (2, 1), (0, 3)], "duplicate edge (0, 3)"),
])
@pytest.mark.parametrize("form", [list, lambda p: (e for e in p), np.array],
                         ids=["list", "generator", "ndarray"])
def test_validation_names_first_bad_pair(pairs, message, form):
    with pytest.raises(GraphError, match=re.escape(message)):
        Graph(4, form(pairs))


def _scan(n, pairs):
    """Reference for Graph's validation: the GraphError message a plain-Python
    scan in input order predicts, else the sorted distinct edges."""
    seen = set()
    for u, v in pairs:
        if u == v:
            return f"self-loop ({u},{v})"
        if not (0 <= u < n and 0 <= v < n):
            return f"endpoint out of range in ({u},{v}), n={n}"
        if (min(u, v), max(u, v)) in seen:
            return f"duplicate edge {(min(u, v), max(u, v))}"
        seen.add((min(u, v), max(u, v)))
    return sorted(seen)


@st.composite
def raw_pair_lists(draw):
    """(n, pairs): ids in -2..n+1, so loops and out-of-range ends occur, drawn
    from a small pool so that pairs repeat, either way round."""
    n = draw(st.integers(0, 8))
    ids = st.integers(-2, n + 1)
    pool = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=10))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in picks]


@settings(max_examples=300, deadline=None)
@given(raw_pair_lists(), st.sampled_from([list, np.array]))
def test_validation_matches_a_python_scan(case, form):
    n, pairs = case
    want = _scan(n, pairs)
    if isinstance(want, str):
        with pytest.raises(GraphError, match=f"^{re.escape(want)}$"):
            Graph(n, form(pairs))
    else:
        assert Graph(n, form(pairs)).edges.tolist() == [list(e) for e in want]


@pytest.mark.parametrize("n", [2**31, 2**32 + 1])
def test_graph_refuses_n_at_the_pair_key_limit(n):
    # At n = 2**32 + 1 the keys u * n + v of (0, 2**32 - 1) and (2**32 - 1, 2**32) wrap
    # int64 to the same value.  Construction only: degrees and neighbours take n-sized arrays.
    with pytest.raises(GraphError, match=re.escape(f"n={n} is not below the limit 2**31")):
        Graph(n, [(0, 2**32 - 1), (2**32 - 1, 2**32)])


def test_graph_accepts_the_largest_n():
    n = 2**31 - 1
    assert Graph(n, [(n - 1, 0), (n - 2, n - 1)]).edges.tolist() == [[0, n - 1], [n - 2, n - 1]]


def test_graph_rejects_non_pairs():
    with pytest.raises(GraphError, match="pairs"):
        Graph(4, [(0, 1, 2)])


@pytest.mark.parametrize("edges", [[(0.5, 1.7)], np.array([[0.9, 2.2]]), [(0.0, 1.0)]],
                         ids=["list", "ndarray", "integral-floats"])
def test_graph_refuses_float_vertex_ids(edges):
    # A cast would truncate (0.5, 1.7) to the edge (0, 1) and (0.9, 2.2) to (0, 2).
    with pytest.raises(GraphError, match="vertex ids must be integers, got float64"):
        Graph(3, edges)


@pytest.mark.parametrize("edges", [[], (), np.empty((0, 2)), np.array([], dtype=np.int32)],
                         ids=["list", "tuple", "float-array", "int32-array"])
def test_graph_accepts_empty_edges_of_any_dtype(edges):
    assert Graph(3, edges) == Graph(3, np.empty((0, 2), dtype=np.int64))


def test_edges_are_read_only(k4):
    with pytest.raises(ValueError):
        k4.edges[0, 0] = 3


def test_edge_partition_rejects_bad_classes(k4):
    for classes in ([0, 1, 2, 0, 0, 0], [0, -1, 0, 0, 0, 0], [[0, 1], [1, 0]]):
        with pytest.raises(GraphError, match="classes in 0..k-1"):
            EdgePartition(2, classes)
    for classes in ([0, 1, 0], [0] * 7):
        with pytest.raises(GraphError, match=f"{len(classes)} edge classes for 6 edges"):
            EdgePartition(2, classes).class_subgraph(k4, 0)


@pytest.mark.parametrize("classes", [np.array([0.7, 1.9]), [0.0, 1.0]], ids=["ndarray", "list"])
def test_edge_partition_refuses_float_classes(classes):
    # A cast would truncate [0.7, 1.9] to the classes [0, 1].
    with pytest.raises(GraphError, match="edge classes must be integers, got float64"):
        EdgePartition(2, classes)


def test_edge_partition_accepts_no_edges_and_leaves_its_input_writable():
    assert EdgePartition(2, []).classes.dtype == np.int64
    classes = np.array([0, 1])
    EdgePartition(2, classes)
    assert classes.flags.writeable


def test_class_subgraph_keeps_aligned_edges(k4):
    ep = EdgePartition(2, [0, 1, 0, 1, 0, 1])
    assert ep.class_subgraph(k4, 1).edges.tolist() == k4.edges[1::2].tolist()
    assert ep.class_subgraph(k4, 0).n == 4


@pytest.mark.parametrize("c", [-1, 2, 5])
def test_class_subgraph_refuses_a_class_outside_k(k4, c):
    # A class index past k used to give the edgeless graph.
    with pytest.raises(GraphError, match=re.escape(f"class {c} is not in 0..1")):
        EdgePartition(2, [0, 1, 0, 1, 0, 1]).class_subgraph(k4, c)


@pytest.mark.parametrize("ground", [[0, 2, 1], [0, 1, 1], [-1, 2], [1, 4], [[0, 1], [2, 3]]],
                         ids=["unsorted", "repeat", "negative", "past-n", "2-d"])
def test_class_subgraph_refuses_a_ground_not_strictly_ascending_in_range(k4, ground):
    with pytest.raises(GraphError, match=re.escape("strictly ascending array of ids in 0..3")):
        _restrict(k4, ground)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n - 1)), st.integers(1, 3), st.integers(0, 2**32 - 1))))
def test_class_subgraph_matches_brute_restriction(case):
    # Vertices i < j of the restriction are adjacent iff (ground[i], ground[j]) is a class-c edge.
    n, ids, k, seed = case
    g = random_graph(n, 0.4, seed)
    ep = random_edge_partition(g, k, seed)
    ground = np.array(sorted(ids), dtype=np.int64)
    for c in range(k):
        host = {(u, v) for (u, v), cls in zip(g.edges.tolist(), ep.classes.tolist()) if cls == c}
        want = Graph(len(ground), [(i, j) for i, j in combinations(range(len(ground)), 2)
                                   if (ground[i], ground[j]) in host])
        assert ep.class_subgraph(g, c, ground) == want


def test_random_edge_partition_of_no_edges_and_one_class():
    assert random_edge_partition(Graph(4, []), 3, 1).classes.size == 0
    ep = random_edge_partition(complete_graph(6), 1, 1)
    assert ep.k == 1 and ep.classes.tolist() == [0] * 15


@pytest.mark.parametrize("k", [2, 3])
def test_random_edge_partition_classes_are_near_m_over_k(k):
    # 1% of m/k is at least 2.2 standard deviations of a class count at m = 1e5.
    g = Graph(500, np.column_stack(np.triu_indices(500, 1))[:100_000])
    counts = np.bincount(random_edge_partition(g, k, 11).classes, minlength=k)
    assert np.abs(counts - g.num_edges / k).max() <= 0.01 * g.num_edges / k


def test_cut_size_k4_singletons(k4):
    assert cut_size(k4, [0], [1]) == 1


def test_cut_size_k6_halves():
    assert cut_size(complete_graph(6), [0, 1, 2], [3, 4, 5]) == 9


def test_cut_size_c6_arcs(c6):
    assert cut_size(c6, [0, 1, 2], [3, 4, 5]) == 2


def test_cut_size_rejects_overlap(k4):
    with pytest.raises(GraphError, match="overlap"):
        cut_size(k4, [0, 1], [1, 2])


@pytest.mark.parametrize("X,Y", [([-1], [2]), ([0], [4]), ([0, 1], [2, 9])],
                         ids=["negative", "n", "past-n-in-Y"])
def test_cut_size_rejects_ids_outside_the_graph(X, Y):
    with pytest.raises(GraphError, match=r"vertex id out of range 0\.\.3"):
        cut_size(path_graph(4), X, Y)  # -1 used to wrap to vertex 3 and count edge (2, 3)


def test_cut_size_symmetry_and_bound():
    for seed in range(10):
        g = random_graph(8, 0.4, seed)
        rnd = random.Random(seed)
        verts = list(range(8))
        rnd.shuffle(verts)
        x, y = verts[:3], verts[3:6]
        assert cut_size(g, x, y) == cut_size(g, y, x)
        assert cut_size(g, x, y) <= len(x) * len(y)


def _restrict(g: Graph, ground) -> Graph:
    """g restricted to the vertices of the ascending list `ground`."""
    return EdgePartition(1, np.zeros(g.num_edges, dtype=np.int64)).class_subgraph(
        g, 0, np.array(ground))


def test_cut_plus_internals_equals_edges():
    for seed in range(10):
        g = random_graph(9, 0.5, seed)
        b1, b2 = list(range(4)), list(range(4, 9))
        inner1 = _restrict(g, b1).num_edges
        inner2 = _restrict(g, b2).num_edges
        assert cut_size(g, b1, b2) + inner1 + inner2 == g.num_edges


def test_induced_k4_triangle(k4):
    sub = _restrict(k4, [0, 1, 2])
    assert sub.num_edges == 3 and sub.n == 3


def test_induced_c6_even_vertices(c6):
    sub = _restrict(c6, [0, 2, 4])
    assert sub.n == 3 and sub.num_edges == 0


def test_induced_identity():
    g = random_graph(7, 0.4, 3)
    assert _restrict(g, range(7)).edges.tolist() == g.edges.tolist()


def test_induced_refuses_float_ids(k4):
    with pytest.raises(GraphError, match="integers"):
        _restrict(k4, [0.0, 1.0])


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


@pytest.mark.parametrize("text, lineno, got", [
    ("3 2\n0 1\n1 2 3\n", 3, "'1 2 3'"),
    ("3 2\n0 1\n\n1 x\n", 4, "'1 x'"),
    ("3 2\n2\n0 1\n", 2, "'2'"),
    ("3 x\n0 1\n", 1, "'3 x'"),
    ("", 1, "''"),
], ids=["three-fields", "non-integer", "one-field", "bad-header", "empty-file"])
def test_read_edge_list_names_malformed_line(tmp_path, text, lineno, got):
    path = tmp_path / "g.txt"
    path.write_text(text)
    form = "'n m'" if lineno == 1 else "'u v'"
    with pytest.raises(GraphError) as exc:
        read_edge_list(str(path))
    assert str(exc.value) == f"{path}:{lineno}: expected two integers {form}, got {got}"


def test_path_graph_text_format(tmp_path):
    path = str(tmp_path / "p.txt")
    write_edge_list(path, path_graph(3))
    assert open(path).read() == "3 2\n0 1\n1 2\n"
