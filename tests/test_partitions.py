import hashlib
import json
import math
import random
import re
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kplanar.partitions
from kplanar.graph import Graph, GraphError, _neighbours, cut_size, random_edge_partition
from kplanar.models import RegularModel, sample, sample_gnp, sample_regular
from kplanar.partitions import (BisectionResult, _cut_and_gains, _improving_swap, exact_bisection,
                                lemma1_split, local_search_bisection, witness_chain, witness_floor)

from conftest import complete_bipartite, complete_graph, cycle_graph, path_graph, random_graph


def brute_bisection_width(g: Graph) -> int:
    """Independent oracle: scan every 1/3-2/3 bipartition by direct edge count."""
    n = g.n
    lo = math.ceil(n / 3)
    best = None
    for size in range(lo, n - lo + 1):
        for block in combinations(range(n), size):
            side = set(block)
            cut = sum(1 for u, v in g.edges.tolist() if (u in side) != (v in side))
            best = cut if best is None else min(best, cut)
    return best


def first_improving_swap(g: Graph, side: list[bool], order: list[int]) -> tuple[int, list[bool]]:
    """Reference for `_improving_swap`: the first pair in (side-True vertices
    in `order`) x (side-False vertices in `order`) whose swap lowers the cut,
    trying only u with a positive gain; both counted from the edge list.
    Returns the cut drop and the sides after the swap, or (0, side)."""
    edges = g.edges.tolist()

    def cut(s):
        return sum(1 for a, b in edges if s[a] != s[b])

    def gain(u):
        return sum(1 if side[a] != side[b] else -1 for a, b in edges if u in (a, b))

    for u in (u for u in order if side[u] and gain(u) > 0):
        for v in (v for v in order if not side[v]):
            swapped = list(side)
            swapped[u], swapped[v] = False, True
            if cut(side) > cut(swapped):
                return cut(side) - cut(swapped), swapped
    return 0, list(side)


def blocks(side: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(block1, block2) of a side array, as ascending vertex tuples."""
    return tuple(np.flatnonzero(~side).tolist()), tuple(np.flatnonzero(side).tolist())


def balanced(side: np.ndarray) -> bool:
    """Each block holds at least a third of the vertices."""
    return 3 * min(np.count_nonzero(side), np.count_nonzero(~side)) >= len(side)


def set_lemma1_split(side1, side2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The set-algebra rule that `lemma1_split` replaced, on the blocks of two
    balanced side arrays over one ground set: the (block1 & block1,
    block2 & block2) diagonal when both its cells reach ceil(m/6), else the other."""
    m = len(side1)
    b11, b12 = (set(b) for b in blocks(np.asarray(side1)))
    b21, b22 = (set(b) for b in blocks(np.asarray(side2)))
    cell_a = b11 & b21
    cell_d = b12 & b22
    thresh = math.ceil(m / 6)
    if len(cell_a) >= thresh and len(cell_d) >= thresh:
        pick1, pick2 = cell_a, cell_d
    else:
        pick1, pick2 = b11 & b22, b12 & b21
    return tuple(sorted(pick1)), tuple(sorted(pick2))


@st.composite
def balanced_sides(draw, m):
    """A side array over m positions whose blocks both hold >= ceil(m/3)."""
    lo = math.ceil(m / 3)
    side = np.zeros(m, dtype=bool)
    side[draw(st.permutations(range(m)))[:draw(st.integers(lo, m - lo))]] = True
    return side


@st.composite
def small_graphs(draw, min_n=3, max_n=16):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


class TestLemma1:
    def test_worked_example(self):
        # Ground 1..12 at positions 0..11: blocks {1..6} | {7..12} and {4..9} | the rest.
        pos = np.arange(12)
        y1, y2 = lemma1_split(pos >= 6, (pos < 3) | (pos > 8))
        assert y1.tolist() == [3, 4, 5] and y2.tolist() == [9, 10, 11]

    def test_identical_bipartitions(self):
        side = np.array([False] * 3 + [True] * 3)
        y1, y2 = lemma1_split(side, side)
        assert y1.tolist() == [0, 1, 2] and y2.tolist() == [3, 4, 5]

    def test_rejects_unbalanced(self):
        side1 = np.array([False] + [True] * 5)
        side2 = np.array([False] * 3 + [True] * 3)
        with pytest.raises(GraphError, match="m/3"):
            lemma1_split(side1, side2)

    def test_rejects_mismatched_ground(self):
        with pytest.raises(GraphError, match="ground"):
            lemma1_split(np.array([False, False, True, True]),
                         np.array([False, False, True, True, True]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 40).flatmap(lambda m: st.tuples(balanced_sides(m), balanced_sides(m))))
    def test_matches_the_set_rule(self, sides):
        y1, y2 = lemma1_split(*sides)
        assert (tuple(y1.tolist()), tuple(y2.tolist())) == set_lemma1_split(*sides)

    def test_exhaustive_m6(self):
        # all balanced bipartition pairs on 6 elements satisfy the postcondition
        self._exhaust(6)

    def test_exhaustive_m9(self):
        self._exhaust(9)

    @staticmethod
    def _exhaust(m):
        lo = math.ceil(m / 3)
        sides = []
        for size in range(lo, m - lo + 1):
            for block in combinations(range(m), size):
                side = np.ones(m, dtype=bool)
                side[list(block)] = False
                sides.append(side)
        thresh = math.ceil(m / 6)
        for side1 in sides:
            s11, s12 = map(set, blocks(side1))
            for side2 in sides:
                y1, y2 = lemma1_split(side1, side2)
                assert len(y1) >= thresh and len(y2) >= thresh
                s21, s22 = map(set, blocks(side2))
                y1, y2 = set(y1.tolist()), set(y2.tolist())
                same = y1 <= s11 & s21 and y2 <= s12 & s22
                cross = y1 <= s11 & s22 and y2 <= s12 & s21
                assert same or cross


class TestExactBisection:
    def test_p4(self):
        res = exact_bisection(path_graph(4))
        assert res.cut == 1 and res.exact

    def test_c6(self):
        assert exact_bisection(cycle_graph(6)).cut == 2

    def test_k6_matches_brute(self):
        g = complete_graph(6)
        assert exact_bisection(g).cut == brute_bisection_width(g) == 8

    def test_random_graphs_match_brute(self):
        for seed in range(25):
            g = random_graph(random.Random(seed).randint(4, 9), 0.5, seed)
            res = exact_bisection(g)
            assert res.cut == brute_bisection_width(g)
            assert balanced(res.side)
            assert cut_size(g, *blocks(res.side)) == res.cut

    def test_cap(self):
        g = random_graph(22, 3 / 21, 1)
        res = exact_bisection(g)
        assert balanced(res.side)
        assert res.cut == cut_size(g, *blocks(res.side))
        for n in (23, 25):
            with pytest.raises(GraphError, match="cap 22"):
                exact_bisection(random_graph(n, 3 / (n - 1), 1))

    def test_edgeless_cap_takes_the_first_smallest_block(self):
        res = exact_bisection(Graph(22, []))
        assert res.cut == 0 and blocks(res.side)[0] == tuple(range(8))

    def test_side_is_read_only(self):
        res = exact_bisection(cycle_graph(6))
        with pytest.raises(ValueError, match="read-only"):
            res.side[0] = True
        side = np.array([False, False, True, True])
        res = BisectionResult(side, 2, False)
        side[0] = True  # the result keeps its own copy
        assert res.side.tolist() == [False, False, True, True] and not res.side.flags.writeable

    def test_corpus_partitions_are_pinned(self):
        # Recorded with `first_minimum_bisection`, the pure-Python enumeration
        # that numpy scoring replaced and must not change any cut or partition.
        assert exact_corpus_digest() == EXACT_CORPUS_DIGEST

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(2, 10))
    def test_matches_first_minimum_in_combination_order(self, g):
        res = exact_bisection(g)
        cut, block1 = first_minimum_bisection(g)
        b1, b2 = blocks(res.side)
        assert (res.cut, b1) == (cut, block1)
        assert b2 == tuple(v for v in range(g.n) if v not in block1)
        assert res.cut == cut_size(g, b1, b2)
        assert balanced(res.side) and res.exact


def first_minimum_bisection(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The enumeration `exact_bisection` replaced: blocks holding vertex 0,
    by size and then in `combinations` order, keeping the first minimum cut."""
    n = g.n
    lo = math.ceil(n / 3)
    best = None
    for size in range(lo, n - lo + 1):
        for rest in combinations(range(1, n), size - 1):
            block = (0,) + rest
            cut = cut_size(g, block, [v for v in range(n) if v not in block])
            if best is None or cut < best[0]:
                best = (cut, block)
    return best


def exact_corpus():
    """Fixed graphs on 2..18 vertices: G(n, p) at two densities for every n,
    edgeless and complete graphs, graphs with vertex 0 isolated, and the
    class subgraphs of uniform 3- and 4-regular graphs under random
    2-class edge partitions."""
    for n in range(2, 19):
        yield random_graph(n, 0.3, n)
        yield random_graph(n, 0.6, 100 + n)
    for n in (2, 5, 12, 18):
        yield Graph(n, [])
    for n in (2, 5, 9, 14, 18):
        yield complete_graph(n)
    for n in (6, 11, 17):
        h = random_graph(n - 1, 0.4, 200 + n)
        yield Graph(n, h.edges + 1)
    for n in (12, 14, 16, 18):
        for d in (3, 4):
            g = sample_regular(n, d, RegularModel.UNIFORM_SIMPLE, 300 + n + d).graph
            ep = random_edge_partition(g, 2, n * d)
            for c in range(2):
                yield ep.class_subgraph(g, c)


def exact_corpus_digest() -> str:
    h = hashlib.sha256()
    for g in exact_corpus():
        res = exact_bisection(g)
        h.update(repr((res.cut, *blocks(res.side))).encode())
    return h.hexdigest()


EXACT_CORPUS_DIGEST = "159609b1e7ee758ebfacd8c5345e2e9ffa4c39fa5b9278da587e5c912500d31a"


def local_search_corpus():
    """55 fixed graphs: G(n, p) on 3..60 vertices, and the class subgraphs
    of uniform 4-regular graphs under 2- and 3-class edge partitions."""
    for i in range(20):
        for p in (0.1, 0.35):
            yield sample_gnp(3 + 3 * i, p, 100 + i)
    for n in (12, 30, 48):
        g = sample_regular(n, 4, RegularModel.UNIFORM_SIMPLE, n).graph
        for k in (2, 3):
            ep = random_edge_partition(g, k, n + k)
            for c in range(k):
                yield ep.class_subgraph(g, c)


def local_search_corpus_digest() -> str:
    h = hashlib.sha256()
    for i, g in enumerate(local_search_corpus()):
        for restarts in range(1, 6):
            res = local_search_bisection(g, seed=i, restarts=restarts)
            h.update(repr((res.cut, *blocks(res.side))).encode())
    return h.hexdigest()


class TestLocalSearch:
    def test_corpus_partitions_are_pinned(self):
        # Recorded when the draws moved to one numpy Generator per call.
        assert local_search_corpus_digest() == (
            "65cb7d5d29f3718be43b9abb42c4d386c4d21293d6a769c292056764724a2eb6")

    def test_corpus_takes_the_swap_branch(self, monkeypatch):
        swap = kplanar.partitions._improving_swap
        taken = []

        def counting(*args):
            delta = swap(*args)
            taken.append(delta)
            return delta

        monkeypatch.setattr(kplanar.partitions, "_improving_swap", counting)
        local_search_corpus_digest()
        assert any(taken) and not all(taken)  # swaps made, and searches ended by none

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.integers(0, 2**32), st.integers(1, 4))
    def test_reported_cut_is_the_partitions_cut(self, g, seed, restarts):
        res = local_search_bisection(g, seed, restarts)
        b1, b2 = blocks(res.side)
        assert res.cut == cut_size(g, b1, b2)
        assert balanced(res.side) and len(res.side) == g.n

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_improving_swap_is_the_first_improving_pair(self, g, data):
        side = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)
                         .filter(lambda s: any(s) and not all(s)))
        order = data.draw(st.permutations(range(g.n)))
        delta, swapped = first_improving_swap(g, side, order)
        got, gain = list(side), _cut_and_gains(g, np.array(side))[1]
        csr = tuple(a.tolist() for a in _neighbours(g))
        assert _improving_swap(got, gain, csr, order) == delta
        assert got == swapped
        assert gain == _cut_and_gains(g, np.array(swapped))[1]

    def test_dense_graphs_past_fifty_moves_per_vertex(self):
        # Above average degree 100, m > 50n: the search stops because every move or
        # swap lowers the cut, with no move budget.  Digest recorded when the draws
        # moved to one numpy Generator per call.
        h = hashlib.sha256()
        for n, p in ((250, 0.6), (400, 0.5)):
            g = sample_gnp(n, p, 1)
            assert g.num_edges > 50 * n
            res = local_search_bisection(g, seed=0, restarts=2)
            b1, b2 = blocks(res.side)
            assert res.cut == cut_size(g, b1, b2)
            assert balanced(res.side) and len(res.side) == n
            h.update(repr((res.cut, b1, b2)).encode())
        assert h.hexdigest() == (
            "c1ee18d1242d2d31692dc0a6cedee2deec600436352d6fe021aec5bf78676aea")

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(0, 2**32), st.integers(1, 4))
    def test_restarts_are_a_prefix(self, g, seed, restarts):
        # One Generator per call: the first r runs do not depend on how many follow.
        assert (local_search_bisection(g, seed, restarts + 1).cut
                <= local_search_bisection(g, seed, restarts).cut)

    def test_ignores_global_random_state(self):
        g = random_graph(40, 0.2, 3)
        results = []
        for state in (0, 1):
            random.seed(state)
            np.random.seed(state)
            results.append((local_search_bisection(g, seed=5, restarts=3),
                            random_edge_partition(g, 3, 5).classes.tolist()))
        assert results[0] == results[1]

    def test_rejects_zero_restarts(self):
        with pytest.raises(GraphError, match="restarts >= 1"):
            local_search_bisection(random_graph(10, 0.4, 1), seed=0, restarts=0)

    def test_upper_bounds_exact(self):
        for seed in range(15):
            g = random_graph(10, 0.4, seed)
            heur = local_search_bisection(g, seed=seed)
            assert not heur.exact
            assert balanced(heur.side)
            assert heur.cut >= exact_bisection(g).cut
            assert cut_size(g, *blocks(heur.side)) == heur.cut

    def test_k33(self):
        g = complete_bipartite(3, 3)
        heur = local_search_bisection(g, seed=0)
        assert heur.cut >= exact_bisection(g).cut

    def test_two_components_split(self):
        edges = list(combinations(range(4), 2)) + [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
        g = Graph(8, edges)
        assert local_search_bisection(g, seed=1).cut == 0

    def test_deterministic(self):
        g = random_graph(30, 0.2, 7)
        a = local_search_bisection(g, seed=42)
        b = local_search_bisection(g, seed=42)
        assert a == b


class TestWitnessChain:
    def test_two_disjoint_k4s_zero_cut(self):
        edges = list(combinations(range(4), 2)) + [(u + 4, v + 4) for u, v in combinations(range(4), 2)]
        g = Graph(8, edges)
        ep = random_edge_partition(g, 2, seed=3)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=3))
        assert chain.e_ab <= chain.width_sum

    def test_k6_with_exact_oracle(self):
        g = complete_graph(6)
        for seed in range(10):
            ep = random_edge_partition(g, 2, seed)
            chain = witness_chain(g, ep, exact_bisection)
            assert chain.e_ab == cut_size(g, chain.A, chain.B)
            assert chain.e_ab <= chain.width_sum

    def test_k3_nested_sizes(self):
        g = random_graph(54, 0.15, 9)
        ep = random_edge_partition(g, 3, seed=9)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=9, restarts=2))
        n, k = g.n, 3
        for i, y in enumerate(chain.y_sets, start=2):
            assert len(y) >= math.ceil(n / 3 ** (i - 1))
        t = math.ceil(n / (6 * 3 ** (k - 2)))
        assert len(chain.A) == len(chain.B) >= t

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sets_reach_the_size_bound(self, k):
        # |A| = |B| >= ceil(n / witness_floor(k)), and some chains meet it exactly.
        floor, tight = witness_floor(k), 0
        for n in range(floor, floor + 12):
            for seed in range(3):
                g = random_graph(n, 0.3, seed)
                ep = random_edge_partition(g, k, seed)
                chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed, 1))
                size = math.ceil(n / floor)
                assert len(chain.A) == len(chain.B) >= size
                tight += len(chain.A) == size
        assert tight > 0

    @pytest.mark.parametrize("trim", [lambda y1, y2: (y1, y2[1:]),
                                      lambda y1, y2: (y1[:1], y2[:1])], ids=["unequal", "small"])
    def test_set_sizes_are_an_invariant(self, monkeypatch, trim):
        monkeypatch.setattr(kplanar.partitions, "_trim_equal", trim)
        g = random_graph(30, 0.3, 4)
        with pytest.raises(AssertionError, match=re.escape("need equal sizes >= ceil(n/6) = 5")):
            witness_chain(g, random_edge_partition(g, 2, seed=4),
                          lambda h: local_search_bisection(h, 4))

    def test_every_ab_edge_is_cut_at_its_level(self):
        # the structural reason the inequality is a theorem
        g = random_graph(30, 0.3, 4)
        ep = random_edge_partition(g, 2, seed=4)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=4))
        a, b = set(chain.A), set(chain.B)
        for i, (u, v) in enumerate(g.edges.tolist()):
            if (u in a and v in b) or (v in a and u in b):
                lv = chain.levels[ep.classes[i]]
                s1 = set(lv.ground[~lv.side].tolist())
                assert (u in s1) != (v in s1)

    def test_to_dict_reports_trim_sizes(self):
        g = random_graph(54, 0.15, 9)
        ep = random_edge_partition(g, 3, seed=9)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=9, restarts=2))
        levels = chain.to_dict()["levels"]
        assert levels[0]["pretrim_sizes"] is None and levels[0]["posttrim_sizes"] is None
        y1, y2 = lemma1_split(chain.levels[0].side, chain.levels[1].side)
        assert levels[1]["pretrim_sizes"] == [len(y1), len(y2)]
        for level, y in zip(levels[1:], chain.y_sets):
            t = min(level["pretrim_sizes"])
            assert level["posttrim_sizes"] == [t, t] and 2 * t == len(y)
        assert levels[-1]["posttrim_sizes"] == [len(chain.A), len(chain.B)]

    def test_deterministic(self):
        g = random_graph(24, 0.3, 8)
        ep = random_edge_partition(g, 2, seed=8)
        oracle = lambda h: local_search_bisection(h, seed=8)
        assert witness_chain(g, ep, oracle).to_dict() == witness_chain(g, ep, oracle).to_dict()

    def test_rejects_small_n(self):
        g = random_graph(10, 0.5, 1)
        ep = random_edge_partition(g, 3, seed=1)
        with pytest.raises(GraphError, match="6\\*3"):
            witness_chain(g, ep, exact_bisection)

    def test_floor_is_the_smallest_n_that_runs(self):
        assert [witness_floor(k) for k in (2, 3, 4)] == [6, 18, 54]
        ep = random_edge_partition(cycle_graph(18), 3, seed=1)
        assert witness_chain(cycle_graph(18), ep, exact_bisection).e_ab >= 0
        with pytest.raises(GraphError, match=re.escape("need n >= 6*3^(k-2) = 18, got n=17")):
            witness_chain(cycle_graph(17), random_edge_partition(cycle_graph(17), 3, seed=1),
                          exact_bisection)
        with pytest.raises(GraphError, match="need k >= 2 classes, got k=1"):
            witness_floor(1)

    def test_rejects_unbalanced_oracle(self):
        g = random_graph(12, 0.5, 2)
        ep = random_edge_partition(g, 2, seed=2)

        def bad_oracle(h):
            side = np.arange(h.n) > 0
            return BisectionResult(side, cut_size(h, *blocks(side)), False)

        with pytest.raises(GraphError, match="balance"):
            witness_chain(g, ep, bad_oracle)

    def test_rejects_an_oracle_side_of_the_wrong_length(self):
        g = random_graph(12, 0.5, 2)
        ep = random_edge_partition(g, 2, seed=2)

        def bad_oracle(h):
            res = local_search_bisection(h, seed=2)
            return BisectionResult(np.append(res.side, False), res.cut, False)

        with pytest.raises(GraphError, match="13 sides for the 12 vertices of class 0"):
            witness_chain(g, ep, bad_oracle)

    def test_rejects_an_oracle_that_misreports_its_cut(self):
        # An under-reported cut once surfaced as a witness-chain inequality violation.
        g = sample("gnp", 40, None, 0.3, 1).graph
        ep = random_edge_partition(g, 2, 1)

        def bad_oracle(h):
            return BisectionResult(local_search_bisection(h, seed=1).side, 0, False)

        with pytest.raises(GraphError, match="reported cut 0 on class 0, but its sides cut"):
            witness_chain(g, ep, bad_oracle)

    def test_corpus_chains_are_pinned(self):
        # Recorded on the tuple-and-set chain that side arrays replaced.
        h = hashlib.sha256()
        for g, ep, oracle in witness_corpus():
            h.update(json.dumps(witness_chain(g, ep, oracle).to_dict()).encode())
        assert h.hexdigest() == (
            "47e1982f9d0571e8e094ea2f43054d6d0bd8ebcb1b6be07eef9d7b2a5cf61f9f")


def witness_corpus():
    """(graph, edge partition, oracle) triples: k = 2 and 3 chains with the exact
    oracle on 6..18 vertices, and k = 2, 3 and 4 chains with local search on up
    to 60."""
    for n in (6, 9, 12, 15, 18):
        for seed in range(3):
            g = random_graph(n, 0.45, 600 + 10 * n + seed)
            yield g, random_edge_partition(g, 2, seed), exact_bisection
    for seed in range(3):
        g = random_graph(18, 0.5, 700 + seed)
        yield g, random_edge_partition(g, 3, seed), exact_bisection
    for k, sizes in ((2, (6, 20, 40, 60)), (3, (18, 35, 60)), (4, (54, 60))):
        for n in sizes:
            for p in (0.15, 0.4):
                g = sample_gnp(n, p, 10 * n + k)
                yield (g, random_edge_partition(g, k, n + k),
                       partial(local_search_bisection, seed=n, restarts=2))
