import hashlib
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kplanar.partitions
from kplanar.graph import (Bipartition, Graph, GraphError,
                           cut_size, random_edge_partition)
from kplanar.models import RegularModel, sample_gnp, sample_regular
from kplanar.partitions import (_cut_and_gains, _improving_swap, exact_bisection, lemma1_split,
                                local_search_bisection, witness_chain)

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


@st.composite
def small_graphs(draw, min_n=3, max_n=16):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


class TestLemma1:
    def test_worked_example(self):
        bip1 = Bipartition(tuple(range(1, 7)), tuple(range(7, 13)))
        bip2 = Bipartition((4, 5, 6, 7, 8, 9), (1, 2, 3, 10, 11, 12))
        y1, y2 = lemma1_split(bip1, bip2)
        assert y1 == (4, 5, 6) and y2 == (10, 11, 12)

    def test_identical_bipartitions(self):
        bip = Bipartition((0, 1, 2), (3, 4, 5))
        y1, y2 = lemma1_split(bip, bip)
        assert y1 == (0, 1, 2) and y2 == (3, 4, 5)

    def test_rejects_unbalanced(self):
        bip1 = Bipartition((0,), (1, 2, 3, 4, 5))
        bip2 = Bipartition((0, 1, 2), (3, 4, 5))
        with pytest.raises(GraphError, match="m/3"):
            lemma1_split(bip1, bip2)

    def test_rejects_mismatched_ground(self):
        with pytest.raises(GraphError, match="ground"):
            lemma1_split(Bipartition((0, 1), (2, 3)), Bipartition((0, 1), (2, 4)))

    def test_exhaustive_m6(self):
        # all balanced bipartition pairs on 6 elements satisfy the postcondition
        self._exhaust(6)

    def test_exhaustive_m9(self):
        self._exhaust(9)

    @staticmethod
    def _exhaust(m):
        lo = math.ceil(m / 3)
        bips = []
        for size in range(lo, m - lo + 1):
            for block in combinations(range(m), size):
                rest = tuple(v for v in range(m) if v not in block)
                bips.append(Bipartition(block, rest))
        thresh = math.ceil(m / 6)
        for b1 in bips:
            s11, s12 = set(b1.block1), set(b1.block2)
            for b2 in bips:
                y1, y2 = lemma1_split(b1, b2)
                assert len(y1) >= thresh and len(y2) >= thresh
                s21, s22 = set(b2.block1), set(b2.block2)
                same = set(y1) <= s11 & s21 and set(y2) <= s12 & s22
                cross = set(y1) <= s11 & s22 and set(y2) <= s12 & s21
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
            assert res.partition.balanced
            assert cut_size(g, res.partition.block1, res.partition.block2) == res.cut

    def test_cap(self):
        g = random_graph(22, 3 / 21, 1)
        res = exact_bisection(g)
        assert res.partition.balanced
        assert res.cut == cut_size(g, res.partition.block1, res.partition.block2)
        for n in (23, 25):
            with pytest.raises(GraphError, match="cap 22"):
                exact_bisection(random_graph(n, 3 / (n - 1), 1))

    def test_edgeless_cap_takes_the_first_smallest_block(self):
        res = exact_bisection(Graph(22, []))
        assert res.cut == 0 and res.partition.block1 == tuple(range(8))

    def test_corpus_partitions_are_pinned(self):
        # Recorded with `first_minimum_bisection`, the pure-Python enumeration
        # that numpy scoring replaced and must not change any cut or partition.
        assert exact_corpus_digest() == EXACT_CORPUS_DIGEST

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(2, 10))
    def test_matches_first_minimum_in_combination_order(self, g):
        res = exact_bisection(g)
        cut, block1 = first_minimum_bisection(g)
        b1, b2 = res.partition.block1, res.partition.block2
        assert (res.cut, b1) == (cut, block1)
        assert b2 == tuple(v for v in range(g.n) if v not in block1)
        assert res.cut == cut_size(g, b1, b2)
        assert res.partition.balanced and res.exact


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
        h.update(repr((res.cut, res.partition.block1, res.partition.block2)).encode())
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
            h.update(repr((res.cut, res.partition.block1, res.partition.block2)).encode())
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
        b1, b2 = res.partition.block1, res.partition.block2
        assert res.cut == cut_size(g, b1, b2)
        assert res.partition.balanced and sorted(b1 + b2) == list(range(g.n))

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_improving_swap_is_the_first_improving_pair(self, g, data):
        side = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)
                         .filter(lambda s: any(s) and not all(s)))
        order = data.draw(st.permutations(range(g.n)))
        delta, swapped = first_improving_swap(g, side, order)
        got, gain = list(side), _cut_and_gains(g, np.array(side))[1]
        csr = tuple(a.tolist() for a in g.csr)
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
            b1, b2 = res.partition.block1, res.partition.block2
            assert res.cut == cut_size(g, b1, b2)
            assert res.partition.balanced and sorted(b1 + b2) == list(range(n))
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
            assert heur.partition.balanced
            assert heur.cut >= exact_bisection(g).cut
            assert cut_size(g, heur.partition.block1, heur.partition.block2) == heur.cut

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

    def test_every_ab_edge_is_cut_at_its_level(self):
        # the structural reason the inequality is a theorem
        g = random_graph(30, 0.3, 4)
        ep = random_edge_partition(g, 2, seed=4)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=4))
        a, b = set(chain.A), set(chain.B)
        for i, (u, v) in enumerate(g.edges.tolist()):
            if (u in a and v in b) or (v in a and u in b):
                lv = chain.levels[ep.classes[i]]
                s1 = set(lv.partition.block1)
                assert (u in s1) != (v in s1)

    def test_to_dict_reports_trim_sizes(self):
        g = random_graph(54, 0.15, 9)
        ep = random_edge_partition(g, 3, seed=9)
        chain = witness_chain(g, ep, lambda h: local_search_bisection(h, seed=9, restarts=2))
        levels = chain.to_dict()["levels"]
        assert levels[0]["pretrim_sizes"] is None and levels[0]["posttrim_sizes"] is None
        y1, y2 = lemma1_split(chain.levels[0].partition, chain.levels[1].partition)
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

    def test_rejects_unbalanced_oracle(self):
        g = random_graph(12, 0.5, 2)
        ep = random_edge_partition(g, 2, seed=2)

        def bad_oracle(h):
            from kplanar.partitions import BisectionResult
            blocks = Bipartition((0,), tuple(range(1, h.n)))
            return BisectionResult(blocks, cut_size(h, blocks.block1, blocks.block2), False)

        with pytest.raises(GraphError, match="balance"):
            witness_chain(g, ep, bad_oracle)
