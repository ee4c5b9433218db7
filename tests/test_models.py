import hashlib
import math
import re

import numpy as np
import pytest

import kplanar.models
from kplanar.graph import Graph
from kplanar.models import (RegularModel, SampleError, _simple_pairing_keys, _simplify,
                            _uniform_simple_expected_attempts, check_uniform_simple,
                            chernoff_degree_tail, density_tail_bound, max_degree_ok,
                            sample_gnp, sample_regular, uniform_simple_budget)

from conftest import complete_graph


class TestGnp:
    def test_p_zero_edgeless(self):
        assert sample_gnp(50, 0.0, 1).num_edges == 0

    def test_p_one_complete(self):
        g = sample_gnp(8, 1.0, 1)
        assert g.num_edges == 28

    def test_rejects_bad_p(self):
        with pytest.raises(SampleError):
            sample_gnp(10, 1.5, 0)

    def test_deterministic(self):
        assert sample_gnp(200, 0.05, 99) == sample_gnp(200, 0.05, 99)
        assert sample_gnp(200, 0.05, 99) != sample_gnp(200, 0.05, 100)

    def test_edge_count_concentration(self):
        # 100 seeds at n=1000, p=0.01: mean within 4 sigma of the binomial mean
        n, p = 1000, 0.01
        total = n * (n - 1) // 2
        sigma = math.sqrt(total * p * (1 - p))
        counts = [sample_gnp(n, p, s).num_edges for s in range(100)]
        for c in counts:
            assert abs(c - total * p) < 4 * sigma
        assert abs(np.mean(counts) - total * p) < sigma

    def test_pair_indicator_frequency(self):
        # fixed pair (0, 1) over many seeds has empirical frequency ~ p
        n, p, trials = 6, 0.3, 10_000
        hits = sum((1 in sample_gnp(n, p, s).adj[0]) for s in range(trials))
        assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


class TestRegularModels:
    def test_full_cycle_n4_is_c4(self):
        # every undirected 4-cycle on 4 labeled vertices is 2-regular with 4 edges
        for seed in range(30):
            rep = sample_regular(4, 2, RegularModel.FULL_CYCLE, seed)
            assert tuple(rep.graph.degrees) == (2, 2, 2, 2)
            assert rep.graph.num_edges == 4

    def test_single_matching(self):
        rep = sample_regular(6, 1, RegularModel.MATCHING, 5)
        assert rep.graph.num_edges == 3
        assert set(rep.graph.degrees) == {1}

    def test_matching_parity_error(self):
        with pytest.raises(SampleError, match="even n"):
            sample_regular(3, 1, RegularModel.MATCHING, 0)

    def test_permutation_parity_error(self):
        with pytest.raises(SampleError, match="even d"):
            sample_regular(10, 3, RegularModel.PERMUTATION, 0)

    def test_d_too_large(self):
        with pytest.raises(SampleError, match="d < n"):
            sample_regular(4, 4, RegularModel.UNIFORM_SIMPLE, 0)

    @pytest.mark.parametrize("model", list(RegularModel))
    def test_deterministic(self, model):
        a = sample_regular(20, 4, model, 123)
        b = sample_regular(20, 4, model, 123)
        assert a.graph == b.graph and a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("model", [RegularModel.PERMUTATION, RegularModel.FULL_CYCLE,
                                       RegularModel.MATCHING])
    def test_collapse_accounting(self, model):
        for seed in range(40):
            rep = sample_regular(60, 4, model, seed)
            assert rep.graph.max_degree <= 4
            # degree deficit matches the removed edge instances exactly
            deficit = 4 * 60 - sum(rep.graph.degrees)
            assert deficit == 2 * (rep.collapsed_multiedges + rep.removed_loops)

    @pytest.mark.parametrize("model,clean_seed", [
        (RegularModel.PERMUTATION, 156),
        (RegularModel.FULL_CYCLE, 19),
        (RegularModel.MATCHING, 2),
    ])
    def test_zero_collapse_means_regular(self, model, clean_seed):
        rep = sample_regular(60, 4, model, clean_seed)
        assert rep.collapsed_multiedges == 0 and rep.removed_loops == 0
        assert set(rep.graph.degrees) == {4}

    def test_uniform_simple_always_regular(self):
        for seed in range(25):
            rep = sample_regular(14, 3, RegularModel.UNIFORM_SIMPLE, seed)
            assert set(rep.graph.degrees) == {3}
            assert rep.collapsed_multiedges == 0 and rep.removed_loops == 0

    def test_uniform_simple_budget_formula(self):
        assert uniform_simple_budget(3) == int(1000 * math.exp(2))
        assert uniform_simple_budget(20) == 1_000_000


class TestUniformSimpleRejection:
    # SHA-256 of repr(graph.edges) as a tuple of (u, v) tuples, and
    # rejected_attempts per seed.  They pin the draw sequence: any rejection
    # test must accept the same pairing after the same number of shuffles,
    # or seeded sweeps stop being byte-identical across versions.
    @pytest.mark.parametrize("n,d,seed,digest,rejected", [
        (50, 4, 0, "fdbae6654cb521c2a37044aa774811786030d1aa954a7dc47a8772a3e5220645", 54),
        (100, 4, 7, "3f35db5f5914ba6284f86ebec12f39706a0f99e7487dad98b9deaf2795aef501", 44),
        # d = 6 is still sampled: about e^(35/4) = 6300 expected attempts.
        (20, 6, 3, "fcfb775ebac53c301d375c68dfd1361df43dccd0ea5abad24165631135b7c77f", 3084),
        (2000, 6, 1, "4404b4d1e78255106bc684647508c42b0e07d8b93f3d10b4fd54eb99deb680b4", 4022),
    ])
    def test_seeded_samples_pinned(self, n, d, seed, digest, rejected):
        rep = sample_regular(n, d, RegularModel.UNIFORM_SIMPLE, seed)
        edges = repr(tuple(map(tuple, rep.graph.edges.tolist())))
        assert hashlib.sha256(edges.encode()).hexdigest() == digest
        assert rep.rejected_attempts == rejected
        assert set(rep.graph.degrees) == {d}

    def test_one_graph_built_per_sample(self, monkeypatch):
        built = []

        def counting_graph(*args, **kwargs):
            built.append(args[0])
            return Graph(*args, **kwargs)

        monkeypatch.setattr(kplanar.models, "Graph", counting_graph)
        for seed in range(5):
            built.clear()
            rep = sample_regular(50, 4, RegularModel.UNIFORM_SIMPLE, seed)
            assert rep.rejected_attempts > 0
            assert built == [50]

    @pytest.mark.parametrize("pairs,simple", [
        ([(0, 1), (2, 2), (1, 3)], False),          # loop
        ([(0, 1), (2, 3), (1, 0)], False),          # double edge, reversed
        ([(3, 3), (0, 2), (2, 0), (1, 1)], False),  # both
        ([(0, 1), (2, 3), (1, 2), (3, 0)], True),   # 4-cycle
    ])
    def test_rejection_matches_simplify_by_hand(self, pairs, simple):
        pairing = np.array(pairs, dtype=np.int64)
        g, collapsed, loops = _simplify(4, pairing)
        assert ((collapsed, loops) == (0, 0)) is simple
        keys = _simple_pairing_keys(4, pairing)
        assert (keys is not None) is simple
        if simple:
            assert [[k // 4, k % 4] for k in keys.tolist()] == g.edges.tolist()

    def test_rejection_matches_simplify_on_shuffles(self):
        n, d = 10, 3
        rng = np.random.default_rng(11)
        stubs = np.repeat(np.arange(n), d)
        outcomes = set()
        for _ in range(300):
            rng.shuffle(stubs)
            pairing = stubs.reshape(-1, 2)
            g, collapsed, loops = _simplify(n, pairing)
            keys = _simple_pairing_keys(n, pairing)
            simple = (collapsed, loops) == (0, 0)
            assert (keys is not None) is simple
            if simple:
                assert [[k // n, k % n] for k in keys.tolist()] == g.edges.tolist()
            outcomes.add(simple)
        assert outcomes == {True, False}

    def test_budget_boundary_is_d8(self):
        assert _uniform_simple_expected_attempts(7) <= uniform_simple_budget(7)
        assert _uniform_simple_expected_attempts(8) > uniform_simple_budget(8)
        assert _uniform_simple_expected_attempts(8) == pytest.approx(6.9e6, rel=0.01)
        assert check_uniform_simple(7) == uniform_simple_budget(7)
        with pytest.raises(SampleError, match="d=8"):
            check_uniform_simple(8)

    @pytest.mark.parametrize("n,d", [(20, 8), (30, 12), (200, 60)])
    def test_over_budget_degree_fails_before_drawing(self, monkeypatch, n, d):
        def no_attempt(*args):
            raise AssertionError("a pairing was drawn")

        monkeypatch.setattr(kplanar.models, "_simple_pairing_keys", no_attempt)
        expected = _uniform_simple_expected_attempts(d)
        msg = (f"d={d} expects {expected:.3g} attempts per simple pairing, "
               f"over the budget of {uniform_simple_budget(d)}")
        with pytest.raises(SampleError, match=re.escape(msg)):
            sample_regular(n, d, RegularModel.UNIFORM_SIMPLE, 0)


class TestTailFormulas:
    def test_chernoff_direct_substitution(self):
        assert chernoff_degree_tail(2, 1.0, 1.0) == pytest.approx(math.e / 4)

    def test_chernoff_degenerate_delta(self):
        assert chernoff_degree_tail(100, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_chernoff_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            chernoff_degree_tail(10, 0.5, 0.0)

    def test_chernoff_beats_quoted_closed_form(self):
        # at delta = log n the tail undercuts the n^(-log log n + 1) scale
        n, p = 1001, 0.01
        delta = math.log(n)
        tail = chernoff_degree_tail(n, p, delta)
        quoted = n ** (-math.log(math.log(n)) + 1)
        assert tail < quoted

    def test_chernoff_monotone(self):
        # strictly decreasing in delta and in (n-1) p
        deltas = [0.1, 0.5, 1.0, 2.0, 5.0]
        vals = [chernoff_degree_tail(100, 0.1, d) for d in deltas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ns = [10, 100, 1000]
        vals = [chernoff_degree_tail(n, 0.1, 1.0) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_max_degree_ok_cases(self):
        from kplanar.graph import Graph
        assert max_degree_ok(Graph(10, []), 0.5)
        assert not max_degree_ok(complete_graph(5), 0.01)
        star = Graph(10, [(0, i) for i in range(1, 10)])
        assert max_degree_ok(star, 1.0)

    def test_density_tail_values(self):
        assert density_tail_bound(0, 0.7) == 1.0
        assert density_tail_bound(8, 1.0) == pytest.approx(math.exp(-1))
        n = 600
        assert density_tail_bound(n * n // 36, 10 / n) == pytest.approx(math.exp(-125 / 6))

    def test_density_tail_rejects_negative_m(self):
        with pytest.raises(ValueError):
            density_tail_bound(-1, 0.5)
