import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kplanar.models
from kplanar.graph import Graph, _graph_of_keys, _neighbours
from kplanar.models import (MODELS, RegularModel, SampleError, SampleReport, _multigraph_keys,
                            _simple_pairing_keys, _simplify, _uniform_budget, check_params,
                            max_degree_ok, sample, sample_gnp, sample_regular)

from conftest import complete_graph


def _count_builds(monkeypatch) -> list[int]:
    """The n of each graph the samplers build through `_graph_of_keys`, in
    call order; a call of `Graph.__init__` fails the test."""
    built = []

    def counting_build(n, keys):
        built.append(n)
        return _graph_of_keys(n, keys)

    def no_init(*args):
        raise AssertionError("Graph.__init__ was called")

    monkeypatch.setattr(kplanar.models, "_graph_of_keys", counting_build)
    monkeypatch.setattr(Graph, "__init__", no_init)
    return built


def _traced_peak_per_edge(sample) -> float:
    """The tracemalloc peak of `sample()`, which returns a Graph, per edge of that graph."""
    tracemalloc.start()
    try:
        g = sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / g.num_edges


class TestGnp:
    def test_p_zero_edgeless(self):
        assert sample_gnp(50, 0.0, 1).num_edges == 0

    def test_p_one_complete(self):
        g = sample_gnp(8, 1.0, 1)
        assert g.num_edges == 28

    def test_rejects_negative_n(self):
        with pytest.raises(SampleError, match="n=-3"):
            sample_gnp(-3, 0.5, 0)

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

    def test_gnp_corpus_pinned(self):
        # SHA-256 over repr((n, g.n)) and edges.tobytes() of every (n, p, seed)
        # below: it pins the skip draws and the pair order, so seeded gnp sweeps
        # stay byte-identical across versions.
        h = hashlib.sha256()
        for n in (0, 1, 2, 3, 10, 57, 300, 2000):
            for p in (0, 0.01, 0.3, 1):
                for seed in range(4):
                    g = sample_gnp(n, p, seed)
                    h.update(repr((n, g.n)).encode() + g.edges.tobytes())
        assert h.hexdigest() == "7dab8de60ffb856ee1a9495ca142a681966d472fec9c4c326b84ec74863ecb6e"

    @pytest.mark.parametrize("n,p", [(0, 0.5), (1, 0.5), (60, 0.0), (60, 0.1), (60, 1.0)])
    def test_one_graph_built_per_sample(self, monkeypatch, n, p):
        built = _count_builds(monkeypatch)
        for seed in range(3):
            built.clear()
            sample_gnp(n, p, seed)
            assert built == [n]

    def test_peak_memory_per_edge(self):
        # The decode holds 24 B per edge (8 of keys, 16 of edges); the skip draws
        # are dropped before it and the indices become keys in place.
        assert _traced_peak_per_edge(lambda: sample_gnp(4000, 0.025, 1)) <= 36

    def test_pair_indicator_frequency(self):
        # fixed pair (0, 1) over many seeds has empirical frequency ~ p
        n, p, trials = 6, 0.3, 10_000
        hits = sum([0, 1] in sample_gnp(n, p, s).edges.tolist() for s in range(trials))
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

    @pytest.mark.parametrize("model", list(RegularModel))
    def test_negative_n_is_named(self, model):
        with pytest.raises(SampleError, match=f"^{re.escape('negative vertex count n=-3')}$"):
            sample_regular(-3, 2, model, 0)

    @pytest.mark.parametrize("model", list(RegularModel))
    def test_degree_zero_at_odd_n_is_edgeless(self, model):
        rep = sample_regular(5, 0, model, 1)
        assert rep.graph == Graph(5, [])
        assert (rep.rejected_attempts, rep.collapsed_multiedges, rep.removed_loops) == (0, 0, 0)

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

    @pytest.mark.parametrize("model", list(RegularModel))
    def test_degree_zero_is_edgeless(self, model):
        rep = sample_regular(10, 0, model, 3)
        assert rep.graph == Graph(10, [])
        assert (rep.rejected_attempts, rep.collapsed_multiedges, rep.removed_loops) == (0, 0, 0)

    @pytest.mark.parametrize("model", [RegularModel.PERMUTATION, RegularModel.FULL_CYCLE,
                                       RegularModel.MATCHING])
    def test_one_graph_built_per_sample(self, monkeypatch, model):
        built = _count_builds(monkeypatch)
        collapsed = 0
        for seed in range(5):
            built.clear()
            rep = sample_regular(60, 4, model, seed)
            collapsed += rep.collapsed_multiedges + rep.removed_loops
            assert built == [60]
        assert collapsed > 0

    @pytest.mark.parametrize("model", [RegularModel.PERMUTATION, RegularModel.FULL_CYCLE,
                                       RegularModel.MATCHING])
    def test_peak_memory_per_edge(self, model):
        # The decode holds 24 B per edge (8 of keys, 16 of edges); rows are keyed
        # as drawn, 8 B each, and only the unique keys outlive the sort.
        assert _traced_peak_per_edge(lambda: sample_regular(4000, 100, model, 1).graph) <= 26

    def test_union_corpus_pinned(self):
        # SHA-256 over edges.tobytes() and the sorted to_dict() items of every
        # valid (model, n, d, seed) below.  It pins the draw order of the union
        # builder: any rewrite must give these graphs and counts, or seeded
        # union-model sweeps stop being byte-identical across versions.
        h = hashlib.sha256()
        count = 0
        for model in (RegularModel.PERMUTATION, RegularModel.FULL_CYCLE,
                      RegularModel.MATCHING):
            for n in (4, 5, 10, 31, 60, 200, 1000):
                for d in (1, 2, 3, 4, 6, 10):
                    if d >= n or (n % 2 if model is RegularModel.MATCHING else d % 2):
                        continue
                    for seed in range(5):
                        rep = sample_regular(n, d, model, seed)
                        h.update(rep.graph.edges.tobytes())
                        h.update(repr(sorted(rep.to_dict().items())).encode())
                        count += 1
        assert count == 350
        assert h.hexdigest() == "a2ac30ee8d7962b0f8013e6ae91c33fb7f3ef29f617f24eb5e19cd4a61a53ec8"

    def test_uniform_simple_always_regular(self):
        for seed in range(25):
            rep = sample_regular(14, 3, RegularModel.UNIFORM_SIMPLE, seed)
            assert set(rep.graph.degrees) == {3}
            assert rep.collapsed_multiedges == 0 and rep.removed_loops == 0

    def test_uniform_simple_budget_formula(self):
        assert _uniform_budget(3) == int(1000 * math.exp(2))
        # 1000 * e^(35/4) is over the cap, which binds.
        assert _uniform_budget(6) == 1_000_000


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
        built = _count_builds(monkeypatch)
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
        g, collapsed, loops = _simplify(4, _multigraph_keys(4, *pairing.T))
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
            g, collapsed, loops = _simplify(n, _multigraph_keys(n, *pairing.T))
            keys = _simple_pairing_keys(n, pairing)
            simple = (collapsed, loops) == (0, 0)
            assert (keys is not None) is simple
            if simple:
                assert [[k // n, k % n] for k in keys.tolist()] == g.edges.tolist()
                assert _graph_of_keys(n, keys) == Graph(n, pairing)
            outcomes.add(simple)
        assert outcomes == {True, False}

    def test_budget_boundary_is_d8(self):
        # e^((8^2-1)/4) is the first expectation over the 1e6 cap.
        assert _uniform_budget(7) == 1_000_000
        msg = ("UNIFORM_SIMPLE: d=8 expects 6.92e+06 attempts per simple pairing, "
               "over the budget of 1000000")
        with pytest.raises(SampleError, match=re.escape(msg)):
            _uniform_budget(8)

    @pytest.mark.parametrize("n,d", [(20, 8), (30, 12), (200, 60)])
    def test_over_budget_degree_fails_before_drawing(self, monkeypatch, n, d):
        def no_attempt(*args):
            raise AssertionError("a pairing was drawn")

        monkeypatch.setattr(kplanar.models, "_simple_pairing_keys", no_attempt)
        expected = {8: "6.92e+06", 12: "3.36e+15", 60: "inf"}[d]
        msg = (f"d={d} expects {expected} attempts per simple pairing, "
               "over the budget of 1000000")
        with pytest.raises(SampleError, match=re.escape(msg)):
            sample_regular(n, d, RegularModel.UNIFORM_SIMPLE, 0)


@st.composite
def multigraph_rows(draw):
    """(n, rows): rows on 0..n-1 drawn from a small pool, so loops and
    repeats either way round occur."""
    n = draw(st.integers(1, 8))
    ids = st.integers(0, n - 1)
    pool = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=12))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in picks]


@settings(max_examples=300, deadline=None)
@given(multigraph_rows())
def test_simplify_matches_a_python_scan(case):
    n, rows = case
    columns = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    g, collapsed, loops = _simplify(n, _multigraph_keys(n, *columns))
    distinct = {(min(u, v), max(u, v)) for u, v in rows if u != v}
    assert g == Graph(n, sorted(distinct))
    assert loops == sum(u == v for u, v in rows)
    assert collapsed == len(rows) - loops - len(distinct)
    assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
    indptr, indices = _neighbours(g)
    for u in range(n):
        nbrs = sorted({b for a, b in distinct if a == u} | {a for a, b in distinct if b == u})
        assert indices[indptr[u]:indptr[u + 1]].tolist() == nbrs
        assert g.degrees[u] == len(nbrs)


@pytest.mark.parametrize("sample", [
    lambda n: sample_gnp(n, 0.0, 0),
    lambda n: sample_gnp(n, 0.5, 0),
    *[lambda n, model=model: sample_regular(n, 0, model, 0) for model in RegularModel],
], ids=["gnp-p0", "gnp", *[model.value for model in RegularModel]])
def test_vertex_limit_refused_before_drawing(monkeypatch, sample):
    # Past the limit the n-slot arrays alone take 16 GiB, so nothing may be drawn.
    def no_draw(*args):
        raise AssertionError("a sampler drew before checking n")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    n = 2**31
    with pytest.raises(SampleError, match=re.escape(f"n={n} is not below the limit 2**31")):
        sample(n)


class TestSample:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_the_sampler_its_tag_names(self, model, seed):
        if model == "gnp":
            report = sample(model, 60, None, 0.1, seed)
            direct = SampleReport(sample_gnp(60, 0.1, seed), 0, 0, 0, seed)
        else:
            report = sample(model, 60, 4, None, seed)
            direct = sample_regular(60, 4, RegularModel(model), seed)
        assert report.graph == direct.graph
        assert report.to_dict() == direct.to_dict()

    def test_gnp_report_counts_nothing_removed(self):
        report = sample("gnp", 200, None, 0.05, 3)
        assert report.graph.num_edges > 0
        assert (report.rejected_attempts, report.collapsed_multiedges, report.removed_loops,
                report.seed) == (0, 0, 0, 3)

    @pytest.mark.parametrize("model,d,p,message", [
        ("gnp", 3, 0.1, "gnp takes --p and no --d"),
        ("gnp", None, None, "gnp takes --p and no --d"),
        ("perm", 4, 0.1, "perm takes --d and no --p"),
        ("uniform", None, None, "uniform takes --d and no --p"),
    ])
    def test_d_or_p_rule(self, monkeypatch, model, d, p, message):
        def no_draw(*args):
            raise AssertionError("sampled before checking d and p")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(SampleError, match=f"^{re.escape(message)}$"):
            sample(model, 10, d, p, 0)


class TestCheckParams:
    @pytest.mark.parametrize("model,d,p", [
        ("gnp", None, 0.1), ("perm", 4, None), ("cycle", 0, None), ("matching", 3, None),
        ("uniform", 7, None),
        # p is any Python or numpy int or float.
        ("gnp", None, 1), ("gnp", None, np.int64(0)), ("gnp", None, np.float32(0.5)),
    ])
    def test_accepts_the_parameter_its_tag_takes(self, model, d, p):
        assert check_params(model, 10, d, p) is None

    @pytest.mark.parametrize("model,n,d,p", [
        ("gnp", 0, None, 0.0), ("gnp", 2**31 - 1, None, 1.0),
        # The rules that tie d to n are the sampler's, so they pass here.
        ("perm", 3, 4, None), ("matching", 5, 2, None), ("uniform", 5, 3, None),
    ])
    def test_accepts_every_n_below_the_limit(self, model, n, d, p):
        assert check_params(model, n, d, p) is None

    @staticmethod
    def _refused_before_drawing(monkeypatch, model, n, d, p, message):
        def no_draw(*args):
            raise AssertionError("drew while checking the parameters")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for check in (lambda: check_params(model, n, d, p), lambda: sample(model, n, d, p, 0)):
            with pytest.raises(SampleError, match=f"^{re.escape(message)}$"):
                check()

    @pytest.mark.parametrize("model,d,p,message", [
        ("nope", 3, None, "unknown model 'nope'"),
        ("gnp", 3, None, "gnp takes --p and no --d"),
        ("cycle", None, 0.1, "cycle takes --d and no --p"),
        ("uniform", 8, None, "UNIFORM_SIMPLE: d=8 expects 6.92e+06 attempts per simple pairing, "
                             "over the budget of 1000000"),
        ("perm", -2, None, "negative degree -2"),
        ("uniform", -2, None, "negative degree -2"),
        ("perm", 3, None, "PERMUTATION requires even d, got 3"),
        ("cycle", 5, None, "FULL_CYCLE requires even d, got 5"),
        ("gnp", None, 1.5, "p=1.5 outside [0, 1]"),
        ("gnp", None, -0.1, "p=-0.1 outside [0, 1]"),
        ("gnp", None, "0.5", "non-numeric edge probability p='0.5'"),
        ("gnp", None, [0.5], "non-numeric edge probability p=[0.5]"),
        ("gnp", None, 1j, "non-numeric edge probability p=1j"),
    ])
    def test_refuses_before_drawing(self, monkeypatch, model, d, p, message):
        self._refused_before_drawing(monkeypatch, model, 10, d, p, message)

    @pytest.mark.parametrize("model,n,d,p,message", [
        ("gnp", -3, None, 0.5, "negative vertex count n=-3"),
        ("matching", -3, 2, None, "negative vertex count n=-3"),
        ("perm", 2**31, 4, None,
         "vertex count n=2147483648 is not below the limit 2**31 = 2147483648"),
    ])
    def test_refuses_n_before_drawing(self, monkeypatch, model, n, d, p, message):
        self._refused_before_drawing(monkeypatch, model, n, d, p, message)

    # A float is refused even when integral, as Graph refuses float vertex ids.
    @pytest.mark.parametrize("model,n,d,p,message", [
        ("gnp", 30.9, None, 0.5, "non-integer vertex count n=30.9"),
        ("perm", 30.0, 4, None, "non-integer vertex count n=30.0"),
        ("perm", "30", 4, None, "non-integer vertex count n='30'"),
        ("perm", 30, 4.7, None, "non-integer degree d=4.7"),
        ("matching", 30, 4.0, None, "non-integer degree d=4.0"),
        ("uniform", 30, np.float64(3.0), None, "non-integer degree d=np.float64(3.0)"),
    ])
    def test_refuses_a_non_integer_n_or_d(self, monkeypatch, model, n, d, p, message):
        self._refused_before_drawing(monkeypatch, model, n, d, p, message)

    @pytest.mark.parametrize("n,d", [(np.int64(30), 4), (30, np.int32(4)),
                                     (np.uint16(30), np.int8(2))])
    def test_accepts_numpy_integers(self, n, d):
        assert check_params("perm", n, d, None) is None

    def test_sample_error_is_a_value_error(self):
        # So a sweep's refusal of its grid is a ValueError, as its other checks are.
        assert issubclass(SampleError, ValueError)


class TestTailFormulas:
    def test_max_degree_ok_cases(self):
        from kplanar.graph import Graph
        assert max_degree_ok(Graph(10, []), 0.5)
        assert not max_degree_ok(complete_graph(5), 0.01)
        star = Graph(10, [(0, i) for i in range(1, 10)])
        assert max_degree_ok(star, 1.0)

    def test_max_degree_ok_at_p_zero(self):
        # The bound (1 + ln n) * n * 0 = 0 is G(n, 0)'s max degree.
        assert max_degree_ok(sample_gnp(10, 0.0, 1), 0.0)
        assert not max_degree_ok(Graph(10, [(0, 1)]), 0.0)
        with pytest.raises(ValueError, match="p >= 0"):
            max_degree_ok(Graph(10, []), -0.1)

