import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

import kplanar.spectral
from kplanar.graph import Graph
from kplanar.models import RegularModel, sample, sample_regular
from kplanar.spectral import (FRIEDMAN_EPS, POWER_BELOW_DEGREE, TOL, SpectralError, _adjacency,
                              _connected, friedman_check, mu_bound, spectral_summary,
                              spectrum_full)

from conftest import (complete_bipartite, complete_graph, cycle_graph, path_graph,
                      petersen_graph, random_graph, simple_edge_lists)


def test_k4_spectrum(k4):
    s = spectrum_full(k4)
    assert s.full_spectrum == pytest.approx((3, -1, -1, -1))
    assert s.mu == pytest.approx(1.0)
    assert s.lambda1 == pytest.approx(3.0)


def test_c6_spectrum(c6):
    s = spectrum_full(c6)
    expected = sorted((2 * math.cos(2 * math.pi * j / 6) for j in range(6)), reverse=True)
    assert s.full_spectrum == pytest.approx(tuple(expected))
    assert s.mu == pytest.approx(2.0)


def test_edgeless_spectrum():
    s = spectrum_full(Graph(5, []))
    assert s.full_spectrum == pytest.approx((0,) * 5)
    assert s.lambda1 == 0 and s.mu == 0


def test_dense_cap():
    with pytest.raises(SpectralError, match="cap"):
        spectrum_full(Graph(2001, [(0, 1)]))


def test_edgeless_spectrum_past_the_cap_needs_no_solve():
    s = spectrum_full(Graph(2500, []))
    assert s.full_spectrum == (0.0,) * 2500 and s.lambda1 == 0 and s.mu == 0
    assert s.residual == 0  # an all-zero spectrum is exact


@pytest.mark.parametrize("g", [Graph(5, [(0, 1)]), complete_graph(4), random_graph(30, 0.2, 3)],
                         ids=["one-edge", "K4", "gnp"])
def test_dense_residual_scales_with_lambda1(g):
    # With an edge, lambda1 >= 1, so the allowance is 10 * eps * n * max(1, lambda1).
    s = spectrum_full(g)
    assert s.residual == 10 * np.finfo(float).eps * g.n * max(1.0, abs(s.lambda1)) > 0


def test_trace_and_energy_identities():
    for seed in range(20):
        g = random_graph(40, 0.2, seed)
        s = spectrum_full(g)
        vals = np.asarray(s.full_spectrum)
        assert abs(vals.sum()) < 1e-6
        assert abs((vals**2).sum() - 2 * g.num_edges) < 1e-6 * max(1, g.num_edges)


def test_regular_lambda1_is_degree():
    for g, d in [(cycle_graph(9), 2), (petersen_graph(), 3), (complete_graph(6), 5)]:
        s = spectrum_full(g)
        assert s.lambda1 == pytest.approx(d, abs=1e-9)
        assert max(abs(v) for v in s.full_spectrum) <= d + 1e-9


def test_mu_bound_k4(k4):
    s = mu_bound(k4)
    assert abs(s.mu - 1.0) <= 1e-6


def test_mu_bound_petersen(petersen):
    dense = spectrum_full(petersen)
    it = mu_bound(petersen)
    assert dense.mu == pytest.approx(2.0)
    assert abs(it.mu - dense.mu) <= 1e-6


def test_mu_bound_star():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    s = mu_bound(star)
    assert s.lambda1 == pytest.approx(2.0, abs=1e-8)
    assert s.mu == pytest.approx(2.0, abs=1e-8)


def test_mu_bound_reruns_agree_when_arpack_restarts():
    # A star's Krylov space closes after a few steps, so ARPACK asks for restart
    # vectors; they are seeded, so reruns agree to the last digit.
    star = Graph(500, [(0, i) for i in range(1, 500)])
    assert len({repr(mu_bound(star).mu_safe) for _ in range(3)}) == 1


def test_mu_bound_bipartite_keeps_perron_root():
    # magnitude ties (+d, -d) must not mislabel lambda1
    g = complete_bipartite(10, 10)
    s = mu_bound(g)
    assert s.lambda1 == pytest.approx(10.0, abs=1e-6)
    assert s.mu == pytest.approx(10.0, abs=1e-6)


def test_mu_bound_flags_disconnected_regular():
    two_cycles = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    s = mu_bound(two_cycles)
    assert s.warning is not None
    assert s.mu == pytest.approx(2.0, abs=1e-8)


def union_find_components(n: int, pairs) -> int:
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in pairs:
        root[find(u)] = find(v)
    return sum(root[v] == v for v in range(n))


@settings(max_examples=300, deadline=None)
@given(simple_edge_lists().filter(lambda case: case[0] >= 1))
def test_connected_matches_union_find(case):
    n, pairs = case
    assert _connected(_adjacency(Graph(n, pairs))) == (union_find_components(n, pairs) == 1)


@pytest.mark.parametrize("g,connected", [
    (Graph(0, []), True),
    (Graph(1, []), True),
    (Graph(4, [(0, 1), (1, 2)]), False),                       # vertex 3 isolated
    (Graph(8, [(i, (i + 1) % 4) for i in range(4)]
           + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]), False),  # two 4-cycles
    (path_graph(100_000), True),                               # deeper than any recursion
], ids=["n0", "n1", "isolated-vertex", "two-cycles", "path-1e5"])
def test_connected_fixed_cases(g, connected):
    assert _connected(_adjacency(g)) is connected


@pytest.mark.parametrize("g", [
    petersen_graph(),
    sample_regular(600, 4, RegularModel.UNIFORM_SIMPLE, 5).graph,
], ids=["dense", "lanczos"])
def test_one_sparse_matrix_per_summary(monkeypatch, g):
    # The solve, its residual recheck and the connectivity check share one adjacency matrix.
    built = []
    init = sp.csr_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    s = spectral_summary(g)
    assert s.method == ("dense" if g.n <= 400 else "iterative")
    assert built == [sp.csr_matrix]


@pytest.fixture
def permutation_2e5():
    g = sample_regular(20000, 20, RegularModel.PERMUTATION, 1).graph
    g.degrees  # the graph's one cache, filled here so that no test below counts it
    return g


def _traced(call) -> tuple[int, int]:
    """(bytes still traced when `call()` returns, with its result alive; traced peak)."""
    tracemalloc.start()
    try:
        result = call()  # alive until the reading below
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_spectral_summary_leaves_nothing_on_the_graph(permutation_2e5):
    # The neighbour arrays live only as long as the solve; cached on the graph they would
    # hold 16 B per edge for its lifetime.
    g = permutation_2e5
    held, _ = _traced(lambda: spectral_summary(g))
    assert held / g.num_edges <= 1


def test_adjacency_peak_per_edge(permutation_2e5):
    # 40 B per edge at the peak: the int64 neighbour indices (16), the matrix's float64
    # data (16) and scipy's int32 copy of the indices (8).
    g = permutation_2e5
    _, peak = _traced(lambda: _adjacency(g))
    assert peak / g.num_edges <= 44


LANCZOS_PINS = {401: "4.443172178112981", 2000: "4.453205333487969"}


def _pinned_mu_safe(n: int) -> tuple[str, str]:
    s = spectral_summary(sample_regular(n, 6, RegularModel.PERMUTATION, 1).graph)
    return s.method, repr(s.mu_safe)


@pytest.mark.parametrize("n", sorted(LANCZOS_PINS))
def test_lanczos_mu_safe_digits_pinned(n):
    # The same digits under one and two OpenBLAS threads at these sizes.  A Lanczos operator
    # that rounds A x differently (U x + U^T x, say) moves them, as a declared change.
    assert _pinned_mu_safe(n) == ("iterative", LANCZOS_PINS[n])


def test_lanczos_mu_safe_digits_pinned_at_one_thread():
    # The benchmark runs one BLAS thread, and the thread count can change how OpenBLAS
    # rounds, so the pins are recomputed in a fresh process that starts with one thread.
    paths = [str(Path(__file__).parent), str(Path(kplanar.__file__).parents[1])]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    code = "import test_spectral as t; print({n: t._pinned_mu_safe(n) for n in t.LANCZOS_PINS})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == repr({n: ("iterative", pin) for n, pin in LANCZOS_PINS.items()})


def _circulant(n: int, offsets) -> Graph:
    return Graph(n, [(i, (i + o) % n) for i in range(n) for o in offsets])


@pytest.mark.parametrize("make", [
    lambda: _bipartite(300, 400, 0.015, 16),
    lambda: Graph(500, [(0, i) for i in range(1, 500)]),
    lambda: cycle_graph(1000),
], ids=["bipartite-700", "star-500", "cycle-1000"])
def test_power_path_keeps_both_signs(make):
    # A^4 maps lambda and -lambda to one eigenvalue; on these symmetric spectra the
    # Rayleigh-Ritz step on span(V, AV) must still report mu = lambda1.
    g = make()
    assert 2 * g.num_edges < POWER_BELOW_DEGREE * g.n  # the A^4 path
    s = spectral_summary(g)
    assert s.method == "iterative" and s.residual <= TOL * max(1, g.max_degree)
    assert abs(s.mu - s.lambda1) <= 2 * s.residual


def test_plain_path_digits_pinned():
    # At average degree POWER_BELOW_DEGREE and above, Lanczos runs on A itself, with the
    # same operator products, start vector, ncv and budget as before the A^4 path existed;
    # these reprs were recorded then, under one and two OpenBLAS threads.
    g = sample_regular(1500, 30, RegularModel.PERMUTATION, 3).graph
    assert 2 * g.num_edges >= POWER_BELOW_DEGREE * g.n
    s = mu_bound(g)
    assert (repr(s.lambda1), repr(s.mu), repr(s.residual), repr(s.mu_safe)) == (
        "29.742669429034322", "10.691228836987195", "4.263892432392673e-14",
        "10.691228836987237")
    assert 0 < s.matvecs < 1000


@pytest.mark.parametrize("make", [lambda: cycle_graph(1000),
                                  lambda: _circulant(10000, range(1, 13))], ids=["power", "plain"])
def test_matvec_budget_binds_on_both_paths(monkeypatch, make):
    # A zero budget leaves ARPACK its floor of 10 restarts, too few for either graph.
    g = make()
    monkeypatch.setattr(kplanar.spectral, "MATVEC_BUDGET", 0)
    with pytest.raises(SpectralError, match="did not converge within budget"):
        mu_bound(g)


def test_dense_iterative_cross_validation():
    for seed in range(12):
        g = random_graph(120, 0.05, seed)
        dense = spectrum_full(g)
        it = mu_bound(g)
        assert abs(dense.mu - it.mu) <= 1e-8 + 1e-6
        assert abs(dense.lambda1 - it.lambda1) <= 1e-8 + 1e-6


def _bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    u, v = np.nonzero(rng.random((a, b)) < p)
    return Graph(a + b, np.column_stack((u, a + v)))


@pytest.mark.parametrize("make", [
    lambda: sample_regular(401, 4, RegularModel.PERMUTATION, 11).graph,
    lambda: sample_regular(900, 6, RegularModel.PERMUTATION, 12).graph,
    lambda: sample_regular(600, 4, RegularModel.MATCHING, 13).graph,
    lambda: sample_regular(1500, 6, RegularModel.MATCHING, 14).graph,
    lambda: random_graph(700, 0.01, 15),
    lambda: _bipartite(300, 400, 0.015, 16),
], ids=["perm-d4-401", "perm-d6-900", "matching-d4-600", "matching-d6-1500",
        "gnp-700", "bipartite-700"])
def test_lanczos_agrees_with_dense_past_the_cutover(make):
    g = make()
    it, dense = mu_bound(g), spectrum_full(g)
    assert it.residual <= TOL * max(1, g.max_degree)
    assert abs(it.mu - dense.mu) <= it.residual + dense.residual
    assert it.mu_safe >= dense.mu - dense.residual


def _sparse_corpus(count: int):
    """Seeded graphs below average degree POWER_BELOW_DEGREE, n from 402 to 2000:
    perm, matching, cycle and gnp in turn, degree (or n p) 4 to 22."""
    rng = np.random.default_rng(30)
    for i, n in enumerate(np.geomspace(402, 2000, count).astype(int).tolist()):
        n += n % 2  # matching needs an even n
        d = 2 * int(rng.integers(2, 12))  # perm and cycle need an even d
        model = ("perm", "matching", "cycle", "gnp")[i % 4]
        d_p = (None, d / n) if model == "gnp" else (d, None)
        yield f"{model}-{n}-{d}", sample(model, n, *d_p, i).graph


def test_power_stop_leaves_gate_margin():
    # POWER_TOL stops ARPACK on A^4 well short of TOL; the recheck with A must still pass
    # with a hundredfold margin, and mu must agree with the dense solve.
    for name, g in _sparse_corpus(32):
        assert 2 * g.num_edges < POWER_BELOW_DEGREE * g.n, name  # the A^4 path
        it, dense = mu_bound(g), spectrum_full(g)
        assert it.residual <= TOL * max(1, g.max_degree) / 100, name
        assert abs(it.mu - dense.mu) <= it.residual + dense.residual, name
        assert it.mu_safe >= dense.mu - dense.residual, name


def test_mu_safe_is_upper_only():
    g = random_graph(80, 0.1, 3)
    it = mu_bound(g)
    dense = spectrum_full(g)
    assert it.mu_safe >= dense.mu - 1e-8


def _friedman(g, d):
    return friedman_check(g, d, spectral_summary(g))


def test_friedman_check_cycles():
    # mu = 2 cos(pi/n) < 2 = 2 sqrt(d-1) on odd cycles; even cycles are
    # bipartite with mu = 2 exactly, so they pass on the slack alone.
    for n in (5, 6, 7, 9):
        assert _friedman(cycle_graph(n), 2)


def test_friedman_check_k4(k4):
    assert _friedman(k4, 3)


def test_friedman_check_separates_k33_from_k44():
    # mu = d on K_{d,d}: 3 < 2 sqrt(2) + 0.2 = 3.03, but 4 > 2 sqrt(3) + 0.2 = 3.66.
    assert FRIEDMAN_EPS == 0.2
    assert _friedman(complete_bipartite(3, 3), 3)
    assert not _friedman(complete_bipartite(4, 4), 4)


def test_spectral_summary_cutover_at_400():
    assert spectral_summary(random_graph(400, 0.02, 1)).method == "dense"
    assert spectral_summary(random_graph(401, 0.02, 1)).method == "iterative"


def test_spectral_summary_edgeless_is_dense():
    s = spectral_summary(Graph(500, []))
    assert s.method == "dense" and s.lambda1 == 0 and s.mu == 0


@pytest.mark.parametrize("g", [complete_graph(3), Graph(3, [(0, 1), (1, 2)]), Graph(6, [])],
                         ids=["triangle", "path3", "edgeless"])
def test_mu_bound_refuses_graphs_without_room(g):
    # With n < 4 ARPACK returns one Ritz value and mu would read 0.
    with pytest.raises(SpectralError, match="n >= 4 and an edge"):
        mu_bound(g)


def test_friedman_check_needs_positive_degree():
    with pytest.raises(ValueError, match=re.escape("friedman_check needs d >= 1 (got d=0)")):
        _friedman(Graph(10, []), 0)


def test_friedman_check_rejects_irregular():
    with pytest.raises(ValueError, match="regular"):
        _friedman(Graph(3, [(0, 1)]), 2)
