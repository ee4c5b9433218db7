import math
import random
from itertools import combinations

import pytest

from kplanar.certify import (BRUTE_CAP, _chain, alpha_of, brute_min_pair_density,
                             certify_k_planar_lb, min_positive_n, mixing_density_lb,
                             pss_lower_bound, set_size_t, threshold_c0)
from kplanar.experiment import ExperimentConfig
from kplanar.graph import Graph, GraphError, cut_size
from kplanar.models import RegularModel, sample_regular
from kplanar.partitions import witness_floor
from kplanar.spectral import spectrum_full

from conftest import complete_bipartite, complete_graph, cycle_graph, petersen_graph


class TestMixingDensity:
    def test_k4_singletons(self):
        # alpha = beta = 1/4, mu = 1: bound is exactly 0; actual e = 1
        assert mixing_density_lb(4, 3, 1.0, 0.25, 0.25) == pytest.approx(0.0)

    def test_zero_mu(self):
        assert mixing_density_lb(100, 10, 0.0, 0.3, 0.2) == pytest.approx(0.3 * 0.2 * 10 * 100)

    def test_petersen_vacuous_but_sound(self):
        val = mixing_density_lb(10, 3, 2.0, 0.3, 0.3)
        assert val == pytest.approx(-1.5)
        g = petersen_graph()
        worst = min(
            cut_size(g, xs, ys)
            for xs in combinations(range(10), 3)
            for ys in combinations([v for v in range(10) if v not in xs], 3)
        )
        assert worst >= val

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            mixing_density_lb(10, 3, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            mixing_density_lb(10, 3, 1.0, 0.5, 1.0)


class TestPss:
    def test_boundary(self):
        assert pss_lower_bound(2 * math.sqrt(7.0), 7.0) == 0.0

    def test_unit_step(self):
        s = 5.0
        assert pss_lower_bound(2 * math.sqrt(s) + 10, s) == pytest.approx(1.0)

    def test_zero_degrees(self):
        assert pss_lower_bound(30.0, 0.0) == pytest.approx(9.0)

    def test_monotone_continuous(self):
        s = 50.0
        vals = [pss_lower_bound(b / 10, s) for b in range(0, 400)]
        assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))
        # continuity at the activation point
        b0 = 2 * math.sqrt(s)
        assert pss_lower_bound(b0 + 1e-9, s) < 1e-15


def test_threshold_c0_values():
    assert threshold_c0(2) == 576
    assert threshold_c0(3) == 5184
    assert threshold_c0(4) == 46656
    with pytest.raises(ValueError):
        threshold_c0(1)


@pytest.mark.parametrize("refuse", [
    witness_floor,
    lambda k: ExperimentConfig(model="matching", n_list=(30,), d_list=(4,), k=k),
    # An irregular graph: the k rule is checked before regularity.
    lambda k: certify_k_planar_lb(Graph(5, [(0, 1)]), k, spectrum_full(Graph(5, [(0, 1)]))),
    threshold_c0,
], ids=["witness_floor", "ExperimentConfig", "certify_k_planar_lb", "threshold_c0"])
def test_k_below_2_is_refused_by_the_one_rule(refuse):
    with pytest.raises(ValueError, match=r"^need k >= 2 classes, got k=1$"):
        refuse(1)


def test_set_size_t_values():
    assert set_size_t(36, 2) == (6, True)
    assert set_size_t(54, 3) == (3, True)
    assert set_size_t(5, 2) == (1, False)
    # Integer arithmetic: in floats 1458 / 1458 reads 0.9999999999999999 and
    # 1458 / 486 reads 3.0000000000000004, which rounded t up to 4.
    assert set_size_t(1458, 7) == (1, True)
    assert set_size_t(1457, 7) == (1, False)
    assert set_size_t(1458, 6) == (3, True)


class TestCertify:
    def test_bipartite_regular_degenerate(self):
        g = complete_bipartite(6, 6)
        cert = certify_k_planar_lb(g, 2, spectrum_full(g))
        assert cert.degenerate and cert.crossing_lb == 0.0

    def test_k4_small_n_degenerate(self, k4):
        cert = certify_k_planar_lb(k4, 2, spectrum_full(k4))
        assert cert.degenerate and cert.crossing_lb == 0.0

    def test_rejects_irregular(self):
        g = Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="not regular"):
            certify_k_planar_lb(g, 2, spectrum_full(g))

    def test_rejects_k1(self, k4):
        with pytest.raises(ValueError):
            certify_k_planar_lb(k4, 1, spectrum_full(k4))

    def test_chain_recomputes_from_fields(self):
        g = petersen_graph()
        cert = certify_k_planar_lb(g, 2, spectrum_full(g))
        t = math.ceil(cert.n * cert.alpha)
        a = t / cert.n
        d_recomputed = a * a * cert.d * cert.n - cert.mu_safe * cert.n * (a - a * a)
        assert cert.density_lb == d_recomputed
        assert cert.width_lb == cert.density_lb / cert.k
        assert cert.degree_term == 2.0 * math.sqrt(cert.n * cert.d**2)

    def test_to_dict_keys_are_pinned(self):
        g = petersen_graph()
        cert = certify_k_planar_lb(g, 2, spectrum_full(g))
        assert list(cert.to_dict()) == [
            "n", "d", "k", "mu_safe", "alpha", "density_lb", "width_lb", "degree_term",
            "crossing_lb", "degenerate", "constants_ok"]
        assert cert.to_dict()["d"] == 3 and cert.to_dict()["degenerate"] is cert.degenerate

    def test_monotone_in_mu_and_k(self):
        n, d = 5_000_000, 128
        lbs = [_chain(n, d, 2, mu).crossing_lb for mu in (20.0, 22.0, 24.0, 30.0)]
        assert all(a >= b for a, b in zip(lbs, lbs[1:]))
        assert lbs[0] > 0
        by_k = [_chain(n, d, k, 23.0).crossing_lb for k in (2, 3)]
        assert by_k[0] >= by_k[1]

    def test_operating_point_d128(self):
        # smallest n with a positive certificate at d=128, k=2, Friedman-level mu
        mu = 2 * math.sqrt(127) + 0.2
        n0 = min_positive_n(128, 2, mu)
        assert _chain(n0, 128, 2, mu).degenerate is False
        assert _chain(n0 - 1, 128, 2, mu).degenerate is True
        # desk-scale operating point is in the millions: documented floor
        assert n0 > 1_000_000

    @pytest.mark.parametrize("d,k,n0", [(576, 2, 61_225), (120, 2, 3_038_701),
                                        (5184, 3, 13_598_623)])
    def test_min_positive_n_certifies_every_larger_n(self, d, k, n0):
        # Degeneracy is saw-toothed in n (the set size is ceil(n/f)), so n0 is
        # the start of the certified tail, not the first certified n.
        mu = 2 * math.sqrt(d - 1) + 0.2
        assert min_positive_n(d, k, mu) == n0
        assert _chain(n0 - 1, d, k, mu).degenerate is True
        f = witness_floor(k)
        assert [n for n in range(n0, n0 + 20 * f) if _chain(n, d, k, mu).degenerate] == []

    def test_min_positive_n_refuses_a_density_that_never_clears(self):
        # d = 100, k = 2: (d + mu)/36 < mu/6, so every multiple of 6 is degenerate.
        with pytest.raises(ValueError, match="for d=100, k=2 at n divisible by 6"):
            min_positive_n(100, 2, 2 * math.sqrt(99) + 0.2)

    @staticmethod
    def _two_test_chain(n, d, k, mu_safe):
        """`_chain`'s fields as computed when it tested degeneracy twice (density
        <= 0, then width <= degree_term) and zeroed crossing_lb on either: the
        reference for the one-test form."""
        alpha = alpha_of(k)
        t = set_size_t(n, k)[0]
        alpha_int = t / n
        if alpha_int >= 1.0:
            alpha_int = alpha
        density = mixing_density_lb(n, d, mu_safe, alpha_int, alpha_int)
        width = density / k
        sum_sq = n * d * d
        degree_term = 2.0 * math.sqrt(sum_sq)
        crossing = pss_lower_bound(max(0.0, width), sum_sq)
        degenerate = density <= 0.0 or width <= degree_term
        if degenerate:
            crossing = 0.0
        return dict(n=n, d=d, k=k, mu_safe=mu_safe, alpha=alpha, density_lb=density,
                    width_lb=width, degree_term=degree_term, crossing_lb=crossing,
                    degenerate=degenerate, constants_ok=d >= threshold_c0(k))

    def test_degeneracy_is_the_one_zero_test(self):
        rnd = random.Random(0)
        # Either side of the d = 576 operating point's last degenerate n, then a
        # seeded grid; mu = d * u**4 puts two thirds of the cases below d/5,
        # where k = 2 certificates can be non-degenerate.
        friedman = 2 * math.sqrt(575) + 0.2
        cases = [(61_224, 576, 2, friedman), (61_225, 576, 2, friedman)]
        for _ in range(5000):
            n, d, k = rnd.randint(1, 10**7), rnd.randint(0, 3000), rnd.randint(2, 5)
            cases.append((n, d, k, d * rnd.random() ** 4))
        degenerate = []
        for n, d, k, mu in cases:
            cert = _chain(n, d, k, mu)
            assert cert.degenerate == (cert.crossing_lb == 0.0), (n, d, k, mu)
            assert cert.to_dict() == self._two_test_chain(n, d, k, mu), (n, d, k, mu)
            degenerate.append(cert.degenerate)
        assert degenerate[:2] == [True, False] and 0.1 < sum(degenerate) / len(cases) < 0.9

    def test_transcript_mentions_bound(self):
        g = cycle_graph(9)
        cert = certify_k_planar_lb(g, 2, spectrum_full(g))
        assert "cr_2(G)" in cert.transcript()


class TestBruteDensity:
    def test_k6_t2(self):
        assert brute_min_pair_density(complete_graph(6), 2) == 4

    def test_c6_t2(self):
        assert brute_min_pair_density(cycle_graph(6), 2) == 0

    def test_cap_and_range(self):
        with pytest.raises(GraphError, match="cap"):
            brute_min_pair_density(Graph(BRUTE_CAP + 1, []), 2)
        with pytest.raises(ValueError):
            brute_min_pair_density(complete_graph(6), 4)

    def test_sound_against_mixing(self):
        # whenever the mixing bound is defined, the exhaustive min dominates it
        for n, d, model in [(8, 3, RegularModel.UNIFORM_SIMPLE),
                            (10, 4, RegularModel.UNIFORM_SIMPLE)]:
            for seed in range(5):
                g = sample_regular(n, d, model, seed).graph
                mu = spectrum_full(g).mu
                for t in (1, 2, 3):
                    lb = mixing_density_lb(n, d, mu, t / n, t / n)
                    assert brute_min_pair_density(g, t) >= lb - 1e-9

