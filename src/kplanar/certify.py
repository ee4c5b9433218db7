"""Deterministic lower-bound certificates for k-planar crossing numbers of
regular graphs.

Chain: the mixing bound turns a second-eigenvalue estimate into a density
lower bound D on e(X, Y) over all disjoint size-t set pairs; any k-class
edge partition then forces some class subgraph to have 1/3-2/3 bisection
width >= D/k (witness-chain construction); the bisection-vs-crossing
inequality of Pach, Shahrokhi and Szegedy converts that width into a
crossing-number lower bound.  Certificates are pure arithmetic in
(n, d, k, mu_safe) and can be recomputed bit-identically.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

from .graph import Graph, GraphError, cut_size
from .partitions import witness_floor, witness_set_size
from .spectral import SpectralSummary

__all__ = [
    "Certificate",
    "mixing_density_lb",
    "pss_lower_bound",
    "threshold_c0",
    "set_size_t",
    "certify_k_planar_lb",
    "brute_min_pair_density",
    "min_positive_n",
    "alpha_of",
]

BRUTE_CAP = 12


def alpha_of(k: int) -> float:
    """Witness-set size fraction 1/(6*3^(k-2))."""
    return 1.0 / witness_floor(k)


def mixing_density_lb(n: int, d: int, mu: float, alpha: float, beta: float) -> float:
    """alpha*beta*d*n - mu*n*sqrt((alpha-alpha^2)(beta-beta^2)).

    Valid lower bound on e(X, Y) for every pair of disjoint sets of sizes
    alpha*n and beta*n in any d-regular graph whose non-principal
    eigenvalues are bounded by mu in absolute value.  May be negative, in
    which case the bound is vacuous.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError(f"alpha={alpha}, beta={beta} must lie in (0,1)")
    if mu < 0:
        raise ValueError(f"need mu >= 0, got {mu}")
    return alpha * beta * d * n - mu * n * math.sqrt((alpha - alpha**2) * (beta - beta**2))


def pss_lower_bound(b: float, sum_deg_sq: float) -> float:
    """Crossing-number lower bound ((b - 2 sqrt(S)) / 10)^2, zero when vacuous.

    Contrapositive of b(G) <= 10 sqrt(cr(G)) + 2 sqrt(sum of squared degrees).
    """
    if b < 0 or sum_deg_sq < 0:
        raise ValueError("b and sum_deg_sq must be nonnegative")
    slack = b - 2.0 * math.sqrt(sum_deg_sq)
    return (slack / 10.0) ** 2 if slack > 0 else 0.0


def threshold_c0(k: int) -> int:
    """Degree threshold (4 * 6 * 3^(k-2))^2 above which the density bound
    is guaranteed at the Friedman eigenvalue estimate."""
    return (4 * witness_floor(k)) ** 2


def set_size_t(n: int, k: int) -> tuple[int, bool]:
    """Witness-set size `witness_set_size(n, k)` and a flag that is False when
    n is too small for the raw (real-valued) size n / (6*3^(k-2)) to reach 1.
    No code in the package reads the flag; the pair is kept for callers that
    unpack it, such as perfbench's workloads."""
    return witness_set_size(n, k), n >= witness_floor(k)


def _fraction(n: int, k: int) -> float:
    """The set-size fraction the chain uses: t/n for the integer set size t, which
    only rounds alpha up, or alpha itself in the tiny-n corner t = n, where the
    certificate is vacuous."""
    t = witness_set_size(n, k)
    return t / n if t < n else alpha_of(k)


@dataclass(frozen=True)
class Certificate:
    n: int
    d: int
    k: int
    mu_safe: float
    alpha: float
    density_lb: float
    width_lb: float
    degree_term: float
    crossing_lb: float
    degenerate: bool
    constants_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def transcript(self) -> str:
        """Human-readable derivation of the bound."""
        t = witness_set_size(self.n, self.k)
        used = (f", rounded up to alpha' = {_fraction(self.n, self.k):.6g}" if t < self.n
                else " = n, so the chain keeps alpha' = alpha")
        lines = [
            f"graph: n={self.n}, {self.d}-regular; classes k={self.k}",
            f"second-eigenvalue safe bound: mu_safe = {self.mu_safe:.6g}",
            f"witness fraction alpha = 1/(6*3^(k-2)) = {self.alpha:.6g} "
            f"(integer set size t = {t}{used})",
            f"mixing bound: every disjoint pair of size-t sets spans "
            f"e(X,Y) >= D = {self.density_lb:.6g} edges (supersets only gain edges, "
            f"so this covers all pairs of size >= t)",
            f"any {self.k}-class edge partition yields, via the witness-chain "
            f"recursion, sets A,B of size >= t with e(A,B) <= sum of the k "
            f"class bisection widths; hence some class subgraph has 1/3-2/3 "
            f"width >= D/k = {self.width_lb:.6g}",
            f"its degrees are <= d, so sum d_i^2 <= n*d^2 and the "
            f"width-vs-crossing inequality gives cr >= ((D/k - {self.degree_term:.6g}) "
            f"/ 10)^2 = {self.crossing_lb:.6g}",
            f"certificate: cr_{self.k}(G) >= {self.crossing_lb:.6g}"
            + ("  [DEGENERATE: vacuous]" if self.degenerate else ""),
            f"sufficient-degree condition d >= c0(k) = {threshold_c0(self.k)}: "
            + ("met" if self.constants_ok else "not met (informational only)"),
        ]
        return "\n".join(lines)


def _chain(n: int, d: int, k: int, mu_safe: float) -> Certificate:
    # Round the set size up to an integer: witness sets have size >= t, and
    # the mixing bound at the larger exact fraction is still valid.
    alpha_int = _fraction(n, k)
    density = mixing_density_lb(n, d, mu_safe, alpha_int, alpha_int)
    width = density / k
    sum_sq = n * d * d
    degree_term = 2.0 * math.sqrt(sum_sq)
    # 0.0 exactly when width <= degree_term, which density <= 0 implies: the
    # one degeneracy test.
    crossing = pss_lower_bound(max(0.0, width), sum_sq)
    return Certificate(
        n=n,
        d=d,
        k=k,
        mu_safe=mu_safe,
        alpha=alpha_of(k),
        density_lb=density,
        width_lb=width,
        degree_term=degree_term,
        crossing_lb=crossing,
        degenerate=width <= degree_term,
        constants_ok=d >= threshold_c0(k),
    )


def certify_k_planar_lb(g: Graph, k: int, spectral: SpectralSummary) -> Certificate:
    """Assemble the full certificate for a simple d-regular graph.

    Disconnected regular graphs are allowed but produce a degenerate
    certificate (mu equals d, killing the density bound).
    """
    witness_floor(k)  # refuses k < 2 before the graph is looked at
    d = g.regular_degree()
    if d is None:
        raise GraphError(
            f"graph is not regular (degrees {sorted(set(g.degrees.tolist()))}); cannot certify"
        )
    if spectral.n != g.n:
        raise ValueError("spectral summary was computed for a different graph size")
    return _chain(g.n, d, k, spectral.mu_safe)


def min_positive_n(d: int, k: int, mu_safe: float) -> int:
    """Smallest n0 > d such that the certificate chain is non-degenerate at
    every n >= n0 for fixed (d, k, mu_safe); the desk-scale operating point.

    The set size t = ceil(n/f), f = witness_floor(k), makes degeneracy
    saw-toothed in n, so no search that assumes monotonicity finds n0.  The
    density is n*a*(a*(d + mu) - mu) at a = t/n >= 1/f.  When
    c = (d + mu)/f^2 - mu/f > 0 it rises in a from 1/f, so n divisible by f
    is the worst case, and every n > N* = (2*d*k/c)^2 clears the degree term
    2*d*sqrt(n): n0 is found by scanning down from N*, which stops within
    one period of f.  Raises ValueError when c <= 0, where every multiple of
    f is degenerate.
    """
    f = witness_floor(k)
    c = (d + mu_safe) / f**2 - mu_safe / f
    if c <= 0:
        raise ValueError(f"no positive certificate for d={d}, k={k} at n divisible by {f}")
    n = max(d + 1, math.floor((2 * d * k / c) ** 2) + 1)
    while n > d + 1 and not _chain(n - 1, d, k, mu_safe).degenerate:
        n -= 1
    return n


def brute_min_pair_density(g: Graph, t: int) -> int:
    """Exact min over all disjoint X, Y with |X| = |Y| = t of e(X, Y)."""
    n = g.n
    if n > BRUTE_CAP:
        raise GraphError(f"n={n} exceeds brute-force cap {BRUTE_CAP}")
    if not 1 <= t <= n // 2:
        raise ValueError(f"need 1 <= t <= n/2, got t={t}, n={n}")
    verts = range(n)
    best = None
    for xs in combinations(verts, t):
        rest = [v for v in verts if v not in xs]
        for ys in combinations(rest, t):
            e = cut_size(g, xs, ys)
            if best is None or e < best:
                best = e
                if best == 0:
                    return 0
    return best

