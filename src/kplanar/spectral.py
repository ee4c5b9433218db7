"""Adjacency-operator eigenvalue computation.

Two routes: a dense full-spectrum solve for small graphs and a Lanczos
(ARPACK) solve for large ones; `spectral_summary` is the one place that
picks between them.  Both report mu, the largest absolute eigenvalue other
than lambda_1, plus a residual, and callers use mu + residual as the upper
estimate: overestimating mu only weakens the mixing bound, never
invalidates it.

Lanczos asks for the k eigenvalues of largest magnitude.  On sparse graphs
(average degree below POWER_BELOW_DEGREE) it iterates on A^4, whose top k
eigenvalues are the fourth powers of the k largest |lambda|: the power
spreads the bulk edge apart and ARPACK needs about a third of the steps,
whose Gram-Schmidt passes, not the products, dominate there.  A^4 cannot
tell lambda from -lambda, so a Rayleigh-Ritz step with A on span(V, AV)
recovers the signed pairs.  Denser graphs iterate on A itself.

The two routes do not guarantee the same thing.  The dense solve is
backward-stable, so every eigenvalue, the extremal ones included, lies
within its residual of the reported spectrum.  The Lanczos residual
||A v - theta v||, recomputed with A on either operator, only bounds the
distance from theta to *some* eigenvalue; that no larger non-principal
eigenvalue was missed is assumed, not shown (ARPACK's extremal pairs, of A
or of A^4, are trusted to be the extremal ones).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# After scipy.sparse, which loads it anyway: imported first, it added 6 ms
# (216 -> 222 ms, median of 20) to `import kplanar.cli`.
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from .graph import Graph, _neighbours

__all__ = [
    "SpectralSummary",
    "SpectralError",
    "spectrum_full",
    "mu_bound",
    "spectral_summary",
    "friedman_check",
]

DENSE_CAP = 2000
# spectral_summary solves densely up to this many vertices, by Lanczos above.
# Dense against Lanczos, median ms per call over two runs on one BLAS thread
# (d = 6 permutation graphs, 2-vCPU Xeon VM): 4.4-4.8 / 6.3-6.8 at n = 250,
# 6.5-6.8 / 5.2-5.7 at 300, 12.1-12.4 / 6.8-9.4 at 400, 120-129 / 13.4-13.8
# at 1000.  The crossover is near 300, but the dense solve is the
# backward-stable one and costs at most about 6 ms more per graph between
# 300 and 400 vertices, a range no benchmark workload samples, so the
# cutover stays at 400.
DENSE_CUTOVER = 400
MATVEC_BUDGET = 100_000  # products with A, whichever operator Lanczos runs on
# mu_bound iterates on A^4 below this average degree 2m/n, on A from it up.
# Seconds per call on A against A^4 (the faster of two calls, over the graphs
# of seeds 1 and 2), d-regular permutation graphs, one BLAS thread, 2-vCPU
# Xeon VM.  n = 5e4: 1.00-1.14 / 0.79-0.88 at d = 12, 1.08-1.51 / 0.90-1.16
# at 16, 1.20-1.26 / 1.09-1.11 at 20, 1.16-1.23 / 1.05-1.22 at 24, 1.37-1.45
# / 1.44-1.53 at 28.  n = 1e4: 0.10-0.16 / 0.06-0.08 at d = 6, 0.13-0.16 /
# 0.13-0.15 at 24.  A^4 makes about twice the products in half the steps,
# and each step's Gram-Schmidt pass over the basis costs several products
# on sparse graphs; as the degree grows the products win, and the two meet
# near 24.
POWER_BELOW_DEGREE = 24
POWER_NCV = 20  # Lanczos basis width on A^4; A keeps max(4k, 40)
# Lanczos residual gate, relative to max(1, max degree).
TOL = 1e-8


class SpectralError(RuntimeError):
    """Eigensolver failure (cap exceeded, no room for Lanczos, or non-convergence)."""


@dataclass(frozen=True)
class SpectralSummary:
    n: int
    lambda1: float
    mu: float
    method: str  # "dense" | "iterative"
    residual: float
    full_spectrum: tuple[float, ...] | None = None
    warning: str | None = None
    matvecs: int = 0  # products with A in the Lanczos solve; 0 on the dense path

    @property
    def mu_safe(self) -> float:
        """Upper estimate of mu accounting for numerical error."""
        return self.mu + self.residual

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "lambda1": self.lambda1,
            "mu": self.mu,
            "mu_safe": self.mu_safe,
            "method": self.method,
            "residual": self.residual,
            "matvecs": self.matvecs,
        }
        if self.full_spectrum is not None:
            out["full_spectrum"] = list(self.full_spectrum)
        if self.warning:
            out["warning"] = self.warning
        return out


def _adjacency(g: Graph) -> sp.csr_matrix:
    """g's adjacency matrix on its CSR arrays: the one place a Graph becomes a matrix."""
    indptr, indices = _neighbours(g)
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(g.n, g.n))


def _connected(a: sp.csr_matrix) -> bool:
    # `a` stores every edge both ways, so its strong components are the components, without
    # the symmetrised copy that directed=False builds; no vertex at all counts as connected.
    return connected_components(a, directed=True, connection="strong", return_labels=False) <= 1


def _disconnect_warning(g: Graph, a: sp.csr_matrix) -> str | None:
    if g.regular_degree() and not _connected(a):  # None or 0 is no warning
        return "disconnected regular graph: mu = degree, certificates degenerate"


def spectrum_full(g: Graph) -> SpectralSummary:
    """All n eigenvalues by a dense symmetric solve, with a rounding allowance
    of 10 eps n lambda1 (lambda1 >= 1 once there is an edge).  An edgeless
    graph's spectrum is exactly n zeros: no solve, no size cap, residual 0."""
    if g.num_edges == 0:
        return SpectralSummary(g.n, 0.0, 0.0, "dense", 0.0, (0.0,) * g.n)
    if g.n > DENSE_CAP:
        raise SpectralError(f"n={g.n} exceeds dense cap {DENSE_CAP}")
    a = _adjacency(g)
    vals = np.linalg.eigvalsh(a.toarray())[::-1]
    resid = 10 * np.finfo(float).eps * g.n * max(1.0, float(abs(vals[0])))
    return SpectralSummary(
        n=g.n,
        lambda1=float(vals[0]),
        # An edge means n >= 2: mu is the largest magnitude but one copy of the top.
        mu=float(max(abs(vals[1]), abs(vals[-1]))),
        method="dense",
        residual=float(resid),
        full_spectrum=tuple(float(x) for x in vals),
        warning=_disconnect_warning(g, a),
    )


def mu_bound(g: Graph) -> SpectralSummary:
    """lambda_1 and mu by Lanczos iteration on the sparse adjacency operator.

    Below average degree POWER_BELOW_DEGREE ARPACK finds the top k pairs of
    A^4 (the k largest |lambda|), and a Rayleigh-Ritz step with A on the
    span of those vectors and their images under A splits each +-lambda
    pair that A^4 merges; above it ARPACK finds the k largest-magnitude
    pairs of A.  Either way the Ritz pairs are re-checked explicitly with A:
    the reported residual is max ||A v - lambda v|| over the pairs that
    determine lambda_1 and mu, and the call fails outright if that exceeds
    TOL * max(1, max_degree).  That residual puts each Ritz value within it
    of *some* eigenvalue; it does not show that ARPACK found the extremal
    pair, which is assumed.  `matvecs` counts the products with A made by
    ARPACK and the Rayleigh-Ritz step, not the recheck's.
    `spectral_summary` sends the graphs refused here to the dense solver.
    """
    # mu needs a second Ritz value (k = n - 2 >= 2), and ARPACK cannot
    # start on the zero operator of an edgeless graph.
    if g.n < 4 or g.num_edges == 0:
        raise SpectralError(f"Lanczos needs n >= 4 and an edge, got n={g.n}, m={g.num_edges}")
    a = _adjacency(g)
    k = min(6, g.n - 2)
    gate = TOL * max(1.0, g.max_degree)
    v0 = np.random.default_rng(0xA5F0).standard_normal(g.n)
    if 2 * g.num_edges < POWER_BELOW_DEGREE * g.n:
        power, which, ncv = 4, "LA", min(g.n, POWER_NCV)
    else:
        power, which, ncv = 1, "LM", min(g.n, max(4 * k, 40))
    matvecs = 0

    def apply(x):
        nonlocal matvecs
        matvecs += power
        for _ in range(power):
            x = a @ x
        return x

    op = spla.LinearOperator(a.shape, matvec=apply, dtype=a.dtype)
    # maxiter counts restarts of ncv - k steps, each of `power` products.
    maxiter = max(10, MATVEC_BUDGET // (power * ncv))
    # ARPACK stops once every Ritz pair has ||r|| <= tol * |theta|.  On A,
    # |theta| <= rho(A) <= max degree, so tol = TOL already meets `gate`; on
    # A^4 the stop is on A^4's residual, and only the recheck below gates.
    # A tighter stop only adds matvecs.
    try:
        vals, vecs = spla.eigsh(op, k=k, which=which, tol=TOL, v0=v0, ncv=ncv, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise SpectralError(f"Lanczos did not converge within budget: {exc}") from exc
    if power > 1:
        # A^4 has one eigenvalue for lambda and -lambda, so a Ritz vector of A^4 may mix
        # the two; Rayleigh-Ritz with A on span(V, AV) splits every such pair.
        q = scipy.linalg.orth(np.hstack((vecs, a @ vecs)))
        vals, y = np.linalg.eigh(q.T @ (a @ q))
        vecs = q @ y
        matvecs += k + q.shape[1]
    # The Perron root is the algebraic maximum; mu is the largest magnitude
    # among the rest (for bipartite graphs -lambda1 may tie in magnitude, so
    # picking by magnitude alone could mislabel lambda1).
    i1 = int(np.argmax(vals))
    lambda1 = float(vals[i1])
    if lambda1 < 0:
        raise SpectralError("largest-magnitude eigenvalue came back negative")
    rest = np.delete(np.arange(len(vals)), i1)
    i2 = int(rest[np.argmax(np.abs(vals[rest]))])
    mu = float(abs(vals[i2]))
    resid = max(float(np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])) for i in {i1, i2})
    if resid > gate:
        raise SpectralError(f"residual {resid:.3e} exceeds tolerance {gate:.3e}")
    return SpectralSummary(
        n=g.n,
        lambda1=lambda1,
        mu=mu,
        method="iterative",
        residual=resid,
        warning=_disconnect_warning(g, a),
        matvecs=matvecs,
    )


def spectral_summary(g: Graph) -> SpectralSummary:
    """lambda_1 and mu of g: the dense solve up to DENSE_CUTOVER vertices and
    for edgeless graphs, Lanczos (`mu_bound`) above."""
    if g.n <= DENSE_CUTOVER or g.num_edges == 0:
        return spectrum_full(g)
    return mu_bound(g)


def friedman_check(
    g: Graph, d: int, eps: float = 0.2, summary: SpectralSummary | None = None
) -> bool:
    """True iff mu(g) <= 2 sqrt(d-1) + eps for a d-regular graph g.

    Uses the safe upper estimate mu + residual, so a True answer is robust
    to eigensolver error.
    """
    if d < 1:
        raise ValueError(f"friedman_check needs d >= 1 (got d={d})")
    if g.regular_degree() != d:
        raise ValueError(f"graph is not {d}-regular (degrees {sorted(set(g.degrees.tolist()))})")
    if summary is None:
        summary = spectral_summary(g)
    return summary.mu_safe <= 2.0 * math.sqrt(d - 1) + eps
