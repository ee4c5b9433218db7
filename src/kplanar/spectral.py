"""Adjacency-operator eigenvalue computation.

Two routes: a dense full-spectrum solve for small graphs and a Lanczos
(ARPACK) largest-magnitude solve for large ones; `spectral_summary` is the
one place that picks between them.  Both report mu, the largest absolute
eigenvalue other than lambda_1, plus a residual, and callers use
mu + residual as the upper estimate: overestimating mu only weakens the
mixing bound, never invalidates it.

The two routes do not guarantee the same thing.  The dense solve is
backward-stable, so every eigenvalue, the extremal ones included, lies
within its residual of the reported spectrum.  The Lanczos residual
||A v - theta v|| only bounds the distance from theta to *some* eigenvalue;
that no larger non-principal eigenvalue was missed is assumed, not shown
(ARPACK's largest-magnitude pairs are trusted to be the extremal ones).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
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
MATVEC_BUDGET = 100_000
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

    Converged Ritz pairs are re-checked explicitly: the reported residual is
    max ||A v - lambda v|| over the pairs that determine lambda_1 and mu, and
    the call fails outright if that exceeds TOL * max(1, max_degree).  That
    residual puts each Ritz value within it of *some* eigenvalue; it does not
    show that ARPACK found the extremal pair, which is assumed.
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
    ncv = min(g.n, max(4 * k, 40))
    maxiter = max(10, MATVEC_BUDGET // ncv)
    # ARPACK stops once every Ritz pair has ||r|| <= tol * |theta|, and
    # |theta| <= rho(A) <= max degree, so tol = TOL already meets `gate`;
    # a tighter stop only adds matvecs.
    try:
        vals, vecs = spla.eigsh(a, k=k, which="LM", tol=TOL, v0=v0, ncv=ncv, maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise SpectralError(f"Lanczos did not converge within budget: {exc}") from exc
    # The Perron root is the algebraic maximum; mu is the largest magnitude
    # among the rest (for bipartite graphs -lambda1 may tie in magnitude, so
    # picking by magnitude alone could mislabel lambda1).
    i1 = int(np.argmax(vals))
    lambda1 = float(vals[i1])
    if lambda1 < 0:
        raise SpectralError("largest-magnitude eigenvalue came back negative")
    rest = np.delete(np.arange(k), i1)
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
