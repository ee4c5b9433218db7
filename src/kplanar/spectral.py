"""Adjacency-operator eigenvalue computation.

Two routes: a dense full-spectrum solve for small graphs and a Lanczos
(ARPACK) largest-magnitude solve for large ones; `spectral_summary` is the
one place that picks between them.  Both report mu, the largest absolute
eigenvalue other than lambda_1, plus a residual so callers can use
mu + residual as a safe upper estimate: overestimating mu only weakens the
mixing bound, never invalidates it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import Graph

__all__ = [
    "SpectralSummary",
    "SpectralError",
    "spectrum_full",
    "mu_bound",
    "spectral_summary",
    "friedman_check",
    "adjacency_matrix",
]

DENSE_CAP = 2000
# spectral_summary solves densely up to this many vertices, by Lanczos above.
DENSE_CUTOVER = 400
MATVEC_BUDGET = 100_000
# Below this size ARPACK has no room to work; dense is exact and instant.
_TINY = 8


class SpectralError(RuntimeError):
    """Eigensolver failure (cap exceeded or non-convergence)."""


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


def adjacency_matrix(g: Graph):
    """Symmetric adjacency matrix in CSR form, built on g's own CSR arrays."""
    return sp.csr_matrix((np.ones(2 * g.num_edges), g.csr[1], g.csr[0]), shape=(g.n, g.n))


def _mu_of(vals_desc: np.ndarray) -> float:
    # Largest absolute value among all eigenvalues except one copy of the top.
    if vals_desc.size <= 1:
        return 0.0
    return float(max(abs(vals_desc[1]), abs(vals_desc[-1])))


def _disconnect_warning(g: Graph) -> str | None:
    d = g.regular_degree()
    if d is not None and d > 0 and not g.is_connected():
        return "disconnected regular graph: mu = degree, certificates degenerate"
    return None


def spectrum_full(g: Graph, cap: int = DENSE_CAP) -> SpectralSummary:
    """All n eigenvalues by a dense symmetric solve."""
    if g.n > cap:
        raise SpectralError(f"n={g.n} exceeds dense cap {cap}")
    if g.n == 0:
        return SpectralSummary(0, 0.0, 0.0, "dense", 0.0, ())
    a = np.zeros((g.n, g.n))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    vals = np.linalg.eigvalsh(a + a.T)[::-1]
    resid = 10 * np.finfo(float).eps * g.n * max(1.0, float(abs(vals[0])))
    return SpectralSummary(
        n=g.n,
        lambda1=float(vals[0]),
        mu=_mu_of(vals),
        method="dense",
        residual=float(resid),
        full_spectrum=tuple(float(x) for x in vals),
        warning=_disconnect_warning(g),
    )


def mu_bound(g: Graph, tol: float = 1e-8) -> SpectralSummary:
    """lambda_1 and mu by Lanczos iteration on the sparse adjacency operator.

    Converged Ritz pairs are re-checked explicitly: the reported residual is
    max ||A v - lambda v|| over the pairs that determine lambda_1 and mu, and
    the call fails outright if that exceeds tol * max(1, max_degree).  Tiny
    graphs route to the dense solver (exact, instant).
    """
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    if g.n <= _TINY or g.num_edges == 0:
        full = spectrum_full(g)
        return SpectralSummary(
            g.n, full.lambda1, full.mu, "dense", full.residual, None, full.warning
        )
    a = adjacency_matrix(g)
    k = min(6, g.n - 2)
    dmax = g.max_degree
    v0 = np.random.default_rng(0xA5F0).standard_normal(g.n)
    ncv = min(g.n, max(4 * k, 40))
    maxiter = max(10, MATVEC_BUDGET // ncv)
    try:
        vals, vecs = spla.eigsh(
            a, k=k, which="LM", tol=tol * 1e-3, v0=v0, ncv=ncv, maxiter=maxiter
        )
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
    i2 = int(rest[np.argmax(np.abs(vals[rest]))]) if rest.size else i1
    mu = float(abs(vals[i2])) if rest.size else 0.0
    resid = max(
        float(np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])) for i in {i1, i2}
    )
    if resid > tol * max(1.0, dmax):
        raise SpectralError(
            f"residual {resid:.3e} exceeds tolerance {tol * max(1.0, dmax):.3e}"
        )
    return SpectralSummary(
        n=g.n,
        lambda1=lambda1,
        mu=mu,
        method="iterative",
        residual=resid,
        full_spectrum=None,
        warning=_disconnect_warning(g),
    )


def spectral_summary(g: Graph, tol: float = 1e-8) -> SpectralSummary:
    """lambda_1 and mu of g: the dense solve up to DENSE_CUTOVER vertices,
    Lanczos (`mu_bound` at `tol`) above."""
    return spectrum_full(g) if g.n <= DENSE_CUTOVER else mu_bound(g, tol=tol)


def friedman_check(
    g: Graph, d: int, eps: float = 0.2, summary: SpectralSummary | None = None
) -> bool:
    """True iff mu(g) <= 2 sqrt(d-1) + eps for a d-regular graph g.

    Uses the safe upper estimate mu + residual, so a True answer is robust
    to eigensolver error.
    """
    if g.regular_degree() != d:
        raise ValueError(f"graph is not {d}-regular (degrees {sorted(set(g.degrees.tolist()))})")
    if summary is None:
        summary = spectral_summary(g)
    return summary.mu_safe <= 2.0 * math.sqrt(d - 1) + eps
