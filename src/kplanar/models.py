"""Seeded random-graph samplers and the G(n, p) max-degree check.

G(n, p) uses geometric skip sampling, so cost scales with the number of
edges rather than with C(n, 2).  PERMUTATION, FULL_CYCLE and MATCHING
natively produce multigraphs; their loops are removed and parallel edges
collapsed, with both counts reported.  UNIFORM_SIMPLE instead rejects every
pairing with a loop or a parallel edge, tests each in numpy and builds a
Graph only for the accepted one, reports the rejections as
`rejected_attempts`, and refuses at call time any d (d >= 8) whose expected
attempt count exceeds its budget.  Every sampler returns a simple graph and
is a pure function of (parameters, seed).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _pair_keys

__all__ = [
    "RegularModel",
    "SampleReport",
    "SampleError",
    "sample_gnp",
    "sample_regular",
    "check_uniform_simple",
    "max_degree_ok",
]


class SampleError(RuntimeError):
    """Sampler parameter or budget failure."""


class RegularModel(enum.Enum):
    """Random d-regular multigraph constructions.

    PERMUTATION    union of d/2 uniform permutations (d even)
    FULL_CYCLE     union of d/2 uniform n-cycles (d even)
    MATCHING       union of d uniform perfect matchings (n even)
    UNIFORM_SIMPLE pairing / configuration model, rejected until simple
    """

    PERMUTATION = "perm"
    FULL_CYCLE = "cycle"
    MATCHING = "matching"
    UNIFORM_SIMPLE = "uniform"


@dataclass(frozen=True)
class SampleReport:
    graph: Graph
    rejected_attempts: int
    collapsed_multiedges: int
    removed_loops: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "edges": self.graph.num_edges,
            "rejected_attempts": self.rejected_attempts,
            "collapsed_multiedges": self.collapsed_multiedges,
            "removed_loops": self.removed_loops,
            "seed": self.seed,
        }


def _pair_of_index(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Linear index over pairs (u, v), u < v, ordered by (u, v).
    # first[u] = number of pairs whose smaller endpoint is < u.
    us = np.arange(n, dtype=np.int64)
    first = us * n - us * (us + 1) // 2
    u = np.searchsorted(first, idx, side="right") - 1
    v = idx - first[u] + u + 1
    return u, v


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n, 2) pairs kept independently
    with probability p.  Deterministic given seed."""
    if not 0.0 <= p <= 1.0:
        raise SampleError(f"p={p} outside [0, 1]")
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, [])
    rng = np.random.default_rng(seed)
    # Geometric skips over the linearized pair indices; fixed chunk schedule
    # keeps the draw sequence (hence the graph) independent of edge count.
    chunk = max(1024, int(total * p * 1.25) + 64)
    positions: list[np.ndarray] = []
    base = -1
    while True:
        skips = rng.geometric(p, size=chunk)
        pos = base + np.cumsum(skips)
        positions.append(pos)
        base = int(pos[-1])
        if base >= total - 1:
            break
        chunk = 4096
    idx = np.concatenate(positions)
    idx = idx[idx < total]
    return Graph(n, np.column_stack(_pair_of_index(n, idx)))


def _simplify(n: int, endpoints: np.ndarray) -> tuple[Graph, int, int]:
    """Collapse a multigraph edge array of shape (m, 2) to a simple graph.

    Returns (graph, collapsed_multiedges, removed_loops).
    """
    loop = endpoints[:, 0] == endpoints[:, 1]
    keys = _pair_keys(n, endpoints[~loop])
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    uniq = keys[first]
    g = Graph(n, np.column_stack((uniq // n, uniq % n)))
    return g, int(keys.size - uniq.size), int(np.count_nonzero(loop))


def _simple_pairing_keys(n: int, pairing: np.ndarray) -> np.ndarray | None:
    """The sorted pair keys of a pairing without loops or parallel edges,
    else None: the test `_simplify` passes with (collapsed, loops) == (0, 0),
    at a fraction of the cost because no Graph is built."""
    # Runs once per attempt on a few hundred stubs: the ndarray methods and
    # the in-place sort skip np.any's and np.sort's per-call overhead.
    if (pairing[:, 0] == pairing[:, 1]).any():
        return None
    keys = _pair_keys(n, pairing)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return keys


def _perm_edges(rng: np.random.Generator, n: int, rounds: int, full_cycle: bool) -> np.ndarray:
    parts = []
    for _ in range(rounds):
        perm = rng.permutation(n)
        if full_cycle:
            # perm read as a cyclic order gives a uniform n-cycle.
            parts.append(np.stack([perm, np.roll(perm, -1)], axis=1))
        else:
            parts.append(np.stack([np.arange(n), perm], axis=1))
    return np.concatenate(parts)


def _matching_edges(rng: np.random.Generator, n: int, rounds: int) -> np.ndarray:
    parts = []
    for _ in range(rounds):
        perm = rng.permutation(n)
        parts.append(perm.reshape(-1, 2))
    return np.concatenate(parts)


def _uniform_simple_expected_attempts(d: int) -> float:
    """e^((d^2-1)/4): the asymptotic expected number of pairings drawn per
    simple one, the reciprocal of the probability that a pairing is simple."""
    try:
        return math.exp((d * d - 1) / 4.0)
    except OverflowError:
        return float("inf")


def uniform_simple_budget(d: int) -> int:
    """Rejection budget for the pairing model: 1000 * e^((d^2-1)/4) capped at 1e6.

    The cap keeps failure transparent rather than unbounded.
    """
    return int(min(1000.0 * _uniform_simple_expected_attempts(d), 1_000_000.0))


def check_uniform_simple(d: int) -> int:
    """`uniform_simple_budget(d)`, or SampleError when UNIFORM_SIMPLE at degree
    d expects more attempts per simple pairing than that budget (d >= 8)."""
    budget, expected = uniform_simple_budget(d), _uniform_simple_expected_attempts(d)
    if expected > budget:
        raise SampleError(
            f"UNIFORM_SIMPLE: d={d} expects {expected:.3g} attempts per simple "
            f"pairing, over the budget of {budget}"
        )
    return budget


def sample_regular(n: int, d: int, model: RegularModel, seed: int) -> SampleReport:
    """Sample one graph from a random d-regular model.

    Output is simple with all degrees <= d, and exactly d when no loop or
    parallel edge had to be removed (always true for UNIFORM_SIMPLE).
    UNIFORM_SIMPLE raises SampleError before drawing when
    `check_uniform_simple(d)` refuses d, and after drawing when the budget
    runs out.
    """
    if d >= n:
        raise SampleError(f"need d < n, got d={d}, n={n}")
    if d < 0:
        raise SampleError(f"negative degree {d}")
    rng = np.random.default_rng(seed)

    if model in (RegularModel.PERMUTATION, RegularModel.FULL_CYCLE):
        if d % 2:
            raise SampleError(f"{model.name} requires even d, got {d}")
        raw = _perm_edges(rng, n, d // 2, model is RegularModel.FULL_CYCLE)
        g, collapsed, loops = _simplify(n, raw)
        return SampleReport(g, 0, collapsed, loops, seed)

    if model is RegularModel.MATCHING:
        if n % 2:
            raise SampleError(f"MATCHING requires even n, got {n}")
        raw = _matching_edges(rng, n, d)
        g, collapsed, loops = _simplify(n, raw)
        return SampleReport(g, 0, collapsed, loops, seed)

    if model is RegularModel.UNIFORM_SIMPLE:
        if (n * d) % 2:
            raise SampleError(f"UNIFORM_SIMPLE needs n*d even, got n={n}, d={d}")
        budget = check_uniform_simple(d)
        stubs = np.repeat(np.arange(n), d)
        for attempt in range(budget):
            rng.shuffle(stubs)
            if _simple_pairing_keys(n, stubs.reshape(-1, 2)) is not None:
                return SampleReport(Graph(n, stubs.reshape(-1, 2)), attempt, 0, 0, seed)
        raise SampleError(
            f"UNIFORM_SIMPLE: no simple pairing in {budget} attempts (n={n}, d={d})"
        )

    raise SampleError(f"unknown model {model!r}")


def max_degree_ok(g: Graph, p: float) -> bool:
    """True iff the maximum degree is at most (1 + ln n) * n * p."""
    if p <= 0:
        raise ValueError(f"need p > 0, got {p}")
    if g.n == 0:
        return True
    return g.max_degree <= (1.0 + math.log(g.n)) * g.n * p

