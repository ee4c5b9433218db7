"""Seeded random-graph samplers and the G(n, p) max-degree check.

G(n, p) uses geometric skip sampling, so cost scales with the number of
edges rather than with C(n, 2).  PERMUTATION, FULL_CYCLE and MATCHING are
one construction, the union of d/2 or d seeded permutations, keyed as drawn
by one builder into one int64 array; their loops are removed and parallel
edges collapsed, with both counts reported.  UNIFORM_SIMPLE instead rejects
every non-simple pairing in numpy, reports the rejections as
`rejected_attempts`, and refuses at call time any d (d >= 8) whose expected
attempt count exceeds its budget.  Every sampler refuses a bad n, d or p
through `check_params` before allocating, hands pair keys to the one decode,
`graph._graph_of_keys`, returns a simple graph and is a pure function of (parameters, seed); d = 0
gives the edgeless graph in every regular model.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graph import _MAX_N, Graph, _graph_of_keys, _pair_keys

__all__ = [
    "MODELS",
    "RegularModel",
    "SampleReport",
    "SampleError",
    "check_params",
    "sample",
    "sample_gnp",
    "sample_regular",
    "max_degree_ok",
]


_MAX_ATTEMPTS = 1_000_000


class SampleError(ValueError):
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


MODELS = ["gnp"] + sorted(m.value for m in RegularModel)


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


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the C(n, 2) pairs kept independently
    with probability p.  Deterministic given seed."""
    check_params("gnp", n, None, p)
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return _graph_of_keys(n, np.empty(0, dtype=np.int64))
    rng = np.random.default_rng(seed)
    # Geometric skips over the linearized pair indices; fixed chunk schedule
    # keeps the draw sequence (hence the graph) independent of edge count.
    chunk = max(1024, int(total * p * 1.25) + 64)
    positions: list[np.ndarray] = []
    base = -1
    while base < total - 1:
        pos = np.cumsum(rng.geometric(p, size=chunk))
        pos += base
        positions.append(pos)
        base = int(pos[-1])
        chunk = 4096
    idx = np.concatenate(positions)
    del positions, pos
    idx = idx[idx < total]
    # first[u] = number of pairs whose smaller endpoint is < u.  Index i is the
    # pair (u, v = i - first[u] + u + 1), so its key u * n + v is i plus the
    # shift u * (n + 1) + 1 - first[u], and ascending indices give ascending keys.
    us = np.arange(n, dtype=np.int64)
    first = us * n - us * (us + 1) // 2
    idx += (us * (n + 1) + 1 - first)[np.searchsorted(first, idx, side="right") - 1]
    return _graph_of_keys(n, idx)


def _multigraph_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pair key of each row (u[i], v[i]) of a multigraph, or -1 for a
    loop, which sorts first: the form `_simplify` takes."""
    keys = _pair_keys(n, u, v)
    keys[u == v] = -1
    return keys


def _simplify(n: int, keys: np.ndarray) -> tuple[Graph, int, int]:
    """The simple graph of a multigraph's `_multigraph_keys`, which are sorted
    here in place.  Returns (graph, collapsed_multiedges, removed_loops).  Only
    the unique keys are held during the decode, so a caller that passes `keys`
    as a temporary frees them for the build.
    """
    keys.sort()
    loops = int(np.searchsorted(keys, 0))
    keys = keys[loops:]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    uniq = keys[first]
    collapsed = int(keys.size - uniq.size)
    del keys, first
    return _graph_of_keys(n, uniq), collapsed, loops


def _simple_pairing_keys(n: int, pairing: np.ndarray) -> np.ndarray | None:
    """The sorted pair keys of a pairing without loops or parallel edges,
    else None: the test `_simplify` passes with (collapsed, loops) == (0, 0),
    at a fraction of the cost because no Graph is built.  The accepted
    pairing's graph is `_graph_of_keys(n, keys)`."""
    # Runs once per attempt on a few hundred stubs: the ndarray methods and
    # the in-place sort skip np.any's and np.sort's per-call overhead.
    u, v = pairing[:, 0], pairing[:, 1]
    if (u == v).any():
        return None
    keys = _pair_keys(n, u, v)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return keys


def _union_keys(rng: np.random.Generator, n: int, d: int, model: RegularModel) -> np.ndarray:
    """The `_multigraph_keys` of a union model's rows, loops and parallel edges
    kept: block r keys the pairs that the r-th `rng.permutation(n)` defines."""
    if model is RegularModel.MATCHING:
        keys = np.empty((d, n // 2), dtype=np.int64)
    else:
        keys = np.empty((d // 2, n), dtype=np.int64)
    for block in keys:
        perm = rng.permutation(n)
        if model is RegularModel.PERMUTATION:
            block[:] = _multigraph_keys(n, np.arange(n), perm)
        elif model is RegularModel.FULL_CYCLE:
            # perm read as a cyclic order gives a uniform n-cycle.
            block[:] = _multigraph_keys(n, perm, np.roll(perm, -1))
        else:
            block[:] = _multigraph_keys(n, perm[0::2], perm[1::2])
    return keys.ravel()


def _uniform_budget(d: int) -> int:
    """The rejection budget of UNIFORM_SIMPLE at degree d, min(1000 * E, 1e6)
    attempts, where E = e^((d^2-1)/4) is the asymptotic expected number of
    pairings drawn per simple one.  SampleError when E itself exceeds 1e6
    (d >= 8): the cap keeps failure transparent rather than unbounded."""
    try:
        expected = math.exp((d * d - 1) / 4.0)
    except OverflowError:
        expected = float("inf")
    if expected > _MAX_ATTEMPTS:
        raise SampleError(
            f"UNIFORM_SIMPLE: d={d} expects {expected:.3g} attempts per simple "
            f"pairing, over the budget of {_MAX_ATTEMPTS}"
        )
    return int(min(1000.0 * expected, _MAX_ATTEMPTS))


def sample_regular(n: int, d: int, model: RegularModel, seed: int) -> SampleReport:
    """Sample one graph from a random d-regular model.

    Output is simple with all degrees <= d, and exactly d when no loop or
    parallel edge had to be removed (always true for UNIFORM_SIMPLE); d = 0
    gives the edgeless graph in every model.
    UNIFORM_SIMPLE raises SampleError before drawing when
    `_uniform_budget(d)` refuses d, and after drawing when the budget
    runs out.
    """
    if not isinstance(model, RegularModel):
        raise SampleError(f"unknown model {model!r}")
    check_params(model.value, n, d, None)
    if d >= n:
        raise SampleError(f"need d < n, got d={d}, n={n}")
    rng = np.random.default_rng(seed)

    if model is RegularModel.UNIFORM_SIMPLE:
        if (n * d) % 2:
            raise SampleError(f"UNIFORM_SIMPLE needs n*d even, got n={n}, d={d}")
        budget = _uniform_budget(d)
        stubs = np.repeat(np.arange(n), d)
        for attempt in range(budget):
            rng.shuffle(stubs)
            keys = _simple_pairing_keys(n, stubs.reshape(-1, 2))
            if keys is not None:
                return SampleReport(_graph_of_keys(n, keys), attempt, 0, 0, seed)
        raise SampleError(
            f"UNIFORM_SIMPLE: no simple pairing in {budget} attempts (n={n}, d={d})"
        )

    if model is RegularModel.MATCHING and n % 2 and d:
        raise SampleError(f"MATCHING requires even n, got {n}")
    g, collapsed, loops = _simplify(n, _union_keys(rng, n, d, model))
    return SampleReport(g, 0, collapsed, loops, seed)


def check_params(model: str, n: int, d: int | None, p: float | None) -> None:
    """SampleError unless `model` is a `MODELS` tag, "gnp" has p and no d and
    every other tag d and no p, n and d are integers (Python or numpy; a
    float is refused even when integral, as `Graph` refuses float ids),
    0 <= n < 2**31, d >= 0 and even for PERMUTATION and FULL_CYCLE, p is a
    Python or numpy int or float in [0, 1], and a UNIFORM_SIMPLE d fits its
    attempt budget: every rule on one
    parameter, checked without drawing anything.  The rules that tie d to n
    are `sample_regular`'s."""
    if model not in MODELS:
        raise SampleError(f"unknown model {model!r}")
    if model == "gnp":
        if p is None or d is not None:
            raise SampleError("gnp takes --p and no --d")
    elif d is None or p is not None:
        raise SampleError(f"{model} takes --d and no --p")
    if not isinstance(n, (int, np.integer)):
        raise SampleError(f"non-integer vertex count n={n!r}")
    if n < 0:
        raise SampleError(f"negative vertex count n={n}")
    if n >= _MAX_N:
        raise SampleError(f"vertex count n={n} is not below the limit 2**31 = {_MAX_N}")
    if model == "gnp":
        if not isinstance(p, (int, float, np.integer, np.floating)):
            raise SampleError(f"non-numeric edge probability p={p!r}")
        if not 0.0 <= p <= 1.0:
            raise SampleError(f"p={p} outside [0, 1]")
    elif not isinstance(d, (int, np.integer)):
        raise SampleError(f"non-integer degree d={d!r}")
    elif d < 0:
        raise SampleError(f"negative degree {d}")
    elif d % 2 and RegularModel(model) in (RegularModel.PERMUTATION, RegularModel.FULL_CYCLE):
        raise SampleError(f"{RegularModel(model).name} requires even d, got {d}")
    elif RegularModel(model) is RegularModel.UNIFORM_SIMPLE:
        _uniform_budget(d)


def sample(model: str, n: int, d: int | None, p: float | None, seed: int) -> SampleReport:
    """The one entry point: `check_params`, then G(n, p) with all counts 0 or a RegularModel."""
    check_params(model, n, d, p)
    if model == "gnp":
        return SampleReport(sample_gnp(n, p, seed), 0, 0, 0, seed)
    return sample_regular(n, d, RegularModel(model), seed)


def max_degree_ok(g: Graph, p: float) -> bool:
    """True iff the maximum degree is at most (1 + ln n) * n * p."""
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    if g.n == 0:
        return True
    return g.max_degree <= (1.0 + math.log(g.n)) * g.n * p

