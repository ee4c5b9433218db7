"""Immutable undirected simple graphs and the set/cut/restriction queries
used by every other module.

Vertices are dense integers 0..n-1, n < 2**31.  A Graph stores only n and
`edges`, a read-only (m, 2) int64 array of distinct pairs (u, v), u < v,
sorted by (u, v).  Derived on first use and cached: `degrees` and the CSR
arrays `csr = (indptr, indices)`.  All operations here are pure, so
instances are safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "Bipartition",
    "EdgePartition",
    "cut_size",
    "induced_subgraph",
    "random_edge_partition",
    "read_edge_list",
    "read_edge_partition",
    "write_edge_list",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The int64 key min(u, v) * n + max(u, v) of each pair (u[i], v[i]);
    equal keys mean parallel edges, and sorting by key sorts the normalised
    pairs by (u, v)."""
    u = u.astype(np.int64, copy=False)
    return np.minimum(u, v) * n + np.maximum(u, v)


# Below it, pair keys lo * n + hi stay under 2**62 and vertex ids fit int32.
_MAX_N = 2**31


def _int_array(values, what: str) -> np.ndarray:
    """`values` as int64; GraphError for a non-integer dtype (a cast truncates 0.9 to 0)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise GraphError(f"{what} must be integers, got {a.dtype} values")
    return a.astype(np.int64, copy=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_degrees", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        """`edges`: pairs either way round, as an iterable or an (m, 2) array.  GraphError names
        the first bad pair in input order: a self-loop, else out of range, else a repeat."""
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if n >= _MAX_N:
            raise GraphError(f"vertex count n={n} is not below the limit 2**31 = {_MAX_N}")
        pairs = _int_array(edges if isinstance(edges, np.ndarray) else [*edges], "vertex ids")
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise GraphError(f"edges must be pairs, got an array of shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        keys = np.multiply(lo, n, out=lo)
        keys += hi
        del lo, hi
        # Rows that arrive in key order, as every internal build's do, cost timsort one pass.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # A repeat is a sorted key equal to the one before it; the sort is stable, so it is
        # the later occurrence.  An out-of-range pair's key may fake a repeat, but that pair
        # is flagged, and no later.
        bad[order[np.flatnonzero(keys[1:] == keys[:-1]) + 1]] = True
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise GraphError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"endpoint out of range in ({u},{v}), n={n}")
            raise GraphError(f"duplicate edge {(min(u, v), max(u, v))}")
        del order, bad
        g = _graph_of_keys(n, keys)
        self.n, self.edges, self._degrees, self._csr = g.n, g.edges, None, None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = _frozen(np.bincount(self.edges.ravel(), minlength=self.n))
        return self._degrees

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): u's ascending neighbours are indices[indptr[u]:indptr[u + 1]]."""
        if self._csr is None:
            # Row r lists its smaller neighbours (edges (w, r), w ascending), then its larger
            # ones (edges (r, w)): a stable sort by row keeps both runs, so each row ascends.
            order = np.argsort(self.edges.T[::-1].ravel(), kind="stable")
            indptr = np.concatenate(([0], np.cumsum(self.degrees)))
            self._csr = (_frozen(indptr), _frozen(self.edges.T.ravel()[order]))
        return self._csr

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = self.degrees
        return int(degs[0]) if degs.size and (degs == degs[0]).all() else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edges, other.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _graph_of_keys(n: int, keys: np.ndarray) -> Graph:
    """The Graph whose edges are the pairs that the ascending, distinct, loop-free
    int64 keys lo * n + hi encode.  Nothing is checked: callers that hold such keys
    (Graph.__init__ after validating, the samplers) come here, everyone else calls Graph."""
    edges = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    g = Graph.__new__(Graph)
    g.n = n
    g.edges = _frozen(edges)
    g._degrees = g._csr = None
    return g


def cut_size(g: Graph, X: Iterable[int], Y: Iterable[int]) -> int:
    """e(X, Y): number of edges with one endpoint in X and the other in Y.

    X and Y must be disjoint sets of vertex ids in 0..n-1.
    """
    X, Y = list(X), list(Y)
    if any(ids and (min(ids) < 0 or max(ids) >= g.n) for ids in (X, Y)):
        raise GraphError(f"vertex id out of range 0..{g.n - 1}")
    xs, ys = np.zeros((2, g.n), dtype=bool)
    xs[X] = ys[Y] = True
    if (xs & ys).any():
        raise GraphError(f"overlapping sets: {np.flatnonzero(xs & ys).tolist()}")
    u, v = g.edges[:, 0], g.edges[:, 1]
    return int(np.count_nonzero((xs[u] & ys[v]) | (ys[u] & xs[v])))


def induced_subgraph(g: Graph, S: Iterable[int]) -> tuple[Graph, list[int]]:
    """Restriction of g to the vertices of S, relabeled to 0..|S|-1.

    Returns (subgraph, back_map) where back_map[i] is the original id of
    the subgraph's vertex i.
    """
    back = sorted(set(S))
    if not back:
        raise GraphError("empty vertex set")
    if back[0] < 0 or back[-1] >= g.n:
        raise GraphError("vertex id out of range")
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[back] = np.arange(len(back))
    e = pos[g.edges]
    return Graph(len(back), e[(e[:, 0] >= 0) & (e[:, 1] >= 0)]), back


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint blocks covering a ground set (not necessarily 0..n-1:
    restrictions keep original vertex ids)."""

    block1: tuple[int, ...]
    block2: tuple[int, ...]

    def __post_init__(self):
        b1 = tuple(sorted(set(self.block1)))
        b2 = tuple(sorted(set(self.block2)))
        if set(b1) & set(b2):
            raise GraphError("bipartition blocks overlap")
        object.__setattr__(self, "block1", b1)
        object.__setattr__(self, "block2", b2)

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(sorted(self.block1 + self.block2))

    @property
    def size(self) -> int:
        return len(self.block1) + len(self.block2)

    @property
    def balanced(self) -> bool:
        """Each block holds at least a third of the ground set."""
        m = self.size
        return 3 * min(len(self.block1), len(self.block2)) >= m


@dataclass(frozen=True, eq=False)
class EdgePartition:
    """Assignment of every edge of a host graph to one of k classes:
    `classes[i]` is the class of the host's edge `edges[i]`."""

    k: int
    classes: np.ndarray

    def __post_init__(self):
        classes = _int_array(self.classes, "edge classes").copy()
        if self.k < 1 or classes.ndim != 1 or ((classes < 0) | (classes >= self.k)).any():
            raise GraphError(f"need k >= 1 and a 1-D array of classes in 0..k-1, got k={self.k}")
        object.__setattr__(self, "classes", _frozen(classes))

    def class_subgraph(self, g: Graph, c: int) -> Graph:
        """Subgraph of g on all n vertices keeping only class-c edges."""
        if self.classes.size != g.num_edges:
            raise GraphError(f"{self.classes.size} edge classes for {g.num_edges} edges")
        return Graph(g.n, g.edges[self.classes == c])


def random_edge_partition(g: Graph, k: int, seed: int) -> EdgePartition:
    """Uniform random class per edge, in edge order: the classes are
    `np.random.default_rng(seed).integers(k, size=m)`, so deterministic given seed."""
    return EdgePartition(k, np.random.default_rng(seed).integers(k, size=g.num_edges))


def write_edge_list(path: str, g: Graph) -> None:
    """Write the interchange format: 'n m' header then one 'u v' per edge."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        np.savetxt(fh, g.edges, fmt="%d")


def _two_ints(path: str, lineno: int, line: str, form: str) -> tuple[int, int]:
    """The two integers on an edge-list line; GraphError names the file, the
    1-based line number and the line's text otherwise, or when one is outside int64."""
    fields = line.split()
    if len(fields) == 2:
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            pass
        else:
            if -2**63 <= a < 2**63 and -2**63 <= b < 2**63:
                return a, b
            raise GraphError(f"{path}:{lineno}: integer outside int64 in {form!r}, "
                             f"got {line.strip()!r}")
    raise GraphError(f"{path}:{lineno}: expected two integers {form!r}, got {line.strip()!r}")


def _class_index(path: str, lineno: int, line: str, k: int) -> int:
    """The class index on a class-file line; GraphError names the file, the
    1-based line number and the line's text unless it is an integer in 0..k-1."""
    try:
        c = int(line)
    except ValueError:
        c = -1
    if not 0 <= c < k:
        raise GraphError(f"{path}:{lineno}: expected a class index in 0..k-1 for k={k}, "
                         f"got {line.strip()!r}")
    return c


def _read_pairs(path: str) -> tuple[int, np.ndarray]:
    """n and the (m, 2) int64 pairs of an edge-list file, in file order."""
    with open(path) as fh:
        n, m = _two_ints(path, 1, fh.readline(), "n m")
        # Flat ints, then a reshape: on 1e6 edges (2-vCPU Xeon VM) this took 1.1 s, and
        # fromiter with an (np.int64, 2) row dtype 1.4 s, both at 50 B per edge.
        ints = chain.from_iterable(_two_ints(path, i, line, "u v")
                                   for i, line in enumerate(fh, 2) if line.strip())
        pairs = np.fromiter(ints, dtype=np.int64).reshape(-1, 2)
    if len(pairs) != m:
        raise GraphError(f"{path!r}: header says {m} edges, file has {len(pairs)}")
    return n, pairs


def read_edge_list(path: str) -> Graph:
    return Graph(*_read_pairs(path))


def read_edge_partition(edge_path: str, class_path: str, k: int) -> tuple[Graph, EdgePartition]:
    """The graph of an edge-list file and its k-class edge partition: the
    i-th non-blank line of the class file holds the class of the file's
    i-th edge, whichever way round that pair is written."""
    n, pairs = _read_pairs(edge_path)
    g = Graph(n, pairs)
    with open(class_path) as fh:
        classes = np.fromiter((_class_index(class_path, i, line, k) for i, line in enumerate(fh, 1)
                               if line.strip()), dtype=np.int64)
    if len(classes) != len(pairs):
        raise GraphError(f"partition file has {len(classes)} lines, graph has {len(pairs)} edges")
    # Graph sorts the pairs by key, so the same sort aligns the classes.
    return g, EdgePartition(k, classes[np.argsort(_pair_keys(n, pairs[:, 0], pairs[:, 1]))])
