"""Immutable undirected simple graphs and the set/cut/restriction queries
used by every other module.

Vertices are dense integers 0..n-1.  Edges are unordered pairs (u, v) with
u < v and u != v.  Graphs are immutable after construction and all
operations here are pure, so instances are safe to share between threads.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Graph",
    "GraphError",
    "Bipartition",
    "EdgePartition",
    "from_edge_list",
    "cut_size",
    "induced_subgraph",
    "random_edge_partition",
    "read_edge_list",
    "write_edge_list",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"endpoint out of range in ({u},{v}), n={n}")
            e = _norm_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self._adj: tuple[frozenset[int], ...] | None = None
        self._degrees: tuple[int, ...] | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Adjacency sets, built lazily and cached."""
        if self._adj is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbrs)
        return self._adj

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(len(s) for s in self.adj)
        return self._degrees

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if self.n == 0:
            return None
        degs = set(self.degrees)
        return degs.pop() if len(degs) == 1 else None

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        adj = self.adj
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[Graph, int]:
    """Build a simple graph, collapsing duplicate pairs.

    Returns (graph, number of collapsed duplicates).  `Graph` rejects
    self-loops and out-of-range endpoints.
    """
    edges = [_norm_edge(u, v) for u, v in pairs]
    unique = dict.fromkeys(edges)  # first-seen order, so errors name the first bad pair
    return Graph(n, unique), len(edges) - len(unique)


def cut_size(g: Graph, X: Iterable[int], Y: Iterable[int]) -> int:
    """e(X, Y): number of edges with one endpoint in X and the other in Y.

    X and Y must be disjoint.
    """
    xs, ys = set(X), set(Y)
    if xs & ys:
        raise GraphError(f"overlapping sets: {sorted(xs & ys)}")
    adj = g.adj
    return sum(len(adj[u] & ys) for u in xs)


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
    pos = {v: i for i, v in enumerate(back)}
    members = set(back)
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in members and v in members]
    return Graph(len(back), edges), back


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


@dataclass(frozen=True)
class EdgePartition:
    """Assignment of every edge of a host graph to one of k classes."""

    k: int
    class_of: dict[tuple[int, int], int] = field(hash=False)

    def __post_init__(self):
        if self.k < 1:
            raise GraphError(f"need k >= 1, got {self.k}")
        for e, c in self.class_of.items():
            if not 0 <= c < self.k:
                raise GraphError(f"class {c} of edge {e} out of range 0..{self.k - 1}")

    def validate_against(self, g: Graph) -> None:
        if set(self.class_of) != set(g.edges):
            raise GraphError("edge partition does not cover exactly the host graph's edges")

    def class_subgraph(self, g: Graph, c: int) -> Graph:
        """Subgraph of g on all n vertices keeping only class-c edges."""
        return Graph(g.n, [e for e, cls in self.class_of.items() if cls == c])


def random_edge_partition(g: Graph, k: int, seed: int) -> EdgePartition:
    """Uniform random class per edge; deterministic given seed."""
    rng = random.Random(seed)
    return EdgePartition(k, {e: rng.randrange(k) for e in g.edges})


def write_edge_list(path: str, g: Graph) -> None:
    """Write the interchange format: 'n m' header then one 'u v' per edge."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise GraphError(f"bad header in {path!r}: expected 'n m'")
        n, m = int(header[0]), int(header[1])
        pairs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            pairs.append((int(u), int(v)))
    if len(pairs) != m:
        raise GraphError(f"{path!r}: header says {m} edges, file has {len(pairs)}")
    g, dups = from_edge_list(n, pairs)
    if dups:
        raise GraphError(f"{path!r}: {dups} duplicate edges")
    return g
