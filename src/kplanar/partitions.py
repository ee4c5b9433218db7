"""Constructive partition machinery: four-cell pigeonhole splits, exact and
heuristic 1/3-2/3 bisection, and the recursive witness-chain extraction.

The witness chain is theorem-grade: for any host graph, any k-class edge
partition and any balance-respecting bisection oracle, the final pair
(A, B) satisfies e(A, B) <= sum of the level widths.  A violation is an
implementation bug, never noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import EdgePartition, Graph, GraphError, _frozen, _neighbours, cut_size

__all__ = [
    "BisectionResult",
    "WitnessLevel",
    "WitnessChain",
    "lemma1_split",
    "exact_bisection",
    "local_search_bisection",
    "witness_chain",
    "witness_floor",
    "witness_set_size",
]

EXACT_CAP = 22


@dataclass(frozen=True, eq=False)
class BisectionResult:
    """A bisection of a graph's vertices 0..n-1: `side[v]` is True when v lies in
    block2, and `side` is a read-only bool array."""

    side: np.ndarray
    cut: int
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "side", _frozen(np.array(self.side, dtype=bool)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BisectionResult) and np.array_equal(self.side, other.side)
                and (self.cut, self.exact) == (other.cut, other.exact))

    def to_dict(self) -> dict:
        return {
            "block1": np.flatnonzero(~self.side).tolist(),
            "block2": np.flatnonzero(self.side).tolist(),
            "cut": self.cut,
            "exact": self.exact,
        }


def _min_side(n: int) -> int:
    """The balance rule: each block of a bisection of n vertices holds at least ceil(n/3)."""
    return math.ceil(n / 3)


def _balanced(side: np.ndarray) -> bool:
    lo = _min_side(len(side))
    return lo <= np.count_nonzero(side) <= len(side) - lo


def lemma1_split(side1: np.ndarray, side2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two position sets of size >= ceil(m/6) lying on different sides of both
    bisections of one m-element ground set, given as bool side arrays (True is
    block2).

    Of the two diagonal cell pairs of the 2x2 intersection table, at least
    one has both cells of size >= m/6; that pair is returned as ascending
    position arrays, preferring the (block1 & block1, block2 & block2)
    diagonal on ties.  The first array always lies in side1's block1.
    """
    m = len(side1)
    if len(side2) != m:
        raise GraphError("bisections cover different ground sets")
    if not _balanced(side1) or not _balanced(side2):
        raise GraphError("both bisections must have blocks of size >= m/3")
    thresh = math.ceil(m / 6)
    same = side1 == side2
    y1, y2 = np.flatnonzero(same & ~side1), np.flatnonzero(same & side1)
    if len(y1) < thresh or len(y2) < thresh:
        y1, y2 = np.flatnonzero(~same & ~side1), np.flatnonzero(~same & side1)
    if len(y1) < thresh or len(y2) < thresh:
        raise AssertionError(
            f"pigeonhole split failed: cells of sizes {len(y1)}, {len(y2)} < {thresh}"
        )
    return y1, y2


def exact_bisection(g: Graph) -> BisectionResult:
    """Exhaustive 1/3-2/3 bisection width b(G), for n <= EXACT_CAP.

    Scores every block containing vertex 0 at once in numpy, so each
    bipartition is counted exactly once: a block is a uint32 mask with
    bit n - 1 - v for vertex v, and its cut is the sum, over member vertices v, of
    popcount(adj_mask[v] & complement).  Of the blocks with size between
    ceil(n/3) and n - ceil(n/3), the one returned is the first minimum in
    the order (size, then `combinations(range(1, n), size - 1)`): of the
    blocks of least cut, the smallest, and of those the lexicographically
    first as a sorted vertex tuple.
    """
    n = g.n
    if n > EXACT_CAP:
        raise GraphError(f"n={n} exceeds exact bisection cap {EXACT_CAP}")
    if n < 2:
        raise GraphError("bisection needs at least 2 vertices")
    lo = _min_side(n)
    adj_mask = [0] * n
    for u, v in g.edges.tolist():
        adj_mask[u] |= 1 << (n - 1 - v)
        adj_mask[v] |= 1 << (n - 1 - u)
    one = np.uint32(1)
    masks = np.arange(1 << (n - 1), dtype=np.uint32) | np.uint32(1 << (n - 1))
    sizes = np.bitwise_count(masks)
    masks = masks[(sizes >= lo) & (sizes <= n - lo)]
    comp = masks ^ np.uint32((1 << n) - 1)
    cut = np.zeros(len(masks), dtype=np.uint8)  # a cut is at most (EXACT_CAP/2)^2 = 121
    for v in range(n):
        if adj_mask[v]:
            member = -((masks >> np.uint32(n - 1 - v)) & one)  # all ones where v is in the block
            cut += np.bitwise_count(comp & member & np.uint32(adj_mask[v]))
    width = int(cut.min())
    best = masks[cut == width]
    best_sizes = np.bitwise_count(best)
    best = best[best_sizes == best_sizes.min()]
    # Of two blocks of one size, the earlier in combination order holds their
    # lowest differing vertex, which has the higher bit, so its mask is larger.
    best_mask = best.max()
    in_block = (best_mask >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & one
    return BisectionResult(in_block == 0, width, True)


def _cut_and_gains(g: Graph, side: np.ndarray) -> tuple[int, list[int]]:
    """The cut e(side, not side) of a bool array `side` and each vertex's
    gain: its neighbours across the cut minus its neighbours on its own side."""
    crossing = g.edges[side[g.edges[:, 0]] != side[g.edges[:, 1]]]
    across = np.bincount(crossing.ravel(), minlength=g.n)
    return len(crossing), (2 * across - g.degrees).tolist()


def _move(v: int, side: list[bool], gain: list[int], csr: tuple[list[int], list[int]]) -> None:
    """Move v across the cut: gain[v] flips sign, and each neighbour's gain
    rises by 2 if v left its side and falls by 2 if v joined it."""
    ptr, idx = csr
    s = side[v]
    side[v] = not s
    gain[v] = -gain[v]
    for w in idx[ptr[v]:ptr[v + 1]]:
        gain[w] += 2 if side[w] == s else -2


def _improve_pass(side: list[bool], gain: list[int], csr: tuple[list[int], list[int]],
                  sizes: list[int], order: list[int], lo: int) -> int:
    """One first-improvement sweep of single-vertex moves; returns the total gain."""
    total = 0
    for v in order:
        s = side[v]
        if gain[v] > 0 and sizes[s] - 1 >= lo:
            total += gain[v]
            sizes[s] -= 1
            sizes[not s] += 1
            _move(v, side, gain, csr)
    return total


def _improving_swap(side: list[bool], gain: list[int], csr: tuple[list[int], list[int]],
                    order: list[int]) -> int:
    """First improving swap of a gaining side-True u (no other u is tried) with a
    side-False v, in visiting order, or 0; skips u if gain[u] + max side-False gain <= 0."""
    ptr, idx = csr
    zeros = [v for v in order if not side[v]]
    top = max(gain[v] for v in zeros)
    for u in order:
        gu = gain[u]
        if not side[u] or gu <= 0 or gu + top <= 0:
            continue
        nbrs = set(idx[ptr[u]:ptr[u + 1]])
        for v in zeros:
            delta = gu + gain[v] - (2 if v in nbrs else 0)
            if delta > 0:
                _move(u, side, gain, csr)
                _move(v, side, gain, csr)
                return delta
    return 0


def local_search_bisection(g: Graph, seed: int, restarts: int = 8) -> BisectionResult:
    """Balance-constrained move/swap local search; upper bound on b(G).

    Best of `restarts` runs that draw, in restart order, from one numpy
    Generator `np.random.default_rng(seed)`: each run takes `rng.permutation(n)`
    for its starting half (the first n // 2 go on side True), then a second
    `rng.permutation(n)` for its visiting order.  So the result is
    deterministic given (g, seed, restarts), and the first r runs are the
    same for every restarts >= r; ties go to the lowest restart index.  Each
    run keeps gain[v] = (neighbours of v across the cut) - (neighbours on
    v's own side), so moving v lowers the cut by gain[v]; the gains are
    counted once from the edges, then kept exact by `_move` over v's CSR
    slice, and the reported cut is the starting cut minus the gains taken.
    """
    n = g.n
    if n < 3:
        raise GraphError("local search needs n >= 3")
    if restarts < 1:
        raise GraphError(f"local search needs restarts >= 1, got {restarts}")
    lo = _min_side(n)
    csr = tuple(a.tolist() for a in _neighbours(g))
    rng = np.random.default_rng(seed)
    best: tuple[int, list[bool]] | None = None
    for _ in range(restarts):
        start = np.zeros(n, dtype=bool)
        start[rng.permutation(n)[: n // 2]] = True
        order = rng.permutation(n).tolist()
        sizes = [n - n // 2, n // 2]
        cut, gain = _cut_and_gains(g, start)
        side = start.tolist()
        # Every move or swap taken lowers the cut by at least 1, so the loop ends
        # after at most `cut` (<= m) of them and needs no move budget.
        while True:
            taken = _improve_pass(side, gain, csr, sizes, order, lo)
            if taken == 0:  # every move gains >= 1, so the pass moved nothing
                taken = _improving_swap(side, gain, csr, order)
                if taken == 0:
                    break
            cut -= taken
        if best is None or cut < best[0]:
            best = (cut, side)
    cut, side = best
    return BisectionResult(side, cut, False)


BisectOracle = Callable[[Graph], BisectionResult]


@dataclass(frozen=True, eq=False)
class WitnessLevel:
    """One bisected class subgraph in the recursion."""

    class_index: int
    ground: np.ndarray  # the ascending original vertex ids the class graph lives on
    side: np.ndarray  # its bisection: side[i] is True when ground[i] lies in block2
    width: int


@dataclass(frozen=True, eq=False)
class WitnessChain:
    """The levels in class order, the last ground set Y_k and e(A, B).  Level 0's side
    covers all of V, so it is indexed by vertex id: A and B are Y_k's parts on its sides."""

    levels: tuple[WitnessLevel, ...]
    ground: np.ndarray  # Y_k, ascending
    e_ab: int

    @property
    def width_sum(self) -> int:
        return sum(lv.width for lv in self.levels)

    @property
    def A(self) -> tuple[int, ...]:
        return tuple(self.ground[~self.levels[0].side[self.ground]].tolist())

    @property
    def B(self) -> tuple[int, ...]:
        return tuple(self.ground[self.levels[0].side[self.ground]].tolist())

    def to_dict(self) -> dict:
        # Level i >= 2 lives on Y_i.  Level i >= 1 splits its ground against level 0's
        # side and trims the split's cells to the halves of Y_{i+1}.
        side0 = self.levels[0].side
        y_sets = [lv.ground.tolist() for lv in self.levels[2:]] + [self.ground.tolist()]
        pretrim = [None] + [[len(y) for y in lemma1_split(side0[lv.ground], lv.side)]
                            for lv in self.levels[1:]]
        posttrim = [None] + [[len(y) // 2] * 2 for y in y_sets]
        return {
            "levels": [
                {
                    "class": lv.class_index,
                    "ground_size": len(lv.ground),
                    "block1": lv.ground[~lv.side].tolist(),
                    "block2": lv.ground[lv.side].tolist(),
                    "width": lv.width,
                    "pretrim_sizes": pre,
                    "posttrim_sizes": post,
                }
                for lv, pre, post in zip(self.levels, pretrim, posttrim)
            ],
            "y_sets": y_sets,
            "A": list(self.A),
            "B": list(self.B),
            "e_ab": self.e_ab,
            "width_sum": self.width_sum,
        }


def _trim_equal(y1: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Drop lowest-id elements from the larger set: deterministic equal sizing.
    t = min(len(y1), len(y2))
    return y1[len(y1) - t:], y2[len(y2) - t:]


def _bisect_class(g: Graph, ep: EdgePartition, cls: int, ground: np.ndarray,
                  bisect: BisectOracle) -> tuple[np.ndarray, int]:
    """Bisect the class-`cls` subgraph restricted to `ground`, an ascending
    vertex array (so subgraph vertex i is ground[i]); returns the oracle's
    side array over the positions of `ground`, and its width."""
    sub = ep.class_subgraph(g, cls, ground)
    res = bisect(sub)
    if len(res.side) != sub.n:
        raise GraphError(f"bisection oracle returned {len(res.side)} sides for the "
                         f"{sub.n} vertices of class {cls}")
    if not _balanced(res.side):
        raise GraphError(f"bisection oracle violated balance on class {cls}")
    cut = np.count_nonzero(res.side[sub.edges[:, 0]] != res.side[sub.edges[:, 1]])
    if res.cut != cut:
        raise GraphError(f"bisection oracle reported cut {res.cut} on class {cls}, "
                         f"but its sides cut {cut} edges")
    return res.side, res.cut


def witness_floor(k: int) -> int:
    """6*3^(k-2): on fewer vertices a k-class witness chain's sets hold under one vertex."""
    if k < 2:
        raise GraphError(f"need k >= 2 classes, got k={k}")
    return 6 * 3 ** (k - 2)


def witness_set_size(n: int, k: int) -> int:
    """ceil(n / witness_floor(k)), and at least 1: the size that each set of a
    k-class witness chain on n vertices reaches, and the certificate's set size t."""
    return max(1, -(-n // witness_floor(k)))


def witness_chain(g: Graph, ep: EdgePartition, bisect: BisectOracle) -> WitnessChain:
    """Recursive extraction of a set pair separated by every level's bisection.

    Bisect the class-0 subgraph on all of V = Y_1.  Then for each further
    class i, bisect its subgraph restricted to Y_i, split that against level
    0's bisection restricted to Y_i, and trim to equal halves (A_{i+1},
    B_{i+1}), with Y_{i+1} = A_{i+1} + B_{i+1}.  Every original edge between
    the final A and B crosses the bisection at its own class's level, so
    e(A, B) <= sum of widths for any valid oracle.  Each split keeps at least
    a sixth of its ground set on each side, and both sides are the next
    ground set, so |A| = |B| >= witness_set_size(n, k).  Both inequalities
    are checked.
    """
    k = ep.k
    if g.n < witness_floor(k):
        raise GraphError(f"need n >= 6*3^(k-2) = {witness_floor(k)}, got n={g.n}")

    ground = _frozen(np.arange(g.n))
    side0, w = _bisect_class(g, ep, 0, ground, bisect)
    levels = [WitnessLevel(0, ground, side0, w)]
    for cls in range(1, k):
        side, w = _bisect_class(g, ep, cls, ground, bisect)
        a, b = _trim_equal(*lemma1_split(side0[ground], side))
        levels.append(WitnessLevel(cls, ground, side, w))
        ground = _frozen(ground[np.union1d(a, b)])

    # The last ground is a + b, with a in level 0's block1 and b in its block2.
    in2 = side0[ground]
    A, B = ground[~in2].tolist(), ground[in2].tolist()
    size = witness_set_size(g.n, k)
    if not len(A) == len(B) >= size:
        raise AssertionError(f"witness sets of sizes {len(A)}, {len(B)}; need equal sizes "
                             f">= ceil(n/{witness_floor(k)}) = {size}")
    chain = WitnessChain(tuple(levels), ground, cut_size(g, A, B))
    if chain.e_ab > chain.width_sum:
        raise AssertionError(
            f"witness-chain inequality violated: e(A,B)={chain.e_ab} > {chain.width_sum}"
        )
    return chain
