"""The benchmark's workloads and the checks on their outputs.

A workload is a list of parts, each made from the benchmark seed alone.  A
part's `run()` is the timed call into the package; `outcome()` then reads
what the call produced, checks it and digests it, untimed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import kplanar.certify
import kplanar.cli
import kplanar.graph
import kplanar.models
import kplanar.partitions
import kplanar.spectral
from kplanar.certify import alpha_of, mixing_density_lb, pss_lower_bound, set_size_t
from kplanar.models import RegularModel
from kplanar.seeds import derive_seed


@dataclass
class Outcome:
    """What one part produced: a digest of its canonical output, the counts
    behind the quality metrics, and every correctness violation found."""

    digest: str
    attempted: int = 0
    failed: int = 0
    width_sum: int = 0  # over witness trials
    witness_edges: int = 0
    mu_safe: list[float] = field(default_factory=list)  # over regular-model trials
    problems: list[str] = field(default_factory=list)


def _certificate(n: int, d: int, k: int, mu_safe: float) -> dict[str, float | bool]:
    """The certificate columns recomputed from (n, d, k, mu_safe) through the
    public bound functions."""
    t, _ = set_size_t(n, k)
    alpha = t / n if t < n else alpha_of(k)
    density = mixing_density_lb(n, d, mu_safe, alpha, alpha)
    width = density / k
    sum_sq = n * d * d
    degree_term = 2.0 * math.sqrt(sum_sq)
    degenerate = density <= 0.0 or width <= degree_term
    return {
        "density_lb": density,
        "width_lb": width,
        "degree_term": degree_term,
        "crossing_lb": 0.0 if degenerate else pss_lower_bound(width, sum_sq),
        "degenerate": degenerate,
    }


def _cell(row: dict, name: str):
    v = row[name]
    if v in ("", None):
        return None
    if v in ("true", "false"):
        return v == "true"
    return float(v)


@dataclass
class Sweep:
    """One `kplanar experiment` invocation through `kplanar.cli.main`, so
    argument parsing and CSV writing are inside the timed call."""

    model: str
    n_list: tuple[int, ...]
    params: tuple[float, ...]  # --p-list for gnp, else --d-list
    k: int
    trials: int
    witness: bool
    seed: int
    out: str = ""

    def argv(self) -> list[str]:
        grid = "--p-list" if self.model == "gnp" else "--d-list"
        return (["experiment", "--model", self.model, "--n-list", *map(str, self.n_list),
                 grid, *map(str, self.params), "--k", str(self.k), "--trials", str(self.trials),
                 "--seed", str(self.seed), "--out", self.out, "--quiet"]
                + (["--witness"] if self.witness else []))

    def run(self):
        return kplanar.cli.main(self.argv())

    def outcome(self, exit_code) -> Outcome:
        with open(self.out, newline="") as fh:
            text = fh.read()
        rows = list(csv.DictReader(io.StringIO(text)))
        header = text.split("\n", 1)[0].split(",")
        # wall_time_s, present only under --timings, varies between reruns.
        keep = [i for i, c in enumerate(header) if c != "wall_time_s"]
        canon = "\n".join(",".join(line.split(",")[i] for i in keep)
                          for line in text.splitlines())
        out = Outcome(hashlib.sha256(canon.encode()).hexdigest(), attempted=len(rows))
        expected = len(self.n_list) * len(self.params) * self.trials
        if len(rows) != expected:
            out.problems.append(f"{len(rows)} rows, expected {expected}")
        if exit_code not in (0, 2):
            out.problems.append(f"cli exit code {exit_code}")
        for row in rows:
            tag = f"{row['model']} n={row['n']} trial={row['trial']}"
            if row["failed"] == "true":
                out.failed += 1
                # An invariant violation is a bug, never an ordinary failed trial.
                if row["error"].startswith("AssertionError"):
                    out.problems.append(f"{tag}: {row['error']}")
                continue
            if row["width_sum"]:
                e_ab, width_sum = int(row["e_ab"]), int(row["width_sum"])
                if e_ab > width_sum:
                    out.problems.append(f"{tag}: e_ab {e_ab} > width_sum {width_sum}")
                out.width_sum += width_sum
                out.witness_edges += int(row["edges"])
            if row["mu_safe"]:
                out.mu_safe.append(float(row["mu_safe"]))
            if row["density_lb"]:
                want = _certificate(int(row["n"]), int(row["d"]), int(row["k"]),
                                    float(row["mu_safe"]))
                got = {c: _cell(row, c) for c in want}
                if got != want:
                    out.problems.append(f"{tag}: certificate {got} != recomputed {want}")
        return out


@dataclass
class OracleInstance:
    """Library calls on one small UNIFORM_SIMPLE graph: full spectrum, a k = 2
    witness chain with the exact bisection oracle and, at n = 12, the brute
    minimum pair density.  Calls go through module attributes so that the
    traced run sees them."""

    n: int
    d: int
    seed: int

    def run(self):
        try:
            g = kplanar.models.sample_regular(self.n, self.d, RegularModel.UNIFORM_SIMPLE,
                                              self.seed).graph
            summary = kplanar.spectral.spectrum_full(g)
            ep = kplanar.graph.random_edge_partition(g, 2, derive_seed(self.seed, 1))
            chain = kplanar.partitions.witness_chain(g, ep, kplanar.partitions.exact_bisection)
            t = set_size_t(self.n, 2)[0]
            brute = kplanar.certify.brute_min_pair_density(g, t) if self.n <= 12 else None
        except Exception as exc:  # a failed instance, reported by outcome()
            return exc
        return g, ep, summary, chain, t, brute

    def outcome(self, result) -> Outcome:
        tag = f"oracle n={self.n} d={self.d} seed={self.seed}"
        if isinstance(result, Exception):
            out = Outcome(hashlib.sha256(repr(result).encode()).hexdigest(), 1, 1)
            if isinstance(result, AssertionError):
                out.problems.append(f"{tag}: {result!r}")
            return out
        g, ep, summary, chain, t, brute = result
        canon = repr((g.edges, summary.mu_safe, chain.A, chain.B, chain.e_ab,
                      chain.width_sum, brute))
        out = Outcome(hashlib.sha256(canon.encode()).hexdigest(), attempted=1,
                      width_sum=chain.width_sum, witness_edges=g.num_edges,
                      mu_safe=[summary.mu_safe])
        a, b = set(chain.A), set(chain.B)
        e_ab = sum(1 for u, v in g.edges if (u in a and v in b) or (u in b and v in a))
        if e_ab > chain.width_sum:
            out.problems.append(f"{tag}: recounted e(A,B) {e_ab} > width_sum {chain.width_sum}")
        for level in chain.levels:
            h = ep.class_subgraph(g, level.class_index)
            heuristic = kplanar.partitions.local_search_bisection(h, self.seed, restarts=4)
            if level.width > heuristic.cut:
                out.problems.append(f"{tag}: exact width {level.width} > local search "
                                    f"{heuristic.cut} on class {level.class_index}")
        if brute is not None:
            bound = mixing_density_lb(self.n, self.d, summary.mu_safe, t / self.n, t / self.n)
            if bound > brute:
                out.problems.append(f"{tag}: mixing bound {bound} > brute density {brute}")
        return out


def _sweeps(seed: int, workdir: str, count: int, **grid) -> list[Sweep]:
    return [Sweep(seed=derive_seed(seed, i), out=os.path.join(workdir, f"sweep{i}.csv"), **grid)
            for i in range(count)]


# Instances per n, for each of d = 3 and 4: 40 graphs.  One exact bisection
# at n = 18 costs about as much as five at n = 16, so n = 18 is sampled
# sparingly to keep a pass near four seconds.
ORACLE_MIX = ((12, 6), (14, 6), (16, 6), (18, 2))

# name -> (seed, workdir) -> the workload's parts.  BENCHMARK.json holds a
# one-line reason for each; the comments say more.
WORKLOADS: dict[str, Callable[[int, str], list]] = {
    # The user's typical sweep: UNIFORM_SIMPLE rejection (a Graph built per
    # rejected pairing) dominates, with the dense spectrum (n <= 400),
    # certificates and k = 2 local-search witnesses riding along.  Rejections
    # per sample are geometric, so the workload holds 600 small-n trials to
    # keep its total work within a few percent across seeds.
    "uniform_sweep": lambda seed, workdir: _sweeps(
        seed, workdir, 12, model="uniform", n_list=(50, 100), params=(4,), k=2, trials=25,
        witness=True),
    # Lanczos and adjacency memory at large n: no rejection and no partitions
    # work.  The Lanczos matvec count varies by about 10% from graph to graph,
    # so a pass solves three graphs of 5e4 vertices rather than one of 1e5.
    "spectral_large": lambda seed, workdir: _sweeps(
        seed, workdir, 3, model="perm", n_list=(50000,), params=(6,), k=2, trials=1,
        witness=False),
    # Local search on irregular skip-sampled graphs, with the k = 3 witness
    # recursion through induced_subgraph; gnp rows skip the spectrum and
    # nothing is rejected.
    "witness_gnp": lambda seed, workdir: _sweeps(
        seed, workdir, 2, model="gnp", n_list=(3000, 6000), params=(0.002,), k=3, trials=3,
        witness=True),
    # The verification path and the many-tiny-graphs regime: the only
    # workload that runs the exact oracle and the brute density, and where
    # per-call overhead of the graph layer shows.
    "oracle_small": lambda seed, workdir: [
        OracleInstance(n, d, derive_seed(seed, 100 * n + 10 * d + i))
        for n, count in ORACLE_MIX for d in (3, 4) for i in range(count)],
}
