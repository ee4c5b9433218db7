"""Per-layer self times for the traced run, recorded from outside the package.

`Tracer.installed()` replaces, for the duration of a `with` block, the public
entry points that `kplanar.cli`, `kplanar.experiment` and `kplanar.partitions`
call through their module namespaces, plus `Graph.__init__` and the lazy
`Graph.adj` build, with wrappers that time each call as a span.  A span's
self time is its duration minus the durations of the spans it encloses, so
the self times of all spans add up to the duration of the outermost ones.
Nothing in the package is edited; leaving the block restores every original
attribute.  A target the package no longer has is skipped, and its metrics
read 0.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import kplanar.certify
import kplanar.cli
import kplanar.experiment
import kplanar.graph
import kplanar.models
import kplanar.partitions
import kplanar.spectral

# The package's modules; `seeds` is too cheap to time and folds into `experiment`.
LAYERS = ("graph", "models", "spectral", "certify", "partitions", "experiment", "cli")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # time spent in children, per open span

    def _wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(result, *args)` runs after the
        span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self.self_s[name] += dur - self._open.pop()
                self.total_s[name] += dur
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += dur
            if count is not None:
                count(result, *args)
            return result

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out

    def _count_build(self, _none, g, *args):
        self.counts["graph.build_edges"] += g.num_edges

    def _count_sample(self, report, *args):
        # sample_gnp returns a bare Graph: one draw, nothing rejected.
        self.counts["models.attempts"] += 1 + getattr(report, "rejected_attempts", 0)

    def _count_lanczos(self, summary, *args):
        self.counts["spectral.residual_max"] = max(
            self.counts["spectral.residual_max"], summary.residual)

    def _count_local_search(self, result, g, *args):
        self.counts["partitions.cut"] += result.cut
        self.counts["partitions.bisected_edges"] += g.num_edges

    def _targets(self):
        graph, exp, part = kplanar.graph, kplanar.experiment, kplanar.partitions
        # (owner, attribute, span, counter).  experiment.py binds the library
        # functions into its own namespace, so they are replaced there; the
        # oracle workload calls them through their home modules.
        return [
            (graph.Graph, "__init__", "graph.build", self._count_build),
            (graph.EdgePartition, "class_subgraph", "graph.subgraph", None),
            (part, "induced_subgraph", "graph.subgraph", None),
            (part, "cut_size", "graph.cut", None),
            (exp, "random_edge_partition", "graph.edge_partition", None),
            (graph, "random_edge_partition", "graph.edge_partition", None),
            (exp, "sample_regular", "models.sample", self._count_sample),
            (kplanar.models, "sample_regular", "models.sample", self._count_sample),
            (exp, "sample_gnp", "models.sample", self._count_sample),
            (exp, "max_degree_ok", "models.degree_check", None),
            (exp, "mu_bound", "spectral.lanczos", self._count_lanczos),
            (exp, "spectrum_full", "spectral.dense", None),
            (kplanar.spectral, "spectrum_full", "spectral.dense", None),
            (exp, "friedman_check", "spectral.friedman", None),
            (exp, "certify_k_planar_lb", "certify.chain", None),
            (kplanar.certify, "brute_min_pair_density", "certify.brute", None),
            (exp, "local_search_bisection", "partitions.local_search", self._count_local_search),
            (part, "exact_bisection", "partitions.exact", None),
            (exp, "witness_chain", "partitions.witness", None),
            (part, "witness_chain", "partitions.witness", None),
            (kplanar.cli, "run_experiment", "experiment.run", None),
            (kplanar.cli, "main", "cli.main", None),
        ]

    @contextmanager
    def installed(self):
        graph_cls = kplanar.graph.Graph
        patches = [(owner, attr, self._wrap(span, vars(owner)[attr], count))
                   for owner, attr, span, count in self._targets() if attr in vars(owner)]
        if isinstance(vars(graph_cls).get("adj"), property):
            timed_build = self._wrap("graph.adj", graph_cls.adj.fget)

            def adj(g):
                # Only the first access builds the sets; later ones read the cache.
                cached = getattr(g, "_adj", None)
                return timed_build(g) if cached is None else cached

            patches.append((graph_cls, "adj", property(adj)))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)
