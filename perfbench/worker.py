"""One benchmark process: set-up, then timed passes over one workload.

Started by run.py, never by hand.  It imports kplanar from the checkout's
`src/`, pays the numeric libraries' first-call costs, and prints
`ready <json>`.  With --setup-only it stops there.  Otherwise it runs passes
over every part of the workload until --seconds are used (at least three
passes; with --trace 1 untraced and traced passes alternate), checks and
digests every pass's output untimed, and prints one JSON line of results.
The calibration kernel (calibrate.py) runs before and after every part, and
each part's time is also reported calibrated by the kernel times around it.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
# Least share of a traced pass's wall time that the layers' self times must
# cover; the rest is the benchmark's own loop and the wrappers' calls.
ACCOUNTED_MIN = 0.98
MIN_PASSES = 3


def _setup(src: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import kplanar

    if not os.path.abspath(kplanar.__file__).startswith(src + os.sep):
        raise SystemExit(f"kplanar imported from {kplanar.__file__}, not from {src}")
    t1 = time.perf_counter()
    # First calls into LAPACK and ARPACK can stall for most of a second
    # (lazy loading); pay that here, not inside the first timed pass.  The
    # eigvalsh matrix is large enough to take the blocked divide-and-conquer
    # path that the dense spectrum of the workloads takes.
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = np.random.default_rng(0).standard_normal((128, 128))
    np.linalg.eigvalsh(m + m.T)
    spla.eigsh(sp.diags(np.arange(1.0, 41.0)).tocsr(), k=2, ncv=12, tol=1e-6)
    return {"import_s": t1 - t0, "warmup_s": time.perf_counter() - t1}


def _layer_metrics(tracer, wall: float) -> dict[str, float]:
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    layers = tracer.layer_self_s()
    samples = c["models.sample"]
    attempts = n["models.attempts"]
    spectra = c["spectral.lanczos"] + c["spectral.dense"]
    out = {
        "graph.build_s": s["graph.build"],
        "graph.build_calls": c["graph.build"],
        "graph.build_edges": n["graph.build_edges"],
        "graph.adj_s": s["graph.adj"],
        "graph.subgraph_s": s["graph.subgraph"],
        "models.sample_s": s["models.sample"],
        "models.attempts": attempts,
        "models.accept_ratio": samples / attempts if attempts else 0.0,
        "models.attempt_ms": 1e3 * tracer.total_s["models.sample"] / attempts if attempts else 0.0,
        "spectral.lanczos_s": s["spectral.lanczos"],
        "spectral.lanczos_calls": c["spectral.lanczos"],
        "spectral.residual_max": n["spectral.residual_max"],
        "spectral.dense_s": s["spectral.dense"],
        "spectral.dense_calls": c["spectral.dense"],
        "certify.chain_s": s["certify.chain"],
        "certify.calls": c["certify.chain"],
        # Share of spectra that went on to a certificate (regular draws only).
        "certify.certified_frac": c["certify.chain"] / spectra if spectra else 0.0,
        "certify.brute_s": s["certify.brute"],
        "partitions.local_search_s": s["partitions.local_search"],
        "partitions.local_search_calls": c["partitions.local_search"],
        "partitions.cut_per_edge": (n["partitions.cut"] / n["partitions.bisected_edges"]
                                    if n["partitions.bisected_edges"] else 0.0),
        "partitions.exact_s": s["partitions.exact"],
        "partitions.exact_calls": c["partitions.exact"],
        "partitions.witness_self_s": s["partitions.witness"],
    }
    out.update({f"{layer}.self_s": v for layer, v in layers.items()})
    out["trace.accounted_frac"] = sum(layers.values()) / wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = _setup(os.path.abspath(args.src))
    print("ready " + json.dumps(setup), flush=True)
    if args.setup_only:
        return 0

    from calibrate import calibrated, kernel_s
    from spans import Tracer
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        parts = WORKLOADS[args.workload](args.seed, workdir)
        # times[traced][part] -> (measured, calibrated) seconds, one per pass
        times = {False: [[] for _ in parts], True: [[] for _ in parts]}
        kernel = []
        cpu = []
        layer_runs = []
        digests: list[str] | None = None
        problems: list[str] = []
        attempted = failed = 0
        outcomes = None
        start = time.perf_counter()
        last = 0.0
        npass = 0
        while npass < MIN_PASSES or time.perf_counter() - start + last <= args.seconds:
            traced = bool(args.trace) and npass % 2 == 1
            tracer = Tracer() if traced else None
            results = []
            pass_start = time.perf_counter()
            cpu_s = 0.0
            before = kernel_s()
            with tracer.installed() if traced else nullcontext():
                for i, part in enumerate(parts):
                    t, c = time.perf_counter(), time.process_time()
                    results.append(part.run())
                    dt = time.perf_counter() - t
                    cpu_s += time.process_time() - c
                    # The machine's speed while the part ran: the kernel before and after it.
                    after = kernel_s()
                    times[traced][i].append((dt, calibrated(dt, (before + after) / 2)))
                    kernel.append(after)
                    before = after
            if not traced:
                cpu.append(cpu_s)
            else:
                layer_runs.append(_layer_metrics(tracer, sum(ts[-1][0] for ts in times[True])))
                # The module self times must cover the traced wall: a gap
                # means time spent outside every span, an excess double counting.
                frac = layer_runs[-1]["trace.accounted_frac"]
                if not ACCOUNTED_MIN <= frac <= 1.0 + 1e-9:
                    problems.append(f"pass {npass}: layer self times cover {frac:.4f} "
                                    f"of the traced wall")
            last = time.perf_counter() - pass_start
            # Untimed from here: read, check and digest this pass's outputs.
            outcomes = [part.outcome(r) for part, r in zip(parts, results)]
            pass_digests = [o.digest for o in outcomes]
            if digests is None:
                digests = pass_digests
            elif pass_digests != digests:
                changed = [i for i, (a, b) in enumerate(zip(digests, pass_digests)) if a != b]
                problems.append(f"pass {npass} ({'traced' if traced else 'untraced'}): "
                                f"output digest differs from pass 0 in parts {changed}")
            for o in outcomes:
                problems.extend(o.problems)
                attempted += o.attempted
                failed += o.failed
            npass += 1

    width_sum = sum(o.width_sum for o in outcomes)
    witness_edges = sum(o.witness_edges for o in outcomes)
    mu_safe = [m for o in outcomes for m in o.mu_safe]

    def wall(traced, calibrated_time=False):
        # Per part, the median over passes, so one disturbed pass does not move it.
        return sum(statistics.median(t[calibrated_time] for t in ts) for ts in times[traced])

    result = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "passes": npass,
        "wall_s": wall(False, calibrated_time=True),
        "measured_wall_s": wall(False),
        "kernel_ms": 1e3 * statistics.median(kernel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "width_per_edge": width_sum / witness_edges if witness_edges else None,
        "mu_safe_mean": statistics.fmean(mu_safe) if mu_safe else None,
        "cpu_s": statistics.median(cpu),
    }
    if args.trace:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace.wall_s"] = wall(True)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["measured_wall_s"]
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
