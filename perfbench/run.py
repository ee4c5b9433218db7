"""Benchmark of the kplanar pipeline: sample -> spectrum -> certify -> witness.

Run from the root of a checkout (the package is imported from its `src/`):

    python3 perfbench/run.py --workload uniform_sweep --seed 42 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in a worker process of its own (worker.py).  Set-up time
is measured from the parent, from starting a worker to its `ready` line, on
SETUP_RUNS workers, and reported as the median.  Times are calibrated to the
machine's reference speed (calibrate.py); the measured ones are printed
beside them.  The untraced run (--trace 0) prints the end-to-end metrics;
the traced run (--trace 1) prints per-layer self times and counts instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A failed correctness
or determinism check makes `correct` false and the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

# One BLAS thread (at most nproc) here and in every worker: the package's
# numeric work is single threaded apart from LAPACK, and a fixed count keeps
# times steady on a shared machine.  Set before NumPy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from calibrate import REFERENCE_S, calibrated, kernel_s, reading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # per workload, from its first worker's start

# Workload and metric names and units come from the benchmark's definition.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
WORKLOAD_NAMES = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _worker(args: list[str], deadline: float):
    """Start a worker; return the seconds until its `ready` line, the set-up
    times it reports there, and the process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return setup_s, json.loads(line[6:]), proc


def _finish(proc, deadline: float) -> str:
    """Wait for a worker and return the rest of its output.  It writes one
    short line after `ready`, well within a pipe's buffer, so waiting before
    reading cannot block it."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker overran the {DEADLINE_S:.0f} s deadline") from None
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(src: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    kernel_s()  # the parent's own first call is slower
    setup_s, setup_parts, kernel = [], [], []
    for i in range(SETUP_RUNS):
        kernel.extend(reading())
        args = (["--setup-only"] if i < SETUP_RUNS - 1 else
                ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)])
        s, parts, proc = _worker(["--src", src, *args], deadline)
        setup_s.append(s)
        setup_parts.append(parts)
        if i < SETUP_RUNS - 1:
            _finish(proc, deadline)
    out = _finish(proc, deadline)
    if not out.strip():
        raise BenchError(f"{name}: worker printed no result")
    res = json.loads(out.strip().splitlines()[-1])
    res["measured_setup_s"] = statistics.median(setup_s)
    res["setup_s"] = calibrated(res["measured_setup_s"], statistics.median(kernel))
    res["setup.import_s"] = statistics.median(p["import_s"] for p in setup_parts)
    res["setup.warmup_s"] = statistics.median(p["warmup_s"] for p in setup_parts)
    return res


def metrics_of(res: dict, trace: int) -> dict[str, float]:
    """Exactly the end-to-end metrics, or with --trace 1 the per-layer ones."""
    if not trace:
        return {k: res[k] for k in END_TO_END}
    found = dict(res["layers"])
    # Quality of the outputs, 0 where the workload has no such trials.
    found["partitions.width_per_edge"] = res["width_per_edge"] or 0.0
    found["spectral.mu_safe_mean"] = res["mu_safe_mean"] or 0.0
    found["setup.import_s"] = res["setup.import_s"]
    found["setup.warmup_s"] = res["setup.warmup_s"]
    found["process.cpu_s"] = res["cpu_s"]
    found["process.measured_wall_s"] = res["measured_wall_s"]
    found["process.kernel_ms"] = res["kernel_ms"]
    return {k: found[k] for k in PER_LAYER}


def report(name: str, seed: int, res: dict, trace: int) -> None:
    print(f"workload {name}  seed {seed}  passes {res['passes']}  trace {trace}")
    if trace:
        for k, v in metrics_of(res, trace).items():
            print(f"  {k:<30} {v:>14.6g} {PER_LAYER[k]}")
    else:
        for k, unit in END_TO_END.items():
            measured = res.get("measured_" + k)
            note = "" if measured is None else f"  (measured {measured:.6g} {unit})"
            print(f"  {k:<16} {res[k]:>12.6g} {unit}{note}")
        print(f"  {'failed_frac':<16} {res['failed'] / res['attempted']:>12.6g} ratio"
              f"  ({res['failed']} of {res['attempted']} attempted)")
        for k in ("width_per_edge", "mu_safe_mean"):
            v = res[k]
            print(f"  {k:<16} {'n/a' if v is None else format(v, '12.6g'):>12} "
                  f"{'ratio' if k == 'width_per_edge' else '1'}")
    print(f"  calibration kernel {res['kernel_ms']:.4g} ms, reference "
          f"{1e3 * REFERENCE_S:.4g} ms")
    print(f"  correct: {str(res['correct']).lower()}")
    for p in res["problems"]:
        print(f"    {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "kplanar", "__init__.py")):
        print(f"error: no kplanar package under {src}: run from a checkout's root",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print("machine " + json.dumps(machine_info()))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            res = run_workload(src, name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(name, args.seed, res, args.trace)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        units = PER_LAYER if args.trace else END_TO_END
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in metrics_of(res, args.trace).items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
