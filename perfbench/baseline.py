"""Re-measure the baseline: medians of every metric over several seeds.

    python3 perfbench/baseline.py --seeds 1 2 3 --out perfbench/results.json

Runs `run.py --workload all` once untraced and once traced per seed, from
the root of a checkout, and writes the per-workload medians of the
end-to-end and per-layer metrics together with the machine they were
measured on.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--out", default=os.path.join(HERE, "results.json"))
    args = ap.parse_args(argv)

    samples: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    machine = None
    for seed in args.seeds:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            machine = json.loads(lines[0].removeprefix("machine "))
            for key, m in json.loads(lines[-1])["metrics"].items():
                workload, metric = key.split(".", 1)
                kind = "per_layer" if trace else "end_to_end"
                samples.setdefault(f"{workload}/{kind}", {}).setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
    workloads: dict[str, dict] = {}
    for key, metrics in samples.items():
        workload, kind = key.split("/")
        workloads.setdefault(workload, {})[kind] = {
            m: {"median": statistics.median(v), "unit": units[m]} for m, v in sorted(metrics.items())}
    with open(args.out, "w") as fh:
        json.dump({"machine": machine, "seeds": args.seeds, "seconds": args.seconds,
                   "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
