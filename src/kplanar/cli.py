"""Command-line front end: sample / spectrum / bisect / witness / certify /
experiment / fit.

Exit codes: 0 success, 1 configuration error, 2 sweep finished but some
rows carry failure flags, 3 an invariant was violated (a bug, see stderr).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .certify import certify_k_planar_lb, estimate_pair_density
from .experiment import ExperimentConfig, FitError, fit_scaling, run_experiment
from .graph import (GraphError, random_edge_partition, read_edge_list,
                    read_edge_partition, write_edge_list)
from .models import RegularModel, SampleError, SampleReport, sample_gnp, sample_regular
from .partitions import exact_bisection, local_search_bisection, witness_chain
from .seeds import derive_seed
from .spectral import SpectralError, spectral_summary


def _emit(obj, args) -> None:
    if not args.quiet:
        json.dump(obj, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")


def _cmd_sample(args) -> int:
    if args.model == "gnp":
        if args.p is None:
            raise SampleError("gnp needs --p")
        report = SampleReport(sample_gnp(args.n, args.p, args.seed), 0, 0, 0, args.seed)
    else:
        if args.d is None:
            raise SampleError(f"{args.model} needs --d")
        report = sample_regular(args.n, args.d, RegularModel(args.model), args.seed)
    if args.out:
        write_edge_list(args.out, report.graph)
    _emit(report.to_dict(), args)
    return 0


def _cmd_spectrum(args) -> int:
    _emit(spectral_summary(read_edge_list(args.infile)).to_dict(), args)
    return 0


def _cmd_bisect(args) -> int:
    g = read_edge_list(args.infile)
    if args.exact:
        res = exact_bisection(g)
    else:
        res = local_search_bisection(g, args.seed, args.restarts)
    _emit(res.to_dict(), args)
    return 0


def _cmd_witness(args) -> int:
    if args.partition == "random":
        g = read_edge_list(args.infile)
        ep = random_edge_partition(g, args.k, args.seed)
    else:
        g, ep = read_edge_partition(args.infile, args.partition, args.k)
    chain = witness_chain(
        g, ep, lambda h: local_search_bisection(h, derive_seed(args.seed, 7), args.restarts)
    )
    _emit(chain.to_dict(), args)
    return 0


def _cmd_certify(args) -> int:
    g = read_edge_list(args.infile)
    if g.regular_degree() is None:
        _emit(estimate_pair_density(g, args.k), args)
        return 0
    cert = certify_k_planar_lb(g, args.k, spectral_summary(g))
    _emit(cert.to_dict(), args)
    if not args.quiet:
        sys.stdout.write(cert.transcript() + "\n")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        model=args.model,
        n_list=tuple(args.n_list),
        d_list=tuple(args.d_list or ()),
        p_list=tuple(args.p_list or ()),
        k=args.k,
        trials=args.trials,
        master_seed=args.seed,
        with_witness=args.witness,
        with_timings=args.timings,
    )
    records = run_experiment(cfg, out_path=args.out, fmt=args.format)
    failures = sum(1 for r in records if r.failed)
    _emit({"records": len(records), "failures": failures, "out": args.out}, args)
    return 2 if failures else 0


def _cmd_fit(args) -> int:
    with open(args.infile) as fh:
        exponent, r2, excluded = fit_scaling(csv.DictReader(fh), args.x, args.y)
    _emit({"exponent": exponent, "r2": r2, "excluded": excluded}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kplanar")
    sub = parser.add_subparsers(dest="command", required=True)
    models = ["gnp"] + sorted(m.value for m in RegularModel)

    p = sub.add_parser("sample", help="draw one random graph to an edge-list file")
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="eigenvalue summary of a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bisect", help="1/3-2/3 bisection (exact or heuristic)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_bisect)

    p = sub.add_parser("witness", help="witness-chain extraction for a k-partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partition", default="random",
                   help="'random' or a file with one class index per edge line")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("certify", help="k-planar crossing lower-bound certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("experiment", help="seeded sweep over a parameter grid")
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--n-list", type=int, nargs="+", required=True)
    p.add_argument("--d-list", type=int, nargs="+")
    p.add_argument("--p-list", type=float, nargs="+")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit", help="log-log scaling fit over a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (GraphError, SampleError, SpectralError, FitError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
