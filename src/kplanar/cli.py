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
        if args.p is None or args.d is not None:
            raise SampleError("gnp takes --p and no --d")
        report = SampleReport(sample_gnp(args.n, args.p, args.seed), 0, 0, 0, args.seed)
    else:
        if args.d is None or args.p is not None:
            raise SampleError(f"{args.model} takes --d and no --p")
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


def seed(text: str) -> int:
    """`--seed`'s type, a non-negative integer; argparse names it in `invalid seed value`."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# Every flag that more than one subcommand takes, declared once.
SHARED_FLAGS = {
    "--in": dict(dest="infile", required=True),
    "--k": dict(type=int, required=True),
    "--model": dict(choices=["gnp"] + sorted(m.value for m in RegularModel), required=True),
    "--out": dict(default=None),
    "--restarts": dict(type=int, default=8),
    "--seed": dict(type=seed, default=0),
    "--quiet": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kplanar")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in (*shared, "--quiet"):
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("sample", _cmd_sample, "draw one random graph to an edge-list file",
                "--model", "--seed", "--out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=int)

    command("spectrum", _cmd_spectrum, "eigenvalue summary of a graph file", "--in")

    p = command("bisect", _cmd_bisect, "1/3-2/3 bisection (exact or heuristic)",
                "--in", "--restarts", "--seed")
    p.add_argument("--exact", action="store_true")

    p = command("witness", _cmd_witness, "witness-chain extraction for a k-partition",
                "--in", "--k", "--restarts", "--seed")
    p.add_argument("--partition", default="random",
                   help="'random' or a file with one class index per edge line")

    command("certify", _cmd_certify, "k-planar crossing lower-bound certificate", "--in", "--k")

    p = command("experiment", _cmd_experiment, "seeded sweep over a parameter grid",
                "--model", "--seed", "--out")
    p.add_argument("--n-list", type=int, nargs="+", required=True)
    p.add_argument("--d-list", type=int, nargs="+")
    p.add_argument("--p-list", type=float, nargs="+")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("fit", _cmd_fit, "log-log scaling fit over a sweep CSV", "--in")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
