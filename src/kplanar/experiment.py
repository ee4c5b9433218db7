"""Seeded experiment sweeps over (model, n, d or p, k) with CSV/JSON
emission and scaling-exponent fits.

Rows are emitted in canonical order (grid order, then trial index) and
every float is serialized with 17 significant digits, so a repeated run
with the same master seed produces byte-identical output, whether its
trials ran in this process or in forked workers.  Per-trial
failures become flagged rows; they never abort a sweep.  An invariant
violation (AssertionError) is a bug, not a failed trial, and does abort it.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import closing
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .certify import certify_k_planar_lb
from .graph import EdgePartition, Graph, random_edge_partition
from .models import check_params, max_degree_ok, sample
from .partitions import WitnessChain, local_search_bisection, witness_chain, witness_floor
from .seeds import derive_seed
from .spectral import friedman_check, spectral_summary

__all__ = ["ExperimentConfig", "TrialRecord", "run_experiment", "seeded_witness",
           "write_records", "fit_scaling", "summarize_frequencies", "FitError"]

WITNESS_RESTARTS = 4  # local-search restarts per witness level in a sweep row

# Peak memory of one sweep trial per expected edge; local search, the witness's
# stage, is the largest.  A trial with a k = 2 witness grew max-RSS by 89-98 B per
# edge over a warmed-up process on G(6000, 0.0167), G(20000, 0.003) and
# PERMUTATION n = 6000, d = 100 and n = 2e4 and 4e4, d = 30 (3e5-6e5 edges; one
# BLAS thread, 2-vCPU Xeon VM).
TRIAL_BYTES_PER_EDGE = 100


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    model: str  # a models.MODELS tag
    n_list: tuple[int, ...]
    d_list: tuple[int, ...] = ()
    p_list: tuple[float, ...] = ()
    k: int = 2
    trials: int = 1
    master_seed: int = 0
    with_witness: bool = False
    with_timings: bool = False

    def __post_init__(self):
        if not self.n_list:
            raise ValueError("empty n grid")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        floor = witness_floor(self.k)
        for n, d, p in self._grid() or [(self.n_list[0], None, None)]:
            check_params(self.model, n, d, p)
        if self.with_witness and min(self.n_list) < floor:
            raise ValueError(f"--witness at k={self.k} needs n >= {floor}, got n={min(self.n_list)}")

    def _grid(self) -> list[tuple]:
        """(n, d, p) per cell as given, n-major: d is None on G(n, p) and p on the
        regular models.  One of the two lists is empty, so one of the two terms is too."""
        return [(n, d, None) for n in self.n_list for d in self.d_list] + [
            (n, None, p) for n in self.n_list for p in self.p_list]

    @property
    def cells(self) -> list[tuple[int, int | None, float | None]]:
        """`_grid()` as Python numbers, so numpy grid values write as JSON.  The
        casts lose nothing: `__post_init__` refused every non-integer n and d."""
        return [(int(n), None if d is None else int(d), None if p is None else float(p))
                for n, d, p in self._grid()]


@dataclass
class TrialRecord:
    model: str
    n: int
    d: int | None
    p: float | None
    k: int
    trial: int
    seed: int
    edges: int | None = None
    max_degree: int | None = None
    max_degree_ok: bool | None = None
    mu_safe: float | None = None
    friedman_ok: bool | None = None
    density_lb: float | None = None
    width_lb: float | None = None
    degree_term: float | None = None
    crossing_lb: float | None = None
    degenerate: bool | None = None
    e_ab: int | None = None
    width_sum: int | None = None
    failed: bool = False
    error: str = ""
    wall_time_s: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


# The canonical columns, in field order; wall time is opt-in (see write_records).
CSV_FIELDS = [f.name for f in fields(TrialRecord) if f.name != "wall_time_s"]


def seeded_witness(g: Graph, k: int, seed: int, restarts: int = WITNESS_RESTARTS,
                   ep: EdgePartition | None = None) -> WitnessChain:
    """A sweep row's witness chain, which `kplanar witness` re-derives: `ep`, or the
    random k-class edge partition drawn from derive_seed(seed, 1), bisected at
    every level by local search seeded with derive_seed(seed, 2)."""
    if ep is None:
        ep = random_edge_partition(g, k, derive_seed(seed, 1))
    elif ep.k != k:
        raise ValueError(f"edge partition has k={ep.k} classes, the witness asks for k={k}")
    return witness_chain(g, ep, lambda h: local_search_bisection(h, derive_seed(seed, 2), restarts))


def _run_trial(cfg: ExperimentConfig, n: int, d: int | None, p: float | None, trial: int,
               seed: int) -> TrialRecord:
    rec = TrialRecord(model=cfg.model, n=n, d=d, p=p, k=cfg.k, trial=trial, seed=seed)
    t0 = time.perf_counter()
    try:
        g = sample(cfg.model, n, d, p, seed).graph
        rec.edges = g.num_edges
        rec.max_degree = g.max_degree
        if p is not None:
            rec.max_degree_ok = max_degree_ok(g, p)
        else:
            summary = spectral_summary(g)
            rec.mu_safe = summary.mu_safe
            if g.regular_degree() == d:
                if d:  # at d = 0 the Friedman bound 2 sqrt(d-1) is undefined: left blank
                    rec.friedman_ok = friedman_check(g, d, summary)
                cert = certify_k_planar_lb(g, cfg.k, summary)
                rec.density_lb = cert.density_lb
                rec.width_lb = cert.width_lb
                rec.degree_term = cert.degree_term
                rec.crossing_lb = cert.crossing_lb
                rec.degenerate = cert.degenerate
        if cfg.with_witness:
            chain = seeded_witness(g, cfg.k, seed)
            rec.e_ab = chain.e_ab
            rec.width_sum = chain.width_sum
            # The witness sets hold >= witness_set_size vertices each, so the mixing
            # bound on every such pair cannot exceed their edge count.
            if rec.density_lb is not None and rec.density_lb > chain.e_ab:
                raise AssertionError(f"mixing bound {rec.density_lb!r} exceeds the witness's "
                                     f"e(A,B)={chain.e_ab}")
    except AssertionError:
        raise
    except Exception as exc:  # per-row failure, sweep continues
        rec.failed = True
        rec.error = f"{type(exc).__name__}: {exc}"
    if cfg.with_timings:
        rec.wall_time_s = time.perf_counter() - t0
    return rec


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None,
                   fmt: str = "csv") -> list[TrialRecord]:
    """One record per (cell, trial), in canonical order, deterministic given
    the master seed.  When out_path is set, rows are flushed as they arrive,
    in canonical order, so an interrupted run keeps its finished rows.

    The trials run in forked worker processes when `_workers` allows more than
    one, else in this process; each trial reads only its own seed, so the rows
    are the same either way."""
    tasks = [(cfg, n, d, p, t, derive_seed(cfg.master_seed, ci * cfg.trials + t))
             for ci, (n, d, p) in enumerate(cfg.cells)
             for t in range(cfg.trials)]
    with closing(_trials(tasks, _workers(cfg, len(tasks)))) as trials:
        if out_path:
            return write_records(trials, out_path, fmt, cfg.with_timings)
        return list(trials)


def _expected_edges(n: int, d: int | None, p: float | None) -> float:
    return n * d / 2 if p is None else p * n * (n - 1) / 2


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _workers(cfg: ExperimentConfig, ntasks: int) -> int:
    """Processes for a sweep of ntasks trials: one per allowed core, at most one
    per task, and few enough that each can hold the largest cell's trial peak
    (TRIAL_BYTES_PER_EDGE) in physical memory.  1 runs the trials in this
    process, as it must in a daemonic one (which may not fork) or where fork
    is not a start method."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = min(cores, ntasks)
    if jobs < 2:
        return 1
    peak = TRIAL_BYTES_PER_EDGE * max(_expected_edges(*cell) for cell in cfg.cells)
    jobs = min(jobs, int(_physical_memory() // max(peak, 1.0)))
    if jobs < 2:
        return 1
    import multiprocessing
    if multiprocessing.current_process().daemon or (
            "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return jobs


def _trials(tasks: list[tuple], jobs: int) -> Iterator[TrialRecord]:
    """`_run_trial` over tasks, yielded in their order, on `jobs` forked
    workers.  The pool starts at the first record asked for and is shut down,
    pending chunks cancelled, when the generator ends, raises or is closed."""
    if jobs < 2:
        yield from map(_run_trial, *zip(*tasks))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked, not spawned: a spawned worker would import the package again, about
    # 0.46 s, twice what a six-trial witness_gnp sweep takes serially.  The pool
    # forks its workers before it starts its management thread.
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(_run_trial, *zip(*tasks),
                            chunksize=max(1, len(tasks) // (4 * jobs)))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a sweep worker died: BrokenProcessPool: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_records(records: Iterable[TrialRecord], path: str, fmt: str = "csv",
                  with_timings: bool = False) -> list[TrialRecord]:
    """Write records to path as CSV or JSON and return them as a list.

    Both formats carry the same columns: the canonical ones, plus
    `wall_time_s` when with_timings is set.  CSV cells are quoted only when
    they need it (a comma in an `error` text), so a cell reads back as the
    JSON value's text.  CSV is flushed after the header and after every row,
    so when `records` is computed lazily an interrupted run leaves its
    finished rows on disk.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    # Wall time is opt-in: it would break byte-identical reruns.
    cols = CSV_FIELDS + (["wall_time_s"] if with_timings else [])
    written: list[TrialRecord] = []
    with open(path, "w", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        if fmt == "csv":
            rows.writerow(cols)
            fh.flush()
        for rec in records:
            written.append(rec)
            if fmt == "csv":
                d = rec.to_dict()
                rows.writerow([_fmt_value(d[c]) for c in cols])
                fh.flush()
        if fmt == "json":
            dicts = (r.to_dict() for r in written)
            json.dump([{c: d[c] for c in cols} for d in dicts], fh, indent=1)
            fh.write("\n")
    return written


def _number(row: dict, field: str, i: int) -> float | None:
    """Row i's `field` as a finite float, or None when it is missing."""
    if field not in row:
        raise FitError(f"unknown field {field!r}")
    v = row[field]
    if v in (None, ""):
        return None
    try:
        x = float(v)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(v, bool) or not math.isfinite(x):
        raise FitError(f"field {field!r} is not a number in row {i}: {v!r}")
    return x


def fit_scaling(records, x_field: str, y_field: str) -> tuple[float, float, int]:
    """Least-squares slope of log y against log x.

    Returns (exponent, r_squared, excluded) where excluded counts rows
    dropped for a nonpositive or missing x or y; a value is missing when it
    is None or "" (a blank CSV cell).  Needs at least 3 distinct surviving
    x values, and every row to hold both fields as finite numbers: FitError
    names a field that a row lacks, or the first row (counted from 1) whose
    cell is not one, such as a flag, the model tag or "nan".
    """
    xs, ys = [], []
    excluded = 0
    for i, rec in enumerate(records, 1):
        row = rec.to_dict() if isinstance(rec, TrialRecord) else rec
        x, y = (_number(row, field, i) for field in (x_field, y_field))
        if x is None or y is None or x <= 0 or y <= 0:
            excluded += 1
            continue
        xs.append(math.log(x))
        ys.append(math.log(y))
    if len(set(xs)) < 3:
        raise FitError(
            f"need >= 3 distinct positive x values, have {len(set(xs))} "
            f"({excluded} rows excluded)"
        )
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2, excluded


def summarize_frequencies(records, flag_field: str) -> dict[tuple, float]:
    """Per-cell fraction of trials whose `flag_field` is True, or "true" in a CSV row.

    Rows with a missing flag count as false (failures included by design)."""
    if not records:
        raise ValueError("no records")
    rows = [r.to_dict() if isinstance(r, TrialRecord) else r for r in records]
    if flag_field not in rows[0]:
        raise KeyError(f"unknown field {flag_field!r}")
    cells: dict[tuple, list[bool]] = {}
    for row in rows:
        key = (row["model"], row["n"], row["d"], row["p"], row["k"])
        cells.setdefault(key, []).append(row.get(flag_field) in (True, "true"))
    return {key: sum(flags) / len(flags) for key, flags in cells.items()}
