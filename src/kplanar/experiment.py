"""Seeded experiment sweeps over (model, n, d or p, k) with CSV/JSON
emission and scaling-exponent fits.

Rows are emitted in canonical order (grid order, then trial index) and
every float is serialized with 17 significant digits, so a repeated run
with the same master seed produces byte-identical output.  Per-trial
failures become flagged rows; they never abort a sweep.  An invariant
violation (AssertionError) is a bug, not a failed trial, and does abort it.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from .certify import certify_k_planar_lb
from .graph import random_edge_partition
from .models import check_params, max_degree_ok, sample
from .partitions import local_search_bisection, witness_chain, witness_floor
from .seeds import derive_seed
from .spectral import friedman_check, spectral_summary

__all__ = ["ExperimentConfig", "TrialRecord", "run_experiment", "write_records",
           "fit_scaling", "summarize_frequencies", "FitError"]

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
        for n, d, p in self.cells or [(self.n_list[0], None, None)]:
            check_params(self.model, n, d, p)
        if self.with_witness and min(self.n_list) < floor:
            raise ValueError(f"--witness at k={self.k} needs n >= {floor}, got n={min(self.n_list)}")

    @property
    def cells(self) -> list[tuple[int, int | None, float | None]]:
        """(n, d, p) per cell, n-major: d is None on G(n, p) and p on the regular
        models.  One of the two lists is empty, so one of the two terms is too."""
        return [(n, int(d), None) for n in self.n_list for d in self.d_list] + [
            (n, None, float(p)) for n in self.n_list for p in self.p_list]


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
        return asdict(self)


# The canonical columns, in field order; wall time is opt-in (see write_records).
CSV_FIELDS = [f.name for f in fields(TrialRecord) if f.name != "wall_time_s"]


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
                rec.friedman_ok = friedman_check(g, d, summary=summary)
                cert = certify_k_planar_lb(g, cfg.k, summary)
                rec.density_lb = cert.density_lb
                rec.width_lb = cert.width_lb
                rec.degree_term = cert.degree_term
                rec.crossing_lb = cert.crossing_lb
                rec.degenerate = cert.degenerate
        if cfg.with_witness:
            ep = random_edge_partition(g, cfg.k, derive_seed(seed, 1))
            chain = witness_chain(
                g, ep, lambda h: local_search_bisection(h, derive_seed(seed, 2), restarts=4)
            )
            rec.e_ab = chain.e_ab
            rec.width_sum = chain.width_sum
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
    the master seed.  When out_path is set, each row is flushed as it
    completes, so an interrupted run keeps its finished cells."""
    trials = (
        _run_trial(cfg, n, d, p, t, derive_seed(cfg.master_seed, ci * cfg.trials + t))
        for ci, (n, d, p) in enumerate(cfg.cells)
        for t in range(cfg.trials)
    )
    if out_path:
        return write_records(trials, out_path, fmt, cfg.with_timings)
    return list(trials)


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


def fit_scaling(records, x_field: str, y_field: str) -> tuple[float, float, int]:
    """Least-squares slope of log y against log x.

    Returns (exponent, r_squared, excluded) where excluded counts rows
    dropped for a nonpositive or missing x or y; a value is missing when it
    is None or "" (a blank CSV cell).  Needs at least 3 distinct surviving
    x values.
    """
    xs, ys = [], []
    excluded = 0
    for rec in records:
        row = rec.to_dict() if isinstance(rec, TrialRecord) else rec
        x, y = row.get(x_field), row.get(y_field)
        if x in (None, "") or y in (None, "") or float(y) <= 0 or float(x) <= 0:
            excluded += 1
            continue
        xs.append(math.log(float(x)))
        ys.append(math.log(float(y)))
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
