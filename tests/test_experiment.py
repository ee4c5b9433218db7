import csv
import math
import multiprocessing
import os
import random
import re

import numpy as np
import pytest

import kplanar.experiment
from kplanar.experiment import (ExperimentConfig, FitError, fit_scaling,
                                run_experiment, seeded_witness, summarize_frequencies,
                                write_records)
from kplanar.graph import random_edge_partition
from kplanar.models import SampleError, sample_gnp
from kplanar.seeds import derive_seed, mix64


def small_cfg(**kw):
    base = dict(model="matching", n_list=(30,), d_list=(4,), k=2,
                trials=2, master_seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def _assert_degree_zero_row(rec):
    assert rec.edges == 0 and not rec.failed and rec.error == ""
    assert rec.friedman_ok is None
    assert rec.degenerate is True and rec.crossing_lb == 0.0


class TestSeeds:
    def test_mix64_is_stable(self):
        # frozen reference values for the splitmix64 finalizer
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(5, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_derive_seed_order_independent(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)
        assert derive_seed(5, 3) != derive_seed(6, 3)


class TestRunExperiment:
    def test_single_cell_single_trial(self):
        recs = run_experiment(small_cfg(trials=1))
        assert len(recs) == 1
        assert recs[0].edges > 0 and not recs[0].failed

    def test_row_count_is_grid_times_trials(self):
        cfg = small_cfg(n_list=(20, 30), d_list=(2, 4), trials=3)
        recs = run_experiment(cfg)
        assert len(recs) == 2 * 2 * 3

    def test_gnp_sweep(self):
        cfg = ExperimentConfig(model="gnp", n_list=(50,), p_list=(0.1,),
                               trials=2, master_seed=1)
        recs = run_experiment(cfg)
        assert all(r.max_degree_ok is not None for r in recs)
        assert all(r.mu_safe is None for r in recs)

    def test_certificate_fields_present_for_regular(self):
        recs = run_experiment(small_cfg(trials=6))
        assert all(r.mu_safe is not None for r in recs)
        # collapse-free samples are exactly 4-regular and get certified
        certified = [r for r in recs if r.density_lb is not None]
        assert certified and all(r.degenerate is not None for r in certified)

    def test_witness_fields(self):
        recs = run_experiment(small_cfg(with_witness=True))
        for r in recs:
            assert r.e_ab is not None and r.e_ab <= r.width_sum

    def test_failure_becomes_flagged_row(self):
        # d >= n is a sampler error: row retained, sweep continues
        cfg = small_cfg(n_list=(30,), d_list=(40, 4), trials=1)
        recs = run_experiment(cfg)
        assert len(recs) == 2
        assert recs[0].failed and "SampleError" in recs[0].error
        assert not recs[1].failed

    @pytest.mark.parametrize("model", ["perm", "cycle", "matching", "uniform"])
    def test_degree_zero_row_names_the_friedman_requirement(self, model):
        # d = 0 samples the edgeless graph; the Friedman check needs d >= 1, so the
        # row leaves friedman_ok blank, and its certificate is degenerate.
        rec, = run_experiment(small_cfg(model=model, n_list=(10,), d_list=(0,), trials=1))
        _assert_degree_zero_row(rec)

    def test_invariant_violation_aborts_sweep(self, monkeypatch):
        def broken_chain(*args, **kwargs):
            raise AssertionError("pigeonhole split failed: cells of sizes 1, 2 < 3")

        monkeypatch.setattr(kplanar.experiment, "witness_chain", broken_chain)
        with pytest.raises(AssertionError, match="pigeonhole split failed"):
            run_experiment(small_cfg(with_witness=True))

    @pytest.mark.parametrize("d_list", [(8,), (4, 12)])
    def test_uniform_grid_over_budget_is_refused(self, d_list):
        d = d_list[-1]
        with pytest.raises(SampleError, match=re.escape(f"UNIFORM_SIMPLE: d={d} expects")):
            ExperimentConfig(model="uniform", n_list=(100,), d_list=d_list)

    @pytest.mark.parametrize("model,grid,message", [
        ("gnp", {"d_list": (3,)}, "gnp takes --p and no --d"),
        ("gnp", {}, "gnp takes --p and no --d"),
        ("gnp", {"d_list": (3,), "p_list": (0.1,)}, "gnp takes --p and no --d"),
        ("perm", {"p_list": (0.1,)}, "perm takes --d and no --p"),
        ("perm", {"d_list": (4,), "p_list": (0.1,)}, "perm takes --d and no --p"),
        ("nope", {"d_list": (3,)}, "unknown model 'nope'"),
        # A rule on one parameter that no seed can fix refuses the grid; it is
        # not repeated as a failed row in every trial of the cell.
        ("perm", {"n_list": (30, 60), "d_list": (4, 3)}, "PERMUTATION requires even d, got 3"),
        ("perm", {"d_list": (-2,)}, "negative degree -2"),
        ("gnp", {"p_list": (0.1, 1.5)}, "p=1.5 outside [0, 1]"),
        ("perm", {"n_list": (30, 2**31), "d_list": (4,)},
         "vertex count n=2147483648 is not below the limit 2**31 = 2147483648"),
        # The raw grid value is checked, not its cast: 4.7 is not run as d = 4.
        ("perm", {"d_list": (4.7,)}, "non-integer degree d=4.7"),
        ("perm", {"n_list": (30.9,), "d_list": (4,)}, "non-integer vertex count n=30.9"),
        ("gnp", {"n_list": (30, 40.0), "p_list": (0.5,)}, "non-integer vertex count n=40.0"),
        ("gnp", {"n_list": (30,), "p_list": ("0.5",)}, "non-numeric edge probability p='0.5'"),
    ])
    def test_grid_refused_with_the_samplers_message(self, monkeypatch, model, grid, message):
        def no_draw(*args):
            raise AssertionError("drew while checking the grid")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(SampleError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(model=model, **{"n_list": (10,), "trials": 3, **grid})

    def test_odd_n_matching_degree_zero_row_names_the_friedman_requirement(self):
        rec, = run_experiment(small_cfg(n_list=(31,), d_list=(0,), trials=1))
        _assert_degree_zero_row(rec)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="gnp", n_list=(10,), d_list=(3,), trials=1)
        with pytest.raises(ValueError):
            ExperimentConfig(model="matching", n_list=(), d_list=(3,), trials=1)
        with pytest.raises(ValueError):
            ExperimentConfig(model="nope", n_list=(10,), d_list=(3,), trials=1)
        with pytest.raises(ValueError, match="k >= 2"):
            ExperimentConfig(model="matching", n_list=(10,), d_list=(3,), k=1)

    @pytest.mark.parametrize("model,grid", [("gnp", {"p_list": (0.5,)}),
                                            ("matching", {"d_list": (4,)})])
    def test_negative_n_is_refused(self, model, grid):
        with pytest.raises(ValueError, match=re.escape("negative vertex count n=-3")):
            ExperimentConfig(model=model, n_list=(10, -3), **grid)

    def test_csv_deterministic(self, tmp_path):
        cfg = small_cfg(n_list=(20, 26), trials=2)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_experiment(cfg, out_path=p1)
        run_experiment(cfg, out_path=p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_header_is_pinned(self, tmp_path):
        path = tmp_path / "h.csv"
        run_experiment(small_cfg(trials=1), out_path=str(path))
        assert path.read_text().splitlines()[0] == (
            "model,n,d,p,k,trial,seed,edges,max_degree,max_degree_ok,mu_safe,friedman_ok,"
            "density_lb,width_lb,degree_term,crossing_lb,degenerate,e_ab,width_sum,failed,error")
        run_experiment(small_cfg(trials=1, with_timings=True), out_path=str(path))
        assert path.read_text().splitlines()[0].endswith(",failed,error,wall_time_s")

    def test_json_output(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        run_experiment(small_cfg(), out_path=path, fmt="json")
        rows = json.load(open(path))
        assert len(rows) == 2 and rows[0]["model"] == "matching"

    @pytest.mark.parametrize("with_timings", [False, True])
    def test_json_keys_are_the_csv_columns(self, tmp_path, with_timings):
        import json
        recs = run_experiment(small_cfg(with_timings=True))
        csv_path, json_path = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
        write_records(recs, csv_path, "csv", with_timings)
        write_records(recs, json_path, "json", with_timings)
        header = open(csv_path).readline().strip().split(",")
        assert all(list(row) == header for row in json.load(open(json_path)))
        assert ("wall_time_s" in header) is with_timings

    def test_numpy_grid_values_write_as_json(self, tmp_path):
        import json
        path = str(tmp_path / "r.json")
        run_experiment(small_cfg(n_list=(np.int64(30),), d_list=(np.int32(4),), trials=1),
                       out_path=path, fmt="json")
        row, = json.load(open(path))
        assert (row["n"], row["d"], row["failed"]) == (30, 4, False)

    def test_unknown_format_is_refused_before_the_file_is_opened(self, tmp_path, monkeypatch):
        def no_trial(*args):
            raise AssertionError("ran a trial before checking the format")

        monkeypatch.setattr(kplanar.experiment, "_run_trial", no_trial)
        path = tmp_path / "r.xml"
        with pytest.raises(ValueError, match=r"^unknown format 'xml'; expected 'csv' or 'json'$"):
            run_experiment(small_cfg(), out_path=str(path), fmt="xml")
        assert not path.exists()

    def test_json_writer_reads_each_record_once(self, tmp_path, monkeypatch):
        recs = run_experiment(small_cfg(trials=3))
        to_dict, read = kplanar.experiment.TrialRecord.to_dict, []
        monkeypatch.setattr(kplanar.experiment.TrialRecord, "to_dict",
                            lambda rec: read.append(rec) or to_dict(rec))
        write_records(recs, str(tmp_path / "r.json"), "json")
        assert list(map(id, read)) == list(map(id, recs))


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# A dense row (n = 30), Lanczos rows (n = 402), witness rows and a failed row
# (d = 40 >= n = 30): 8 trials.
MIXED_GRID = dict(model="perm", n_list=(30, 402), d_list=(4, 40), with_witness=True,
                  master_seed=5)


class TestWorkers:
    def _sweep(self, monkeypatch, cores, **kw):
        """run_experiment on `cores` allowed cores, and the worker counts it chose."""
        _cores(monkeypatch, cores)
        chosen, workers = [], kplanar.experiment._workers
        monkeypatch.setattr(kplanar.experiment, "_workers",
                            lambda *a: chosen.append(workers(*a)) or chosen[-1])
        return run_experiment(small_cfg(**MIXED_GRID), **kw), chosen

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, fmt):
        out = {}
        for cores in (1, 3):
            path = tmp_path / f"{cores}.{fmt}"
            recs, chosen = self._sweep(monkeypatch, cores, out_path=str(path), fmt=fmt)
            assert chosen == [cores]
            out[cores] = path.read_bytes()
        assert out[1] == out[3]
        assert multiprocessing.active_children() == []
        kinds = [(r.n, r.d, r.failed, r.e_ab is not None) for r in recs]
        assert kinds[2:4] == [(30, 40, True, False)] * 2
        assert (402, 4, False, True) in kinds and (30, 4, False, True) in kinds

    def test_timed_rows_keep_their_canonical_columns(self, monkeypatch):
        def canonical(recs):
            return [{c: r.to_dict()[c] for c in kplanar.experiment.CSV_FIELDS} for r in recs]

        serial, _ = self._sweep(monkeypatch, 1)
        _cores(monkeypatch, 2)
        timed = run_experiment(small_cfg(**MIXED_GRID, with_timings=True))
        assert canonical(timed) == canonical(serial)
        assert all(r.wall_time_s > 0 for r in timed)

    def test_one_worker_per_allowed_core_and_task(self, monkeypatch):
        cfg = small_cfg()
        for cores, ntasks, jobs in [(1, 8, 1), (2, 1, 1), (2, 8, 2), (3, 2, 2), (3, 8, 3)]:
            _cores(monkeypatch, cores)
            assert kplanar.experiment._workers(cfg, ntasks) == jobs

    def test_daemonic_process_runs_serially(self, monkeypatch):
        _cores(monkeypatch, 4)
        monkeypatch.setattr(multiprocessing, "current_process", lambda: type(
            "Daemon", (), {"daemon": True})())
        assert kplanar.experiment._workers(small_cfg(), 8) == 1

    def test_sweep_inside_a_pool_worker(self):
        # A pool worker is daemonic and may not fork; its sweep runs serially.
        cfg = small_cfg(trials=3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            recs = pool.apply(run_experiment, (cfg,))
        assert [r.to_dict() for r in recs] == [r.to_dict() for r in run_experiment(cfg)]

    def test_no_fork_runs_serially(self, monkeypatch):
        _cores(monkeypatch, 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert kplanar.experiment._workers(small_cfg(), 8) == 1

    @pytest.mark.parametrize("model,grid", [("perm", {"d_list": (2, 100)}),
                                            ("gnp", {"p_list": (0.1, 0.5)})])
    def test_workers_fit_in_physical_memory(self, monkeypatch, model, grid):
        # The largest cell, n = 10**5 at d = 100 or p = 0.5, sets the estimate; no
        # graph is drawn.
        cfg = ExperimentConfig(model=model, n_list=(1000, 10**5), **grid)
        edges = 10**5 * 100 / 2 if model == "perm" else 0.5 * 10**5 * (10**5 - 1) / 2
        peak = kplanar.experiment.TRIAL_BYTES_PER_EDGE * edges
        _cores(monkeypatch, 4)
        for pages, jobs in [(0.5, 1), (1.5, 1), (2.5, 2), (100, 4)]:
            monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096,
                                                "SC_PHYS_PAGES": pages * peak / 4096}.get)
            assert kplanar.experiment._workers(cfg, 8) == jobs


class TestFitScaling:
    def test_exact_square_law(self):
        rows = [{"x": x, "y": x * x} for x in (1, 2, 4)]
        exp, r2, excl = fit_scaling(rows, "x", "y")
        assert exp == pytest.approx(2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert excl == 0

    def test_constant(self):
        rows = [{"x": x, "y": 7.0} for x in (1, 2, 4, 8)]
        exp, _, _ = fit_scaling(rows, "x", "y")
        assert exp == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rnd = random.Random(0)
        rows = [{"x": x, "y": x**2.5 * (1 + rnd.uniform(-0.01, 0.01))}
                for x in [1.5**i for i in range(20)]]
        exp, r2, _ = fit_scaling(rows, "x", "y")
        assert abs(exp - 2.5) < 0.05
        assert r2 > 0.99

    def test_nonpositive_excluded(self):
        rows = [{"x": x, "y": y} for x, y in [(1, 1), (2, 4), (4, 16), (8, 0), (16, -3)]]
        exp, _, excl = fit_scaling(rows, "x", "y")
        assert excl == 2 and exp == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_scaling([{"x": 1, "y": 1}, {"x": 2, "y": 4}], "x", "y")

    @pytest.mark.parametrize("bad", [True, "x1", [3], "nan", "inf", float("-inf")])
    def test_names_the_first_row_that_is_not_a_number(self, bad):
        # A record's flag is refused as its CSV text is, not fitted as 0 or 1.
        rows = [{"x": 1, "y": 1}, {"x": 2, "y": ""}, {"x": 4, "y": bad}, {"x": 8, "y": "z"}]
        message = f"field 'y' is not a number in row 3: {bad!r}"
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            fit_scaling(rows, "x", "y")


class TestSummarize:
    def make(self, flags):
        cfg = small_cfg(trials=len(flags))
        recs = run_experiment(cfg)
        for r, f in zip(recs, flags):
            r.friedman_ok = f
        return recs

    def test_all_true(self):
        rates = summarize_frequencies(self.make([True] * 4), "friedman_ok")
        assert list(rates.values()) == [1.0]

    def test_alternating(self):
        rates = summarize_frequencies(self.make([True, False] * 5), "friedman_ok")
        assert list(rates.values()) == [0.5]

    @pytest.mark.parametrize("flag", ["failed", "friedman_ok", "degenerate"])
    def test_csv_rows_give_the_records_rates(self, tmp_path, flag):
        # A CSV cell holds the text "false", which bool() would count as true.
        path = str(tmp_path / "r.csv")
        cfg = ExperimentConfig(model="perm", n_list=(30,), d_list=(4, 40), trials=3, master_seed=2)
        recs = run_experiment(cfg, out_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rates = list(summarize_frequencies(recs, flag).values())
        assert list(summarize_frequencies(rows, flag).values()) == rates
        if flag == "failed":
            assert rates == [0.0, 1.0]

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            summarize_frequencies(self.make([True]), "bogus")

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize_frequencies([], "friedman_ok")


def test_seeded_witness_refuses_a_partition_of_another_k():
    # A 2-class partition used to give a 2-level chain when k = 3 was asked for.
    g = sample_gnp(60, 0.2, 1)
    with pytest.raises(ValueError, match=re.escape("edge partition has k=2 classes, "
                                                   "the witness asks for k=3")):
        seeded_witness(g, 3, 7, ep=random_edge_partition(g, 2, 5))
    assert len(seeded_witness(g, 3, 7, ep=random_edge_partition(g, 3, 5)).levels) == 3


def test_write_records_roundtrip(tmp_path):
    recs = run_experiment(small_cfg())
    path = str(tmp_path / "w.csv")
    write_records(recs, path)
    header = open(path).readline().strip().split(",")
    assert header[0] == "model" and "crossing_lb" in header


def test_density_lb_scaling_in_n():
    # density_lb grows linearly in n at fixed (d, k): slope-1 sanity for the chain
    from kplanar.certify import _chain
    rows = [{"n": n, "density_lb": _chain(n, 600, 2, 2 * math.sqrt(599) + 0.2).density_lb}
            for n in (10_000, 20_000, 40_000, 80_000)]
    exp, r2, _ = fit_scaling(rows, "n", "density_lb")
    assert abs(exp - 1.0) < 0.01 and r2 > 0.999
