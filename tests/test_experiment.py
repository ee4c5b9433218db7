import csv
import math
import random
import re

import numpy as np
import pytest

import kplanar.experiment
from kplanar.experiment import (ExperimentConfig, FitError, fit_scaling,
                                run_experiment, summarize_frequencies,
                                write_records)
from kplanar.models import SampleError
from kplanar.seeds import derive_seed, mix64


def small_cfg(**kw):
    base = dict(model="matching", n_list=(30,), d_list=(4,), k=2,
                trials=2, master_seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


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
        # d = 0 samples the edgeless graph; the Friedman check needs d >= 1.
        rec, = run_experiment(small_cfg(model=model, n_list=(10,), d_list=(0,), trials=1))
        assert rec.edges == 0 and rec.failed
        assert rec.error == "ValueError: friedman_check needs d >= 1 (got d=0)"

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
    ])
    def test_grid_refused_with_the_samplers_message(self, monkeypatch, model, grid, message):
        def no_draw(*args):
            raise AssertionError("drew while checking the grid")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(SampleError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(model=model, **{"n_list": (10,), "trials": 3, **grid})

    def test_odd_n_matching_degree_zero_row_names_the_friedman_requirement(self):
        rec, = run_experiment(small_cfg(n_list=(31,), d_list=(0,), trials=1))
        assert rec.edges == 0 and rec.failed
        assert rec.error == "ValueError: friedman_check needs d >= 1 (got d=0)"

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

    def test_json_writer_reads_each_record_once(self, tmp_path, monkeypatch):
        recs = run_experiment(small_cfg(trials=3))
        to_dict, read = kplanar.experiment.TrialRecord.to_dict, []
        monkeypatch.setattr(kplanar.experiment.TrialRecord, "to_dict",
                            lambda rec: read.append(rec) or to_dict(rec))
        write_records(recs, str(tmp_path / "r.json"), "json")
        assert list(map(id, read)) == list(map(id, recs))


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
