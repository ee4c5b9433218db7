import argparse
import csv
import json
import pathlib
import random
import re
import shlex

import numpy as np
import pytest

import kplanar.experiment
from kplanar.cli import build_parser, main
from kplanar.graph import write_edge_list
from kplanar.models import RegularModel, sample_regular

from conftest import complete_graph, cycle_graph, petersen_graph, random_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_gnp_writes_file(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    code, stdout, _ = run_cli(capsys, "sample", "--model", "gnp", "--n", "40",
                              "--p", "0.2", "--seed", "3", "--out", out)
    assert code == 0
    report = json.loads(stdout)
    assert report["n"] == 40
    first = open(out).readline().split()
    assert first[0] == "40"


def test_sample_regular_report(tmp_path, capsys):
    out = str(tmp_path / "r.txt")
    code, stdout, _ = run_cli(capsys, "sample", "--model", "matching", "--n", "20",
                              "--d", "3", "--seed", "5", "--out", out)
    assert code == 0
    report = json.loads(stdout)
    assert {"rejected_attempts", "collapsed_multiedges", "removed_loops"} <= set(report)


def test_sample_gnp_refuses_negative_n(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, err = run_cli(capsys, "sample", "--model", "gnp", "--n", "-3", "--p", "0.5",
                                "--out", str(out))
    assert (code, stdout, err) == (1, "", "error: negative vertex count n=-3\n")
    assert not out.exists()


def test_sample_missing_param_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--model", "gnp", "--n", "10")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("args,message", [
    (["--model", "gnp", "--p", "0.3", "--d", "4"], "error: gnp takes --p and no --d\n"),
    (["--model", "perm", "--d", "4", "--p", "0.3"], "error: perm takes --d and no --p\n"),
], ids=["gnp-with-d", "perm-with-p"])
def test_sample_refuses_the_other_models_parameter(tmp_path, capsys, args, message):
    out = tmp_path / "g.txt"
    code, stdout, err = run_cli(capsys, "sample", "--n", "10", *args, "--out", str(out))
    assert (code, stdout, err) == (1, "", message)
    assert not out.exists()


def test_spectrum_full(tmp_path, capsys):
    path = str(tmp_path / "k4.txt")
    write_edge_list(path, complete_graph(4))
    code, stdout, _ = run_cli(capsys, "spectrum", "--in", path)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["lambda1"] == pytest.approx(3.0)
    assert summary["mu"] == pytest.approx(1.0)
    assert len(summary["full_spectrum"]) == 4


@pytest.mark.parametrize("n,lanczos", [(400, False), (401, True)])
def test_spectrum_reports_matvecs(tmp_path, capsys, n, lanczos):
    path = str(tmp_path / "g.txt")
    write_edge_list(path, sample_regular(n, 6, RegularModel.PERMUTATION, 1).graph)
    code, stdout, _ = run_cli(capsys, "spectrum", "--in", path)
    summary = json.loads(stdout)
    assert code == 0 and summary["method"] == ("iterative" if lanczos else "dense")
    assert (summary["matvecs"] > 0) is lanczos


def test_spectrum_and_certify_agree_on_mu_safe(tmp_path, capsys):
    path = str(tmp_path / "u.txt")
    write_edge_list(path, sample_regular(300, 4, RegularModel.UNIFORM_SIMPLE, 7).graph)
    code, stdout, _ = run_cli(capsys, "spectrum", "--in", path)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["method"] == "dense" and len(summary["full_spectrum"]) == 300
    code, stdout, _ = run_cli(capsys, "certify", "--in", path, "--k", "2")
    assert code == 0
    cert, _ = json.JSONDecoder().raw_decode(stdout)  # the transcript follows the JSON
    assert cert["mu_safe"] == summary["mu_safe"]


def test_spectrum_and_certify_of_large_edgeless_graph(tmp_path, capsys):
    # 2500 vertices is past the dense cap, but an edgeless spectrum needs no solve.
    path = tmp_path / "e.txt"
    path.write_text("2500 0\n")
    code, stdout, _ = run_cli(capsys, "spectrum", "--in", str(path))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["mu"] == 0 and summary["lambda1"] == 0
    assert summary["mu_safe"] == summary["residual"] == 0
    code, stdout, _ = run_cli(capsys, "certify", "--in", str(path), "--k", "2")
    assert code == 0
    cert, _ = json.JSONDecoder().raw_decode(stdout)
    assert cert["d"] == 0 and cert["mu_safe"] == summary["mu_safe"] and cert["degenerate"]


def test_spectrum_names_malformed_line(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("4 3\n0 1\n1 2 3\n2 3\n")
    code, stdout, err = run_cli(capsys, "spectrum", "--in", str(path))
    assert code == 1 and stdout == ""
    assert err == f"error: {path}:3: expected two integers 'u v', got '1 2 3'\n"


@pytest.mark.parametrize("id_text", ["99999999999999999999999", "-9223372036854775809"])
@pytest.mark.parametrize("partition", [False, True], ids=["edge-list", "edge-partition"])
def test_edge_file_id_outside_int64_names_its_line(tmp_path, capsys, id_text, partition):
    path = tmp_path / "g.txt"
    path.write_text(f"3 1\n0 {id_text}\n")
    ppath = tmp_path / "classes.txt"
    ppath.write_text("0\n")
    argv = (["witness", "--in", str(path), "--k", "2", "--partition", str(ppath)] if partition
            else ["spectrum", "--in", str(path)])
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == f"error: {path}:2: integer outside int64 in 'u v', got '0 {id_text}'\n"


@pytest.mark.parametrize("command, removed", [
    ("sample", ["--format", "json"]),
    ("spectrum", ["--full"]),
    ("spectrum", ["--tol", "1e-6"]),
    ("spectrum", ["--seed", "1"]),
    ("spectrum", ["--out", "s.json"]),
    ("bisect", ["--out", "b.json"]),
    ("bisect", ["--format", "json"]),
    ("witness", ["--out", "w.json"]),
    ("witness", ["--format", "json"]),
    ("certify", ["--out", "cert.json"]),
    ("certify", ["--format", "csv"]),
    ("certify", ["--seed", "99"]),
    ("certify", ["--tol", "1e-6"]),
    ("experiment", ["--tol", "1e-6"]),
    ("fit", ["--format", "json"]),
    ("fit", ["--out", "f.json"]),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_removed_flags_are_rejected(tmp_path, capsys, monkeypatch, command, removed):
    monkeypatch.chdir(tmp_path)
    write_edge_list("g.txt", petersen_graph())
    required = {
        "sample": ["--model", "matching", "--n", "20", "--d", "3"],
        "spectrum": ["--in", "g.txt"],
        "bisect": ["--in", "g.txt"],
        "witness": ["--in", "g.txt", "--k", "2"],
        "certify": ["--in", "g.txt", "--k", "2"],
        "experiment": ["--model", "matching", "--n-list", "20", "--d-list", "4"],
        "fit": ["--in", "g.txt", "--x", "n", "--y", "edges"],
    }[command]
    code, stdout, err = run_cli(capsys, command, *required, *removed)
    assert code == 1 and stdout == ""
    assert f"unrecognized arguments: {' '.join(removed)}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]  # nothing was written


MODELS = ["gnp", "cycle", "matching", "perm", "uniform"]
# Each option as (dest, type name, default, required, choices, nargs).
PINNED_OPTIONS = {
    "sample": {
        "--model": ("model", None, None, True, MODELS, None),
        "--n": ("n", "int", None, True, None, None),
        "--p": ("p", "float", None, False, None, None),
        "--d": ("d", "int", None, False, None, None),
        "--seed": ("seed", "seed", 0, False, None, None),
        "--out": ("out", None, None, False, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "spectrum": {
        "--in": ("infile", None, None, True, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "bisect": {
        "--in": ("infile", None, None, True, None, None),
        "--exact": ("exact", None, False, False, None, 0),
        "--restarts": ("restarts", "int", 8, False, None, None),
        "--seed": ("seed", "seed", 0, False, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "witness": {
        "--in": ("infile", None, None, True, None, None),
        "--k": ("k", "int", None, True, None, None),
        "--partition": ("partition", None, "random", False, None, None),
        "--restarts": ("restarts", "int", 8, False, None, None),
        "--seed": ("seed", "seed", 0, False, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "certify": {
        "--in": ("infile", None, None, True, None, None),
        "--k": ("k", "int", None, True, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "experiment": {
        "--model": ("model", None, None, True, MODELS, None),
        "--n-list": ("n_list", "int", None, True, None, "+"),
        "--d-list": ("d_list", "int", None, False, None, "+"),
        "--p-list": ("p_list", "float", None, False, None, "+"),
        "--k": ("k", "int", 2, False, None, None),
        "--trials": ("trials", "int", 1, False, None, None),
        "--witness": ("witness", None, False, False, None, 0),
        "--timings": ("timings", None, False, False, None, 0),
        "--seed": ("seed", "seed", 0, False, None, None),
        "--out": ("out", None, None, False, None, None),
        "--format": ("format", None, "csv", False, ["csv", "json"], None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
    "fit": {
        "--in": ("infile", None, None, True, None, None),
        "--x": ("x", None, None, True, None, None),
        "--y": ("y", None, None, True, None, None),
        "--quiet": ("quiet", None, False, False, None, 0),
    },
}


def test_every_option_is_pinned():
    # Each subcommand takes its shared flags from one table, so a slip there would
    # change a type, default, `required` or choice on several commands at once.
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {a.option_strings[0]: (a.dest, getattr(a.type, "__name__", a.type), a.default,
                                     a.required, a.choices, a.nargs)
               for a in parser._actions if a.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert options == PINNED_OPTIONS


@pytest.mark.parametrize("command", [
    ["sample", "--model", "gnp", "--n", "30", "--p", "0.2", "--out", "g.txt"],
    ["bisect", "--in", "in.txt"],
    ["witness", "--in", "in.txt", "--k", "2"],
    ["experiment", "--model", "gnp", "--n-list", "30", "--p-list", "0.2", "--out", "s.csv"],
], ids=lambda c: c[0])
def test_negative_seed_is_refused_at_parse_time(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_edge_list("in.txt", random_graph(20, 0.3, 1))
    code, stdout, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == 1 and stdout == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]  # nothing was written


def test_largest_seed_still_runs(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = run_cli(capsys, "experiment", "--model", "matching", "--n-list", "30",
                              "--d-list", "4", "--seed", str(2**64 - 1), "--out", str(out))
    assert code == 0 and json.loads(stdout)["records"] == 1
    assert len(out.read_text().splitlines()) == 2


def test_fit_counts_blank_cells_as_excluded(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text("n,crossing_lb\n100,1\n200,4\n300,\n400,16\n,5\n")
    code, stdout, _ = run_cli(capsys, "fit", "--in", str(path), "--x", "n", "--y", "crossing_lb")
    assert code == 0
    fit = json.loads(stdout)
    assert fit["excluded"] == 2 and fit["exponent"] == pytest.approx(2.0, abs=1e-9)


def test_bisect_exact(tmp_path, capsys):
    path = str(tmp_path / "c6.txt")
    write_edge_list(path, cycle_graph(6))
    code, stdout, _ = run_cli(capsys, "bisect", "--in", path, "--exact")
    assert code == 0
    assert json.loads(stdout)["cut"] == 2


def test_bisect_heuristic(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    write_edge_list(path, random_graph(20, 0.3, 1))
    code, stdout, _ = run_cli(capsys, "bisect", "--in", path, "--seed", "4")
    res = json.loads(stdout)
    assert code == 0 and res["exact"] is False and res["cut"] >= 0


@pytest.mark.parametrize("command", [["bisect"], ["witness", "--k", "2"]], ids=["bisect", "witness"])
def test_zero_restarts_is_config_error(tmp_path, capsys, command):
    path = str(tmp_path / "g.txt")
    write_edge_list(path, random_graph(20, 0.3, 1))
    code, stdout, err = run_cli(capsys, *command, "--in", path, "--restarts", "0")
    assert code == 1 and stdout == ""
    assert err == "error: local search needs restarts >= 1, got 0\n"


def test_witness_random_partition(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    write_edge_list(path, random_graph(24, 0.3, 2))
    code, stdout, _ = run_cli(capsys, "witness", "--in", path, "--k", "2", "--seed", "9")
    chain = json.loads(stdout)
    assert code == 0
    assert chain["e_ab"] <= chain["width_sum"]


def test_witness_partition_file(tmp_path, capsys):
    g = random_graph(20, 0.4, 3)
    gpath = str(tmp_path / "g.txt")
    write_edge_list(gpath, g)
    ppath = tmp_path / "classes.txt"
    ppath.write_text("\n".join(str(i % 2) for i in range(g.num_edges)) + "\n")
    code, stdout, _ = run_cli(capsys, "witness", "--in", gpath, "--k", "2",
                              "--partition", str(ppath), "--seed", "1")
    assert code == 0
    assert json.loads(stdout)["e_ab"] >= 0


def test_witness_partition_file_follows_edge_file_lines(tmp_path, capsys):
    # Line i of the class file is the class of line i of the edge file, so a
    # shuffled edge file with flipped pairs and its matching class file give
    # the same partition, hence the same witness, as the sorted pair.
    g = random_graph(20, 0.4, 3)
    rnd = random.Random(5)
    lines = [(u, v, rnd.randrange(3)) for u, v in g.edges.tolist()]
    shuffled = [(v, u, c) if rnd.random() < 0.5 else (u, v, c)
                for u, v, c in rnd.sample(lines, len(lines))]
    outputs = []
    for name, rows in (("sorted", lines), ("shuffled", shuffled)):
        gpath, ppath = tmp_path / f"{name}.txt", tmp_path / f"{name}.classes"
        gpath.write_text(f"{g.n} {g.num_edges}\n" + "".join(f"{u} {v}\n" for u, v, _ in rows))
        ppath.write_text("".join(f"{c}\n" for _, _, c in rows))
        code, stdout, _ = run_cli(capsys, "witness", "--in", str(gpath), "--k", "3",
                                  "--partition", str(ppath), "--seed", "1")
        assert code == 0
        outputs.append(json.loads(stdout))
    assert outputs[0] == outputs[1]


def test_witness_partition_length_mismatch(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    write_edge_list(gpath, random_graph(20, 0.4, 3))
    ppath = tmp_path / "short.txt"
    ppath.write_text("0\n1\n")
    code, _, err = run_cli(capsys, "witness", "--in", gpath, "--k", "2",
                           "--partition", str(ppath))
    assert code == 1 and "lines" in err


@pytest.mark.parametrize("bad", ["x", "5", "-1", "0 1"])
def test_witness_partition_file_names_a_bad_class_line(tmp_path, capsys, bad):
    g = random_graph(20, 0.4, 3)
    gpath = str(tmp_path / "g.txt")
    write_edge_list(gpath, g)
    ppath = tmp_path / "classes.txt"
    lines = ["0", "1", ""] + [str(i % 2) for i in range(g.num_edges - 2)]
    lines[4] = bad
    ppath.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "witness", "--in", gpath, "--k", "2",
                           "--partition", str(ppath))
    assert code == 1
    assert err == (f"error: {ppath}:5: expected a class index in 0..k-1 for k=2, "
                   f"got {bad!r}\n")


def test_certify_regular(tmp_path, capsys):
    path = str(tmp_path / "pet.txt")
    write_edge_list(path, petersen_graph())
    code, stdout, _ = run_cli(capsys, "certify", "--in", path, "--k", "2")
    assert code == 0
    assert "degenerate" in stdout and "cr_2(G)" in stdout


def test_certify_irregular_is_estimate(tmp_path, capsys):
    path = str(tmp_path / "irr.txt")
    write_edge_list(path, random_graph(10, 0.4, 7))
    code, stdout, _ = run_cli(capsys, "certify", "--in", path, "--k", "2")
    assert code == 0
    est = json.loads(stdout)
    assert est["label"] == "ESTIMATE"
    assert "threshold_half_binom" in est and "threshold_half_square" in est


def test_certify_refuses_a_graph_too_small_for_two_sets(tmp_path, capsys):
    # The empty graph is not regular, so it takes the estimate path, which needs 2t vertices.
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    code, stdout, err = run_cli(capsys, "certify", "--in", str(path), "--k", "2")
    assert (code, stdout) == (1, "")
    assert err == "error: pair density needs two disjoint size-t sets, got n=0 < 2t, t=1\n"


def test_experiment_and_fit(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run_cli(capsys, "experiment", "--model", "matching",
                         "--n-list", "20", "30", "40", "--d-list", "4",
                         "--trials", "2", "--seed", "7", "--out", out)
    assert code == 0
    code, stdout, _ = run_cli(capsys, "fit", "--in", out, "--x", "n", "--y", "edges")
    assert code == 0
    fit = json.loads(stdout)
    assert fit["exponent"] == pytest.approx(1.0, abs=0.1)


def test_experiment_partial_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run_cli(capsys, "experiment", "--model", "matching",
                         "--n-list", "20", "--d-list", "25", "4",
                         "--trials", "1", "--seed", "7", "--out", out)
    assert code == 2
    assert sum(1 for _ in open(out)) == 3  # header + one failed + one good row


def test_experiment_csv_quotes_the_error_cell(tmp_path, capsys):
    # The failed row's error text holds commas: CSV quotes that cell, and only
    # that cell, so it reads back as the JSON row's text.
    paths = {fmt: str(tmp_path / f"sweep.{fmt}") for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        code, _, _ = run_cli(capsys, "experiment", "--model", "matching", "--n-list", "30",
                             "--d-list", "40", "--format", fmt, "--out", path)
        assert code == 2
    with open(paths["csv"], newline="") as fh:
        lines = fh.read().splitlines()
    [row] = csv.DictReader(lines)
    [record] = json.load(open(paths["json"]))
    assert "," in record["error"] and row["error"] == record["error"]
    assert lines[1] == ",".join(f'"{v}"' if "," in v else v for v in row.values())


def test_experiment_refuses_impossible_uniform_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "experiment", "--model", "uniform", "--n-list", "100", "200",
                           "--d-list", "4", "8", "--trials", "3", "--out", str(out))
    assert code == 1
    assert "d=8" in err and "attempts" in err and "budget of 1000000" in err
    assert not out.exists()  # refused before the first trial


@pytest.mark.parametrize("model,grid", [("uniform", "--d-list"), ("gnp", "--p-list")])
def test_experiment_refuses_k_below_2(tmp_path, capsys, model, grid):
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "experiment", "--model", model, "--n-list", "50",
                                grid, "0.1" if model == "gnp" else "4", "--k", "1",
                                "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: need k >= 2 classes, got k=1\n"
    assert not out.exists()  # refused before the first trial


def test_experiment_refuses_negative_n(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "experiment", "--model", "gnp", "--n-list", "-3",
                                "--p-list", "0.5", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: negative vertex count n=-3\n"
    assert not out.exists()  # refused before the first trial


@pytest.mark.parametrize("args,message", [
    (["--model", "gnp", "--n-list", "10", "--d-list", "3"], "gnp takes --p and no --d"),
    (["--model", "perm", "--n-list", "10", "--p-list", "0.1"], "perm takes --d and no --p"),
    # A rule on one parameter that no seed can fix: exit 1, not a failed row per trial.
    (["--model", "perm", "--n-list", "30", "60", "--d-list", "4", "3"],
     "PERMUTATION requires even d, got 3"),
    (["--model", "perm", "--n-list", "30", "--d-list", "-2"], "negative degree -2"),
    (["--model", "gnp", "--n-list", "30", "--p-list", "0.1", "1.5"], "p=1.5 outside [0, 1]"),
    (["--model", "perm", "--n-list", "2147483648", "--d-list", "4"],
     "vertex count n=2147483648 is not below the limit 2**31 = 2147483648"),
], ids=["gnp-with-d", "perm-with-p", "odd-perm-d", "negative-d", "p-above-1", "n-at-2**31"])
def test_experiment_refuses_with_the_samplers_message(tmp_path, capsys, monkeypatch, args,
                                                      message):
    def no_draw(*args):
        raise AssertionError("drew before refusing the grid")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "experiment", *args, "--trials", "3", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()  # refused before the first trial


def test_sample_regular_refuses_negative_n(capsys):
    code, stdout, err = run_cli(capsys, "sample", "--model", "perm", "--n", "-3", "--d", "2")
    assert (code, stdout, err) == (1, "", "error: negative vertex count n=-3\n")


def test_experiment_refuses_witness_grid_below_the_floor(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph before refusing the grid")

    monkeypatch.setattr(kplanar.experiment, "sample", no_sampling)
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "experiment", "--model", "uniform", "--n-list", "12", "30",
                                "--d-list", "4", "--k", "3", "--witness", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == "error: --witness at k=3 needs n >= 18, got n=12\n"
    assert not out.exists()  # refused before the first trial


def test_experiment_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    def broken_chain(*args, **kwargs):
        raise AssertionError("witness-chain inequality violated: e(A,B)=9 > 8")

    monkeypatch.setattr(kplanar.experiment, "witness_chain", broken_chain)
    code, _, err = run_cli(capsys, "experiment", "--model", "matching", "--n-list", "20",
                           "--d-list", "4", "--witness", "--out", str(tmp_path / "s.csv"))
    assert code == 3
    assert "invariant violated: witness-chain inequality violated" in err


def test_missing_file_is_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--in", "/nonexistent/g.txt")
    assert code == 1 and "error" in err


def _readme_commands() -> list[str]:
    """Every `kplanar ...` command in README.md's sh blocks, with backslash
    continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split("#")[0].strip() for line in lines
            if line.strip().startswith("kplanar ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 7
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])
