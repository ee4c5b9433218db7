import json
import pathlib
import re
import shlex

import pytest

from kplanar.cli import build_parser, main
from kplanar.graph import write_edge_list

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


def test_sample_missing_param_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--model", "gnp", "--n", "10")
    assert code == 1 and "error" in err


def test_spectrum_full(tmp_path, capsys):
    path = str(tmp_path / "k4.txt")
    write_edge_list(path, complete_graph(4))
    code, stdout, _ = run_cli(capsys, "spectrum", "--in", path, "--full")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["lambda1"] == pytest.approx(3.0)
    assert summary["mu"] == pytest.approx(1.0)
    assert len(summary["full_spectrum"]) == 4


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


def test_witness_partition_length_mismatch(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    write_edge_list(gpath, random_graph(20, 0.4, 3))
    ppath = tmp_path / "short.txt"
    ppath.write_text("0\n1\n")
    code, _, err = run_cli(capsys, "witness", "--in", gpath, "--k", "2",
                           "--partition", str(ppath))
    assert code == 1 and "lines" in err


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
