import argparse
import ast
import importlib
import inspect
import os
import pathlib
import re
import shlex
import subprocess
import sys

from kplanar.cli import build_parser, main
from kplanar.graph import Graph
from kplanar.models import MODELS

from conftest import readme_commands

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kplanar"


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; invariant checks must raise explicitly.
    files = sorted(SRC.glob("**/*.py"))
    assert files, f"no sources under {SRC}"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


# Modules that may import the stdlib `random`, each with the reason: none, as
# every seeded draw comes from a numpy Generator.
RANDOM_IMPORTERS: dict[str, str] = {}


def _importers(package: str) -> set[str]:
    """The source files that import `package` or one of its submodules."""
    importers = set()
    for path in sorted(SRC.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == package for name in names):
                importers.add(path.name)
    return importers


def test_seeded_draws_use_numpy_generators():
    assert _importers("random") == set(RANDOM_IMPORTERS)


# Modules that may import scipy, each with the reason; the rest of the package is numpy only.
SCIPY_IMPORTERS = {
    "spectral.py": "the one adjacency matrix: ARPACK's Lanczos and the connectivity check",
}


def test_only_spectral_imports_scipy():
    assert _importers("scipy") == set(SCIPY_IMPORTERS)


# Graph's attributes, each with the reason it is kept; a new cache on every graph is a
# declared change.
GRAPH_SLOTS = {
    "n": "the vertex count",
    "edges": "the one graph representation: sorted, distinct pairs (u, v), u < v",
    "_degrees": "n values, read by the regularity checks, `_neighbours` and every certificate",
}


def test_graph_keeps_only_its_edges_and_degrees():
    assert Graph.__slots__ == tuple(GRAPH_SLOTS)


# Public names that nothing outside tests/ uses, each with the reason it stays public.
UNREFERENCED_EXPORTS = {
    "threshold_c0": "c0(k) of the paper's degree condition; acceptance criteria 6 and 7 use it",
    "TrialRecord": "the row type that run_experiment returns",
    "write_records": "run_experiment's one record writer, for records a caller filters",
    "summarize_frequencies": "acceptance criterion 4 computes the Friedman rate with it",
    "WitnessLevel": "the type of WitnessChain.levels",
    "lemma1_split": "the pigeonhole split; acceptance criterion 3 checks it exhaustively",
    "mu_bound": "spectral_summary's Lanczos path; tests check it against the dense solver",
    "mix64": "the splitmix64 finalizer derive_seed is built from; tests pin its test vectors",
}


def _identifiers(path: pathlib.Path) -> set[str]:
    """Every name the file loads, imports or reads as an attribute."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(node, fields[type(node)])
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if type(node) in fields}


def _exports(path: pathlib.Path) -> set[str]:
    """A module's `__all__` plus, when it declares one, every public function
    and class it defines at top level, so a name left out of `__all__` is
    still checked."""
    declared = getattr(importlib.import_module(f"kplanar.{path.stem}"), "__all__", None)
    if declared is None:
        return set()
    return set(declared) | {node.name for node in ast.parse(path.read_text(), str(path)).body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            and not node.name.startswith("_")}


def test_every_export_is_used_outside_tests():
    # `__init__` only re-exports, so a use must come from another module,
    # the benchmark or the README.
    modules = {path: _identifiers(path) for path in SRC.glob("*.py") if path.name != "__init__.py"}
    bench = set().union(*map(_identifiers, (SRC.parents[1] / "perfbench").glob("*.py")))
    readme = set(re.findall(r"\w+", (SRC.parents[1] / "README.md").read_text()))
    unused = []
    for path in modules:
        exported = _exports(path)
        elsewhere = set().union(bench, readme, *(ids for p, ids in modules.items() if p != path))
        unused += [name for name in exported if name not in elsewhere]
    assert sorted(unused) == sorted(UNREFERENCED_EXPORTS)


def test_only_graph_builds_unvalidated_graphs():
    # `Graph.__new__` skips `Graph.__init__`'s checks; `graph._graph_of_keys` is the
    # one place that may call it, for keys already ascending, distinct and loop-free.
    callers = {path.name
               for path in sorted(SRC.glob("**/*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "__new__"}
    assert callers == {"graph.py"}


# Modules that may pass axis=1, each with the reason.  On 36k (m, 2) edge rows
# (2-vCPU Xeon VM) a sort / an `all` along axis 1 took 1.0 / 0.58 ms, against
# 0.04 / 0.09 ms for the same work on the two columns.
AXIS1_CALLERS: dict[str, str] = {}


def test_no_axis1_calls_in_package():
    calls = [f"{path.name}:{node.value.lineno}"
             for path in sorted(SRC.glob("**/*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.keyword) and node.arg == "axis"
             and isinstance(node.value, ast.Constant) and node.value.value == 1]
    assert {call.split(":")[0] for call in calls} == set(AXIS1_CALLERS), calls


def _calls(name: str) -> list[tuple[str, ast.Call]]:
    """(file, call) for every call of `name`, bare or as an attribute, under src/."""
    return [(path.name, node)
            for path in sorted(SRC.glob("**/*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_only_models_calls_the_samplers():
    # `models.sample` is the one place a model tag picks its sampler; every other
    # module draws through it.
    assert {name: {path for path, _ in _calls(name)}
            for name in ("sample_gnp", "sample_regular")} == {
        "sample_gnp": {"models.py"}, "sample_regular": {"models.py"}}


# Names that only models.py may use: `models.check_params` holds the sampling rules.
SAMPLING_RULE_NAMES = {"RegularModel", "_uniform_budget"}


def test_only_models_knows_the_sampling_rules():
    # No other module tests a model tag, names RegularModel or reads the uniform
    # budget; `__init__`'s re-exports are the one exception.
    offenders = []
    for path in sorted(SRC.glob("**/*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant):
                hit = isinstance(node.value, str) and node.value in MODELS
            elif isinstance(node, ast.alias):
                hit = node.name in SAMPLING_RULE_NAMES and path.name != "__init__.py"
            else:
                hit = getattr(node, "id", getattr(node, "attr", None)) in SAMPLING_RULE_NAMES
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_witness_recipe():
    # `experiment.seeded_witness` draws the edge partition and seeds the oracle
    # for the sweep and `kplanar witness` alike, so the CLI derives no seed.
    calls = {name: [path for path, _ in _calls(name)]
             for name in ("witness_chain", "random_edge_partition", "derive_seed")}
    assert calls["witness_chain"] == ["experiment.py"]
    assert calls["random_edge_partition"] == ["experiment.py"]
    assert "cli.py" not in calls["derive_seed"]
    assert [path for path, _ in _calls("local_search_bisection")].count("experiment.py") == 1


def test_every_eigsh_call_seeds_its_vectors():
    # Left unseeded, ARPACK's restart vectors come from OS entropy, and a Lanczos
    # row whose Krylov space closes early changes its last digits from run to run.
    calls = _calls("eigsh")
    assert calls
    assert [path for path, call in calls
            if not {"v0", "rng"} <= {kw.arg for kw in call.keywords}] == []


def test_import_leaves_the_worker_pool_out():
    # A sweep imports the process pool only when it forks workers; `import kplanar`
    # and the CLI, which every run pays for, do not (about 4 ms).
    code = ("import sys, kplanar, kplanar.cli; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out == "[]\n"


def test_readme_library_imports_resolve():
    readme = SRC.parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # The CLI walkthrough runs as written, top to bottom, in an empty directory.
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, (command, capsys.readouterr().err)


def test_every_cli_flag_is_read():
    # A flag that the handler never reads is accepted and silently ignored.
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, parser in subparsers.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if action.option_strings and action.dest != "help":
                if f"args.{action.dest}" not in source and not (
                        action.dest == "quiet" and "_emit(" in source):
                    unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []
