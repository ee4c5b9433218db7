import argparse
import ast
import inspect
import pathlib
import re

from kplanar.cli import build_parser

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


def test_adj_tuples_are_built_only_for_bisection():
    # `Graph.adj` holds one Python tuple per vertex; the spectral and certify
    # path must stay on the arrays, so only partitions.py may read it.
    readers = sorted({
        path.name
        for path in SRC.glob("**/*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "adj"
    })
    assert readers == ["partitions.py"]


def test_readme_library_imports_resolve():
    readme = SRC.parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})


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
