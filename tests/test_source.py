import ast
import pathlib
import re

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


def test_readme_library_imports_resolve():
    readme = SRC.parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})
