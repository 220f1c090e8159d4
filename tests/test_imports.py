"""No module of the package or of the tests imports a name it never uses."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source):
    """The names imported by `source` that it never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os, a.b\nfrom c import d as e, f\nf(a)\n"
    assert unused_imports(source) == ["os", "e"]


def test_no_unused_imports():
    files = sorted(ROOT.glob("src/ample/*.py")) + sorted(ROOT.glob("tests/*.py"))
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in files}
    assert {name: names for name, names in unused.items() if names} == {}
