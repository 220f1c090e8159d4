"""No module of the package or of the tests imports a name it never uses,
and importing the CLI stays cheap."""

import ast
import os
import pathlib
import subprocess
import sys

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


def imported_modules(source):
    """The top-level names of the modules `source` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    # each @dataclass execs its generated methods at import, and importing
    # dataclasses pulls in inspect: both paid again by every CLI call
    users = [path.name for path in sorted(ROOT.glob("src/ample/*.py"))
             if "dataclasses" in imported_modules(path.read_text())]
    assert users == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps the environment's site hooks out of what is measured
    code = "import sys, ample.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
