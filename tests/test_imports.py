"""No module of the package or of the tests imports a name it never uses,
no function of the package calls itself, every public name has a caller,
only the golden table pins digests, only groupoid reads the isotropy model
and the action cache (with orbits and serialize reading the model too),
and importing the CLI stays cheap."""

import ast
import os
import pathlib
import subprocess
import sys

from ample import serialize as ser
from ample import typesemigroup as ts
from ample.groupoid import cuntz
from ample.stone import clopen, whole

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


def self_calls(source):
    """The functions of `source` that call themselves, by bare name or as
    self.<name>, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name) or (
                        isinstance(f, ast.Attribute) and f.attr == node.name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    found.append(node.name)
                    break
    return found


def test_checker_finds_self_calls():
    source = ("def f(n):\n    return f(n - 1)\nclass A:\n    def g(self):\n        self.g()\n"
              "    def h(self, o):\n        o.h()\n        g()\n")
    assert self_calls(source) == ["f", "g"]


def test_no_function_recurses():
    # a recursion per letter, level or slot dies on Python's recursion
    # limit with a traceback, on inputs only a few thousand deep
    found = {path.name: self_calls(path.read_text()) for path in sorted(ROOT.glob("src/ample/*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


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


# The classes that define == or hashing themselves: the record base, and
# the values whose constructors bring them to a canonical form first.
OWN_EQUALITY = {"Record", "Frozen", "ConvElement", "Presentation", "Bisection"}


def classes_defining_equality(source):
    """The classes of `source` that define __eq__ or __hash__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
            names |= {target.id for stmt in node.body if isinstance(stmt, ast.Assign)
                      for target in stmt.targets if isinstance(target, ast.Name)}
            if names & {"__eq__", "__hash__"}:
                found.append(node.name)
    return found


def test_checker_finds_classes_defining_equality():
    source = ("class A:\n    def __eq__(self, o): pass\nclass B:\n    __hash__ = None\n"
              "class C:\n    def __repr__(self): pass\n")
    assert classes_defining_equality(source) == ["A", "B"]


def test_only_the_record_base_and_canonical_values_define_equality():
    # every other record takes ==, and hashing if Frozen, from stone.Record
    found = {name for path in sorted(ROOT.glob("src/ample/*.py"))
             for name in classes_defining_equality(path.read_text())}
    assert found - OWN_EQUALITY == set()


def loaded_after(code, modules):
    """The `modules` loaded after running `code` in a fresh interpreter."""
    script = "import sys\n%s\nprint(sorted(%r & set(sys.modules)))" % (code, set(modules))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -S keeps the environment's site hooks out of what is measured
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert loaded_after("import ample.cli", {"dataclasses", "inspect"}) == "[]"


# Modules that only some commands load: argparse serves only help, errors
# and rarer syntax, json only the errors of a malformed file, and each of
# these layers only the commands that call it.
LAZY = {"argparse", "json", "ample.typesemigroup", "ample.paradox",
        "ample.states", "ample.simplex", "ample.convalg", "ample.orbits"}


def test_cli_import_loads_no_module_only_some_commands_need():
    assert loaded_after("import ample.cli", LAZY) == "[]"


def _main_code(commands, codes):
    """Code that runs each command line through cli.main, quietly, and fails
    unless they exit with these codes."""
    return ("import contextlib, io\nfrom ample import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert [cli.main(argv) for argv in %r] == %r" % (commands, codes))


def test_state_and_orbits_load_neither_json_nor_the_search_layers():
    # `state` on cuntz:2 exits 1 with a Farkas certificate
    code = _main_code([["state", "cuntz:2", "--depth", "3"], ["orbits", "pair:3"]], [1, 0])
    assert loaded_after(code, {"json", "ample.typesemigroup", "ample.paradox"}) == "[]"


def test_dichotomy_decided_by_the_state_lp_loads_no_search_layer():
    # rotation:3 has an invariant state, so no witness search runs
    code = _main_code([["dichotomy", "rotation:3", "--depth", "2"]], [0])
    assert loaded_after(code, {"ample.typesemigroup", "ample.paradox"}) == "[]"


def test_commands_without_rationals_load_neither_argparse_nor_fractions(tmp_path):
    space = cuntz(2).space
    files = {name: str(tmp_path / (name + ".json")) for name in ("w", "f1", "f2", "cert")}
    pathlib.Path(files["f1"]).write_text(
        ser.dumps(ser.encode_family(ts.normalize(space, [(whole(space), 1), (whole(space), 2)]))))
    pathlib.Path(files["f2"]).write_text(ser.dumps(ser.encode_family(ts.family_of(whole(space)))))
    families = ["--left", files["f1"], "--right", files["f2"]]
    commands = [
        ["find-witness", "cuntz:2", "--depth", "1", "-o", files["w"]],
        ["verify-witness", "cuntz:2", "--witness", files["w"]],
        ["type-eq", "cuntz:2", *families, "--depth", "1", "-o", files["cert"]],
        ["verify-cert", "cuntz:2", *families, "--cert", files["cert"]],
        ["orbits", "pair:3"],
    ]
    # the subprocess fails unless every command exits 0; those that read a
    # file read it with json's C scanner, without json
    code = _main_code(commands, [0] * len(commands))
    assert loaded_after(code, {"argparse", "fractions", "json"}) == "[]"


def test_no_command_loads_fractions_decimal_or_numbers(tmp_path):
    # rationals are ints over a denominator from the tableau to the report
    space = cuntz(2).space
    files = {name: str(tmp_path / (name + ".json")) for name in ("w", "f", "cert", "out")}
    pathlib.Path(files["f"]).write_text(ser.dumps(ser.encode_family(ts.family_of(whole(space)))))
    families = ["--left", files["f"], "--right", files["f"]]
    commands = [
        ["find-witness", "cuntz:2", "--depth", "1", "-o", files["w"]],
        ["verify-witness", "cuntz:2", "--witness", files["w"]],
        ["type-eq", "cuntz:2", *families, "--depth", "0", "-o", files["cert"]],
        ["verify-cert", "cuntz:2", *families, "--cert", files["cert"]],
        ["state", "cuntz:2", "--depth", "3"],
        ["state", "odometer", "--depth", "3", "-o", files["out"]],
        ["--human", "state", "rotation:3", "--depth", "0"],
        ["tarski", "odometer", "--set", "1", "--depth", "3"],
        ["tarski", "cuntz:2", "--set", "1", "--depth", "2"],
        ["dichotomy", "rotation:3", "--depth", "2"],
        ["dichotomy", "cuntz:2", "--depth", "3"],
        ["orbits", "pair:3"],
        ["ideal-check", "pair:3"],
        ["isometries", "cuntz:2", "--witness", files["w"], "-o", files["out"]],
        ["isometries", "cuntz:2", "--witness", files["w"], "--matrix"],
        ["probe", "cuntz:2", "--depth", "2", "--samples", "3"],
    ]
    # every command but `state cuntz:2`, which emits a Farkas certificate, exits 0
    code = _main_code(commands, [0] * 4 + [1] + [0] * 11)
    assert loaded_after(code, {"fractions", "decimal", "numbers"}) == "[]"


def test_probe_loads_neither_states_nor_simplex():
    code = _main_code([["probe", "cuntz:2", "--depth", "2", "--samples", "5"]], [0])
    assert loaded_after(code, {"ample.states", "ample.simplex", "random"}) == "['random']"


def test_closed_form_type_eq_and_probe_load_no_lp_and_no_witness_layer(tmp_path):
    # on cuntz:k, type-eq and probe settle in closed form, in typesemigroup
    space = cuntz(3).space
    files = {name: str(tmp_path / (name + ".json")) for name in ("x", "a", "b", "cert")}
    for name, cells in (("x", [""]), ("a", ["1", "2"]), ("b", ["1", "2", "31"])):
        pathlib.Path(files[name]).write_text(
            ser.dumps(ser.encode_family(ts.family_of(clopen(space, cells)))))
    commands = [
        ["type-eq", "cuntz:3", "--left", files["x"], "--right", files["a"]],
        ["type-eq", "cuntz:3", "--left", files["x"], "--right", files["b"], "-o", files["cert"]],
        ["verify-cert", "cuntz:3", "--left", files["x"], "--right", files["b"],
         "--cert", files["cert"]],
        ["probe", "cuntz:2", "--depth", "2", "--samples", "50"],
    ]
    code = _main_code(commands, [1, 0, 0, 0])
    assert loaded_after(code, {"ample.states", "ample.simplex", "ample.paradox", "ample.convalg",
                               "ample.orbits"}) == "[]"


def test_state_loads_no_random():
    # only probe draws at random, so neither state nor the witness searches
    # of tarski and dichotomy load it
    code = _main_code([["state", "odometer", "--depth", "3"],
                       ["tarski", "cuntz:2", "--set", "1", "--depth", "2"],
                       ["dichotomy", "cuntz:2", "--depth", "3"]], [0, 0, 0])
    assert loaded_after(code, {"random"}) == "[]"


# Public names kept without a caller in src/ample or bench/, one reason each.
NO_CALLER_NEEDED = {
    "verify_witness": "a verifier: part of the trust base whatever calls it",
    "verify_equiv": "a verifier: part of the trust base whatever calls it",
    "verify_leq": "a verifier: part of the trust base whatever calls it",
    "verify_farkas": "a verifier: part of the trust base whatever calls it",
    "evaluate": "a state's value on a family, the measure the type semigroup is checked against",
    "encode_presentation": "the writer of the presentation format the CLI reads",
    "encode_leq_certificate": "the writer of the <= certificates verify-cert reads",
    "finite_groupoid": "builds a finite presentation from partial injections",
    "cuntz_witness": "the standard (k,1) witness on a cylinder of the shift",
    "Bisection.preimage": "bench/spans.py traces it by name, as a string",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def names_without_caller(paths):
    """Module-level public defs and classes of src/ample, and the public
    methods and properties of its public classes (as Class.name), that no
    code in `paths` reads as a name, an attribute or an imported name."""
    defined, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        if path.parent.name == "ample":
            for node in _public(tree.body):
                defined[node.name] = (path.name, node.name)
                if isinstance(node, ast.ClassDef):
                    for method in _public(node.body):
                        defined[node.name + "." + method.name] = (path.name, method.name)
    return sorted((module, name) for name, (module, last) in defined.items() if last not in read)


def test_checker_reads_methods_by_attribute(tmp_path):
    (tmp_path / "ample").mkdir()
    module, caller = tmp_path / "ample" / "m.py", tmp_path / "caller.py"
    module.write_text("class A:\n    def f(self): pass\n    def g(self): pass\n    def _h(self): pass\n")
    caller.write_text("A().f()\n")
    assert names_without_caller([module, caller]) == [("m.py", "A.g")]


def test_every_public_name_has_a_caller():
    paths = sorted(ROOT.glob("src/ample/*.py")) + sorted(ROOT.glob("bench/*.py"))
    missing = [(module, name) for module, name in names_without_caller(paths)
               if name not in NO_CALLER_NEEDED]
    assert missing == []


def attribute_readers(paths, attr):
    """The names of the files among `paths` that read the attribute `attr`."""
    return [path.name for path in paths
            if any(isinstance(node, ast.Attribute) and node.attr == attr
                   for node in ast.walk(ast.parse(path.read_text())))]


def test_checker_finds_attribute_readers(tmp_path):
    (tmp_path / "a.py").write_text("x = p.isotropy\n")
    (tmp_path / "b.py").write_text("isotropy = 1\ny = q.isotropy_of\n")
    assert attribute_readers(sorted(tmp_path.glob("*.py")), "isotropy") == ["a.py"]


def callers(paths, name):
    """The names of the files among `paths` that call `name`, as a name or
    an attribute."""
    return [path.name for path in paths
            if any(isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                   for node in ast.walk(ast.parse(path.read_text())))]


def test_checker_finds_callers(tmp_path):
    (tmp_path / "a.py").write_text("x = f(1)\n")
    (tmp_path / "b.py").write_text("y = m.f(2)\n")
    (tmp_path / "c.py").write_text("z = f\nw = m.f\nv = g(f)\n")
    assert callers(sorted(tmp_path.glob("*.py")), "f") == ["a.py", "b.py"]


def test_only_groupoid_knows_the_isotropy_model_and_the_action_cache():
    # the arrow keys and their algebra live in groupoid; orbits decides
    # principality and serialize writes the model, so they read it too
    paths = sorted(ROOT.glob("src/ample/*.py"))
    assert attribute_readers(paths, "isotropy") == ["groupoid.py", "orbits.py", "serialize.py"]
    assert attribute_readers(paths, "_action_cache") == ["groupoid.py"]
    # the word tables and the letter actions they are composed from are
    # groupoid's, and so is composing actions
    assert attribute_readers(paths, "_word_tables") == ["groupoid.py"]
    assert attribute_readers(paths, "_letter_actions") == ["groupoid.py"]
    assert callers(paths, "compose_actions") == ["groupoid.py"]


def test_only_states_solves_the_state_lp_and_checks_its_certificates():
    # `states.solve` runs both stages and verifies what it returns, so a
    # command reads a checked outcome and never finishes the LP itself
    paths = sorted(ROOT.glob("src/ample/*.py"))
    for name in ("solve_feasibility", "maximize", "solve_state", "verify_state", "verify_farkas"):
        assert callers(paths, name) == ["states.py"], name


def test_no_module_takes_a_rational_apart():
    # every rational is an int numerator over one int denominator, and the
    # simplex takes int step rows, so no module reads a Fraction's parts
    paths = sorted(ROOT.glob("src/ample/*.py"))
    for attr in ("numerator", "denominator"):
        assert attribute_readers(paths, attr) == [], attr


def test_only_the_golden_table_pins_digests():
    # report bytes are pinned in one place, golden.json, which its runner reads
    users = [path.name for path in sorted(ROOT.glob("tests/*.py"))
             if "hashlib" in imported_modules(path.read_text())]
    assert users == ["test_golden.py"]
