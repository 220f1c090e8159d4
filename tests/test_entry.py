"""The process entry: `python -m ample.cli` answers exactly as cli.main does
in process, run() skips only the interpreter's teardown, the parser built
for one subcommand prints the texts of the eager parser of every
subcommand, and the plain parser builds the eager parser's namespace or
leaves the command line to argparse."""

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ample import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def as_process(argv, env=ENV, **kwargs):
    proc = subprocess.run([sys.executable, "-m", "ample.cli", *argv], env=env,
                          capture_output=True, text=True, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["orbits", "pair:3"], 0),
    (["--human", "state", "rotation:3", "--depth", "0"], 0),
    (["-h"], 0),
    (["state", "cuntz:2", "--depth", "1"], 1),
    (["find-witness", "rotation:3", "--k", "3", "--l", "2", "--depth", "1"], 2),
    (["find-witness", "cuntz:2", "--depth", "-1"], 3),
    (["state", "cuntz:2", "--depth", "x"], 3),
    (["frobnicate"], 3),
])
def test_the_process_answers_as_main_does(monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    expected = in_process(argv)
    assert expected[0] == code
    assert as_process(argv) == expected


def test_the_process_writes_the_whole_output_file(tmp_path):
    argv = ["find-witness", "cuntz:2", "--depth", "2", "--k", "3", "--l", "1", "-o"]
    expected = in_process(argv + [str(tmp_path / "main.json")])
    assert expected[0] == 0
    assert as_process(argv + [str(tmp_path / "run.json")]) == expected
    written = (tmp_path / "run.json").read_text()
    assert written == (tmp_path / "main.json").read_text()
    assert json.loads(written) == json.loads(expected[1])["witness"]


@pytest.mark.parametrize("argv", [["orbits", "pair:3"], ["--human", "orbits", "pair:3"]])
def test_a_closed_stdout_exits_as_without_run(argv):
    # buffered, the report meets the closed pipe only at the flush, which
    # then leaves the process to the teardown, as sys.exit(main()) would
    env = dict(ENV)
    env.pop("PYTHONUNBUFFERED", None)
    entries = {"run": ["-m", "ample.cli"],
               "main": ["-c", "import sys; from ample import cli; sys.exit(cli.main())"]}
    seen = {}
    for name, entry in entries.items():
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.run([sys.executable, *entry, *argv], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True)
        os.close(write)
        seen[name] = proc.returncode, proc.stderr
    assert seen["run"] == seen["main"]
    assert seen["run"][0] != 0 and "BrokenPipeError" in seen["run"][1]


def test_main_never_ends_the_process(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("main() must leave the process alone")

    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.setattr(gc, "freeze", refuse)
    assert cli.main(["orbits", "pair:3"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "orbits"


def test_run_freezes_flushes_and_exits_with_the_code_of_main(monkeypatch, capsys):
    calls = []

    class Exited(Exception):
        pass

    def exit_(code):
        calls.append(code)
        raise Exited

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["ample", "state", "cuntz:2", "--depth", "1"])
    with pytest.raises(Exited):
        cli.run()
    assert calls == ["freeze", 1]
    assert json.loads(capsys.readouterr().out)["outcome"] == "infeasible"


def eager_parser():
    """The parser as it was built before it was built per subcommand:
    every subparser on every call."""
    parser = argparse.ArgumentParser(
        prog="ample",
        description="exact computation with ample groupoid presentations",
    )
    parser.add_argument("--human", action="store_true", help="prose output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_depth=True, with_budget=True, with_output=True):
        p.add_argument("presentation", help="builtin alias (cuntz:2, pair:3, rotation:3, rotation:3:table, odometer, trivial:2) or a presentation file")
        if with_depth:
            p.add_argument("--depth", type=int, default=1)
        if with_budget:
            p.add_argument("--budget", type=int, default=100000)
        if with_output:
            p.add_argument("-o", "--output", help="write the emitted certificate here")

    p = sub.add_parser("verify-witness", help="check a paradoxical decomposition file")
    common(p, with_depth=False, with_budget=False, with_output=False)
    p.add_argument("--witness", required=True)

    p = sub.add_parser("find-witness", help="search a (k,l) witness for a clopen set")
    common(p)
    p.add_argument("--set", default="whole")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=1)

    p = sub.add_parser("type-eq", help="search an equivalence certificate between families")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("verify-cert", help="check an equivalence or leq certificate")
    common(p, with_depth=False, with_budget=False, with_output=False)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--cert", required=True)

    p = sub.add_parser("state", help="solve the invariant-state system at a depth")
    common(p, with_budget=False)

    p = sub.add_parser("tarski", help="state versus paradox for a clopen set")
    common(p)
    p.add_argument("--set", default="whole")

    p = sub.add_parser("dichotomy", help="desk-scale dichotomy report for the unit space")
    common(p, with_output=False)

    p = sub.add_parser("orbits", help="orbits, quasi-orbits, and invariant subsets")
    common(p, with_depth=False, with_budget=False, with_output=False)

    p = sub.add_parser("ideal-check", help="verify the ideal correspondence on a finite model")
    common(p, with_depth=False, with_budget=False, with_output=False)

    p = sub.add_parser("isometries", help="build and verify isometries from a witness")
    common(p, with_depth=False, with_budget=False)
    p.add_argument("--witness", required=True)
    p.add_argument("--matrix", action="store_true", help="matrix amplification checks")

    p = sub.add_parser("probe", help="order-unit and almost-unperforation probes")
    common(p, with_output=False)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    return parser


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--human", "-h"], [], ["frobnicate"], ["--human", "frobnicate", "-h"],
    ["--hum", "orbits", "pair:3"], ["state"], ["state", "cuntz:2", "--depth", "x"],
    ["state", "cuntz:2", "--frob"], ["orbits", "pair:3", "extra"], ["state", "cuntz:2", "--human"],
    *([name, "-h"] for name in cli.COMMANDS),
])
def test_texts_are_those_of_the_eager_parser(monkeypatch, argv):
    # only the exit code of a usage error differs: 3, where argparse gives 2
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            eager_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    texts = out.getvalue(), err.getvalue()
    if code is None:
        # a valid command line: the same namespace, less the handler
        args = cli.build_parser().parse_args(argv)
        del args.func
        assert args == eager_parser().parse_args(argv)
        return
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (out.getvalue(), err.getvalue()) == texts
    assert exc.value.code == {0: 0, 2: 3}[code]


def eager_args(argv):
    """vars() of the eager parser's namespace for argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(eager_parser().parse_args(argv))
        except SystemExit:
            return None


def plain_args(argv):
    """vars() of the plain parser's namespace less the handler, or None."""
    args = cli._parse_plain(argv)
    if args is None:
        return None
    found = vars(args)
    assert found.pop("func") is cli.COMMANDS[args.command][0]
    return found


FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flags, _ in options
                for flag in flags})
WORDS = [*cli.COMMANDS, *FLAGS, "--human", "-h", "--help", "--depth=2", "--dep", "--", "-", "-1",
         "x", " 4", "1_0", "", "2"]
ARGV = st.lists(st.sampled_from(WORDS), max_size=8)
# a leading command, so that many draws are command lines the plain parser takes
COMMAND_LINES = st.builds(lambda human, command, rest: human + [command] + rest,
                          st.sampled_from([[], ["--human"]]), st.sampled_from(sorted(cli.COMMANDS)),
                          ARGV)


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(argv=ARGV | COMMAND_LINES)
def test_the_plain_parser_builds_the_eager_namespace_or_nothing(argv):
    # in particular None whenever argparse exits, so argparse alone prints
    # help, usage and error texts
    found = plain_args(argv)
    assert found is None or found == eager_args(argv)


@pytest.mark.parametrize("argv", [
    ["find-witness", "cuntz:2", "--set", "whole", "--depth", "1", "-o", "w.json"],
    ["--human", "state", "rotation:3", "--depth", "0"],
    ["tarski", "odometer", "--set", "1", "--depth", "3", "--output", "s.json"],
    ["verify-cert", "--cert", "c.json", "cuntz:2", "--left", "f1.json", "--right", "f2.json"],
    ["isometries", "cuntz:2", "--matrix", "--witness", "w.json"],
    ["isometries", "cuntz:2", "--witness", "w.json"],
    ["probe", "cuntz:2", "--depth", " 2", "--samples", "1_0", "--seed", "7", "--budget", "9"],
    ["dichotomy", "rotation:3"],
    ["orbits", ""],
])
def test_the_plain_parser_takes_the_common_command_lines(argv):
    assert plain_args(argv) == eager_args(argv) is not None


@pytest.mark.parametrize("argv", [
    ["state", "cuntz:2", "--depth=2"], ["state", "cuntz:2", "--dep", "2"],
    ["state", "cuntz:2", "--depth", "-1"], ["state", "cuntz:2", "--depth", "1", "--depth", "2"],
    ["state", "--", "cuntz:2"], ["state", "-o", "-", "cuntz:2"], ["state", "-ox", "cuntz:2"],
    ["--human", "--human", "state", "cuntz:2"],
])
def test_the_plain_parser_leaves_rarer_syntax_to_argparse(argv):
    assert plain_args(argv) is None
    assert eager_args(argv) is not None
