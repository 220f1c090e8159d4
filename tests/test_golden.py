"""Every pinned report in one table, `golden.json` next to this module.

A row is one command line, run through `cli.main` in one directory in table
order, so a verify-witness reads the file that the find-witness before it
wrote.  It holds the exit code, the sha256 of stdout, of the `-o` file and
of each .json input read, and a summary of the report: each top-level
scalar, the `stats` object, and for each other top-level container the
number of scalars it holds.  A changed row fails with its command line and
every field that changed, old and new.

Rewrite the table with `PYTHONPATH=src python tests/test_golden.py`; the
git diff of the table is the review of a report change.  To pin a new
case, add a row holding only its argv and rewrite.
"""

import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import tempfile

import pytest

from ample import cli
from ample import serialize as ser
from ample.groupoid import Presentation, PrefixMap
from ample.stone import UnitSpace

TABLE = pathlib.Path(__file__).with_name("golden.json")
ROOT = TABLE.parent.parent

# The `search` benchmark workload's three type-eq pairs at seed 1, each a
# family of depth-3 cylinders and its image under one generator, and the
# whole space as a family.
FAMILIES = {
    "left0.json": (("111", "121", "221"), ("111", "121", "221")),
    "right0.json": (("1111", "1121", "1221"), ("1111", "1121", "1221")),
    "left1.json": (("121", "212", "221"), ("122", "221", "222")),
    "right1.json": (("2121", "2212", "2221"), ("2122", "2221", "2222")),
    "left2.json": (("111", "211", "222"), ("111", "211", "222")),
    "right2.json": (("2111", "2211", "2222"), ("2111", "2211", "2222")),
    "whole.json": (("",),),
}
# Families on the shift(3): the whole space, {1, 2}, whose cell count 2
# differs from its 1 mod 2, and {1, 2, 31}, whose count 3 does not.
SHIFT3_FAMILIES = {
    "whole3.json": (("",),),
    "one_two3.json": (("1", "2"),),
    "one_two_31_3.json": (("1", "2", "31"),),
}
# Seeds of the certify workload whose weak.json, the (5,3) weakening of its
# depth-3 witness, is copied in as weak<seed>.json.
CERTIFY_SEEDS = range(1, 11)


def write_inputs(d):
    """Write every file the rows read into directory d."""
    from test_states import _seeded_finite

    for k, families in ((2, FAMILIES), (3, SHIFT3_FAMILIES)):
        for name, sets in families.items():
            entries = [{"set": {"space": {"kind": "shift", "k": k}, "cells": list(s)},
                        "label": i + 1} for i, s in enumerate(sets)]
            (d / name).write_text(ser.dumps({"schema_version": 1, "entries": entries}))
    (d / "SEEDED.json").write_text(ser.dumps(ser.encode_presentation(_seeded_finite(6))))
    # the shift(2) with one prefix map of the whole space onto the cylinder
    # of 1: every invariant state vanishes on the cylinder of 2
    (d / "ONTO1.json").write_text(ser.dumps(ser.encode_presentation(
        Presentation(UnitSpace.shift(2), [PrefixMap("", "1")]))))
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        for seed in CERTIFY_SEEDS:
            sub = d / ("certify%d" % seed)
            sub.mkdir()
            workloads.make_inputs("certify", seed, str(sub))
            (sub / "weak.json").replace(d / ("weak%d.json" % seed))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def summarize(stdout):
    """The top-level scalars and `stats` of a report, and the number of
    scalars in each of its other top-level containers; of prose (--human),
    its number of lines."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"lines": stdout.count("\n")}
    summary = {}
    for key, value in report.items():
        if key == "stats" or not isinstance(value, (dict, list)):
            summary[key] = value
            continue
        count, stack = 0, [value]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack += item.values()
            elif isinstance(item, list):
                stack += item
            else:
                count += 1
        summary[key] = count
    return summary


def run_row(d, argv):
    """The row of one command line, run in directory d."""
    written = argv[argv.index("-o") + 1] if "-o" in argv else None
    inputs = {a: _sha256((d / a).read_bytes()) for a in argv if a.endswith(".json") and a != written}
    if written:  # rows share out.json: hash only what this row wrote
        (d / written).unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(d / a) if a.endswith(".json") else a for a in argv])
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue().encode()),
            "output": _sha256((d / written).read_bytes()) if written else None,
            "inputs": inputs, "summary": summarize(out.getvalue())}


def run_table(d, rows):
    """Run the command line of each row, in order, in directory d."""
    write_inputs(d)
    return [run_row(d, row["argv"]) for row in rows]


def flatten(row):
    """The scalar fields of a row, keyed by dotted path."""
    flat, stack = {}, [("", row)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict) and value:
            stack += [(path + "." + key if path else key, item) for key, item in value.items()]
        else:
            flat[path] = value
    return flat


def changes(old, new):
    """One line per field that differs between two rows, old and new."""
    old, new = flatten(old), flatten(new)
    return ["  %s: %r -> %r" % (key, old.get(key), new.get(key))
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


ROWS = json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    rows = run_table(tmp_path_factory.mktemp("golden"), ROWS)
    return {" ".join(row["argv"]): row for row in rows}


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_report_is_pinned(row, ran):
    command = " ".join(row["argv"])
    changed = changes(row, ran[command])
    if changed:
        pytest.fail("\n".join([command] + changed), pytrace=False)


def _forbidden(*args, **kwargs):
    raise AssertionError("a search ran")


def test_cuntz_rows_run_no_search(tmp_path, monkeypatch):
    # the closed form settles `probe` and `type-eq` on cuntz:k: with every
    # search and word table forbidden, these rows still give their pinned
    # exit code and stdout
    from ample import groupoid
    from ample import typesemigroup as ts

    for module, name in [(ts, "search_leq"), (ts, "search_equiv"), (ts, "word_table"),
                         (groupoid, "word_table")]:
        monkeypatch.setattr(module, name, _forbidden)
    rows = []
    for row in ROWS:
        command, alias = [a for a in row["argv"] if a != "--human"][:2]
        if command in ("probe", "type-eq") and alias.startswith("cuntz:"):
            rows.append(row)
    assert len(rows) == 14
    write_inputs(tmp_path)
    for row in rows:
        ran = run_row(tmp_path, row["argv"])
        assert (ran["exit"], ran["stdout"]) == (row["exit"], row["stdout"]), row["argv"]


def test_changes_name_each_field_that_moved():
    old = {"argv": ["a"], "exit": 0, "summary": {"stats": {"nodes": 16, "cells": 8}, "rows": 3}}
    new = {"argv": ["a"], "exit": 2, "summary": {"stats": {"nodes": 3, "cells": 8}}}
    assert changes(old, new) == ["  exit: 0 -> 2", "  summary.rows: 3 -> None",
                                 "  summary.stats.nodes: 16 -> 3"]
    assert summarize('{"a": 1, "b": [[1, 2], {"c": null}], "stats": {"n": 2}, "d": {}}\n') == \
        {"a": 1, "b": 3, "stats": {"n": 2}, "d": 0}
    assert summarize("found a (2,1) witness\n") == {"lines": 1}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(ser.dumps(run_table(pathlib.Path(tmp), ROWS)))
