import contextlib
import io
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ample import cli, convalg, serialize as ser, stone
from ample import paradox as px
from ample import typesemigroup as ts
from ample.groupoid import (GroupElement, Presentation, PrefixMap, cuntz, finite_groupoid, odometer,
                            rotation)
from ample.stone import UnitSpace, whole

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_find_and_verify_witness(tmp_path, capsys):
    wfile = str(tmp_path / "w.json")
    code, out, _ = run(
        capsys, "find-witness", "cuntz:2", "--set", "whole",
        "--k", "2", "--l", "1", "--depth", "1", "-o", wfile,
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"
    code, out, _ = run(capsys, "verify-witness", "cuntz:2", "--witness", wfile)
    assert code == 0
    assert json.loads(out)["accepted"]


def test_verify_witness_rejects_tampered_file(tmp_path, capsys):
    w = px.cuntz_witness(cuntz(2), "")
    data = ser.encode_witness(w)
    data["rows"][1] = data["rows"][0]  # duplicate ranges
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-witness", "cuntz:2", "--witness", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["accepted"]
    assert "overlap" in report["reason"]


def test_malformed_input_is_exit_three(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify-witness", "cuntz:2", "--witness", str(path))
    assert code == 3
    assert "input error" in err

    pres = tmp_path / "overlap.json"
    pres.write_text(json.dumps({
        "space": {"kind": "shift", "k": 2},
        "generators": [{"kind": "group_element", "label": "b",
                        "pieces": [["1", "2"], ["12", "21"]]}],
    }))
    code, _, err = run(capsys, "find-witness", str(pres), "--depth", "1")
    assert code == 3
    assert "overlapping" in err


FINITE_2 = {"kind": "finite", "n": 2}


def _injection(*pairs):
    return [{"kind": "partial_injection", "pairs": [[0, 1]]},
            {"kind": "partial_injection", "pairs": list(pairs)}]


SHIFT_2 = {"kind": "shift", "k": 2}


def _prefix_map(alpha, beta):
    return [{"kind": "prefix_map", "alpha": alpha, "beta": beta}]


@pytest.mark.parametrize("space, generators, where", [
    ({"kind": "finite", "n": "x"}, [], "presentation.space.n"),
    ({"kind": "finite", "n": 0}, [], "presentation.space.n"),
    ({"kind": "shift", "k": 12}, [], "presentation.space.k"),
    (FINITE_2, _injection([0]), "presentation.generators[1].pairs[0]"),
    (FINITE_2, _injection([1, 0], [0, 1, 1]), "presentation.generators[1].pairs[1]"),
    (FINITE_2, _injection(["0", 1]), "presentation.generators[1].pairs[0]"),
    (FINITE_2, _injection([0, True]), "presentation.generators[1].pairs[0]"),
    (FINITE_2, _injection(3), "presentation.generators[1].pairs[0]"),
    (FINITE_2, [{"kind": "partial_injection", "pairs": 5}], "presentation.generators[0].pairs"),
    (SHIFT_2, _prefix_map("", 1), "presentation.generators[0].beta"),
    (SHIFT_2, _prefix_map("", 2.0), "presentation.generators[0].beta"),
    (SHIFT_2, _prefix_map(None, "1"), "presentation.generators[0].alpha"),
    (FINITE_2, _prefix_map("", "1"), "presentation.generators[0]"),
    (SHIFT_2, [{"kind": "partial_injection", "pairs": [[0, 1]]}], "presentation.generators[0]"),
], ids=["n-string", "n-zero", "k-twelve", "short-pair", "long-pair", "string-point",
        "bool-point", "pair-not-a-list", "pairs-not-a-list", "beta-int", "beta-float",
        "alpha-null", "prefix-map-on-finite", "injection-on-shift"])
def test_bad_presentation_file_is_exit_three(tmp_path, capsys, space, generators, where):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"space": space, "generators": generators}))
    code, _, err = run(capsys, "orbits", str(pres))
    assert code == 3
    assert where + ":" in err


def test_state_rotation_exact(capsys):
    code, out, _ = run(capsys, "state", "rotation:3", "--depth", "0")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "state"
    values = report["state"]["values"]
    assert all(v == {"num": "1", "den": "3"} for _, v in values)


def test_state_cuntz_emits_farkas(capsys):
    code, out, _ = run(capsys, "state", "cuntz:2", "--depth", "1")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "infeasible"
    assert report["farkas"]["kind"] == "farkas"


def test_tarski_exit_codes(capsys):
    code, out, _ = run(capsys, "tarski", "cuntz:2", "--set", "whole", "--depth", "1")
    assert code == 0
    assert json.loads(out)["outcome"] == "paradox"
    code, out, _ = run(capsys, "tarski", "odometer", "--set", "1", "--depth", "3",
                       "--budget", "20000")
    assert code == 0
    assert json.loads(out)["outcome"] == "state"


@pytest.mark.parametrize("argv", [("cuntz:2", "--depth", "0"),
                                  ("odometer", "--set", "1", "--depth", "1"),
                                  ("odometer", "--set", "1", "--depth", "2")])
def test_tarski_claims_no_side_from_a_partial_system(capsys, argv):
    # cuntz:2 is paradoxical, yet with its depth-1 pieces skipped the
    # truncated system has a state
    code, out, _ = run(capsys, "tarski", *argv, "--budget", "20000")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "inconclusive" and report["partial"] is True
    assert "skipped" in report["note"]
    assert "state" not in report


@pytest.mark.parametrize("alias, depth", [("cuntz:2", 0), ("odometer", 1), ("odometer", 2)])
def test_state_claims_no_state_from_a_partial_system(tmp_path, capsys, alias, depth):
    # cuntz:2 is paradoxical, yet with its depth-1 pieces skipped the
    # truncated system has a state
    out_file = tmp_path / "state.json"
    code, out, _ = run(capsys, "state", alias, "--depth", str(depth), "-o", str(out_file))
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "inconclusive" and report["partial"] is True
    assert report["note"] == cli.PARTIAL_STATE_NOTE
    assert "state" not in report
    assert not out_file.exists()


def test_a_partial_system_without_a_state_is_still_refuted(tmp_path, capsys):
    # X onto the cylinders of 1 and of 2 leaves no state, whatever rows the
    # element too deep for depth 1 would add
    pres = Presentation(UnitSpace.shift(2), [PrefixMap("", "1"), PrefixMap("", "2"),
                                             GroupElement("g", (("11", "21"), ("12", "22")))])
    path = tmp_path / "pres.json"
    path.write_text(ser.dumps(ser.encode_presentation(pres)))
    code, out, _ = run(capsys, "state", str(path), "--depth", "1")
    report = json.loads(out)
    assert (code, report["outcome"], report["partial"]) == (1, "infeasible", True)
    assert report["stats"]["support"] == 2


def _two_halves_and_whole(tmp_path):
    """(left, right, cert) paths: the cylinder of 1 under labels 1 and 2,
    and the whole space, as family files on the shift(2), and a path for a
    certificate.  The odometer sends 1X onto 2X by its piece 1 -> 2, so
    its searches tile the left onto the right at depth 1, not at depth 0;
    and it has no generator '' -> i, so the closed form does not apply."""
    space = UnitSpace.shift(2)
    left, right, cert = tmp_path / "left.json", tmp_path / "right.json", tmp_path / "cert.json"
    one = stone.clopen(space, ["1"])
    left.write_text(ser.dumps(ser.encode_family(ts.normalize(space, [(one, 1), (one, 2)]))))
    right.write_text(ser.dumps(ser.encode_family(ts.family_of(whole(space)))))
    return left, right, cert


def test_type_eq_and_verify_cert(tmp_path, capsys):
    left, right, cert = _two_halves_and_whole(tmp_path)
    code, out, _ = run(
        capsys, "type-eq", "odometer", "--left", str(left), "--right", str(right),
        "--depth", "1", "-o", str(cert),
    )
    assert code == 0
    assert json.loads(out)["method"] == "search"
    code, out, _ = run(
        capsys, "verify-cert", "odometer", "--left", str(left), "--right", str(right),
        "--cert", str(cert),
    )
    assert code == 0

    # inconclusive search: equivalence needs depth 1 but none allowed
    code, out, _ = run(
        capsys, "type-eq", "odometer", "--left", str(left), "--right", str(right),
        "--depth", "0",
    )
    assert code == 2


@pytest.mark.parametrize("k, left, right", [
    (2, [["1"], ["21", "22"]], [[""]]),
    (3, [[""]], [["1", "2", "31"]]),
    (3, [["1"], ["2", "3"]], [["11", "2"], ["3"], ["1211", "1212"]]),
    (4, [[""]], [["1", "2"], ["3", "41"]]),
])
def test_each_closed_form_certificate_type_eq_writes_passes_verify_cert(tmp_path, capsys,
                                                                       k, left, right):
    space = UnitSpace.shift(k)
    paths = {}
    for side, sets in (("left", left), ("right", right)):
        paths[side] = tmp_path / (side + ".json")
        family = ts.normalize(space, [(stone.clopen(space, s), i) for i, s in enumerate(sets, 1)])
        paths[side].write_text(ser.dumps(ser.encode_family(family)))
    cert = tmp_path / "cert.json"
    alias, files = "cuntz:%d" % k, ["--left", str(paths["left"]), "--right", str(paths["right"])]
    code, out, _ = run(capsys, "type-eq", alias, *files, "--depth", "0", "-o", str(cert))
    assert code == 0 and json.loads(out)["method"] == "closed_form"
    code, out, _ = run(capsys, "verify-cert", alias, *files, "--cert", str(cert))
    assert code == 0


def test_type_eq_refutes_an_empty_family_against_a_nonempty_one_on_cuntz_2(tmp_path, capsys):
    # every count agrees mod 1, so only emptiness separates on cuntz:2
    space = cuntz(2).space
    none, x = tmp_path / "none.json", tmp_path / "x.json"
    none.write_text(ser.dumps(ser.encode_family(ts.LabeledFamily(space, ()))))
    x.write_text(ser.dumps(ser.encode_family(ts.family_of(whole(space)))))
    code, out, _ = run(capsys, "type-eq", "cuntz:2", "--left", str(none), "--right", str(x))
    assert code == 1
    assert json.loads(out)["refutation"] == {"modulus": 1, "left_count": 0, "right_count": 1}
    code, out, _ = run(capsys, "--human", "type-eq", "cuntz:2", "--left", str(x), "--right", str(none))
    assert (code, out) == (1, "not equivalent: one family is empty and the other is not\n")


def test_type_eq_prints_no_certificate_that_fails_to_verify(tmp_path, capsys, monkeypatch):
    left, right, cert = _two_halves_and_whole(tmp_path)
    search = ts._search_tiling

    def drop_a_triple(*args, **kwargs):
        outcome, left_over = search(*args, **kwargs)
        triples = outcome.certificate.triples[:-1]
        return ts.SearchOutcome(ts.EquivCertificate(triples), "found", outcome.stats), left_over

    monkeypatch.setattr(ts, "_search_tiling", drop_a_triple)
    code, out, err = run(capsys, "type-eq", "odometer", "--left", str(left), "--right", str(right),
                         "--depth", "1", "-o", str(cert))
    # a fault of the program, not of the input: exit 4, with its traceback
    assert code == 4
    # the search settles at level 1, one triple per label: the dropped one
    # leaves label 2 bare
    assert json.loads(out) == {"command": "type-eq", "outcome": "internal error",
                               "reason": "search produced a non-verifying certificate:"
                                         " domain label 2 is not covered"}
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("ample.stone.InternalError: search produced a non-verifying certificate:"
                        " domain label 2 is not covered\n")
    assert not cert.exists()


def _drop_the_last_triple(cert):
    """The certificate, or <= certificate, without its last triple."""
    if isinstance(cert, ts.LeqCertificate):
        return ts.LeqCertificate(cert.remainder, _drop_the_last_triple(cert.equivalence))
    return ts.EquivCertificate(cert.triples[:-1])


def test_type_eq_prints_no_closed_form_certificate_that_fails_to_verify(tmp_path, capsys,
                                                                        monkeypatch):
    left, right, cert = _two_halves_and_whole(tmp_path)
    closed_form = ts.closed_form
    monkeypatch.setattr(ts, "closed_form", lambda *args, **kwargs:
                        _drop_the_last_triple(closed_form(*args, **kwargs)))
    code, out, err = run(capsys, "type-eq", "cuntz:2", "--left", str(left), "--right", str(right),
                         "-o", str(cert))
    # 1X and 1X onto X: one triple per label, and the dropped one leaves
    # label 2 bare
    assert code == 4
    reason = "the closed form produced a non-verifying certificate: domain label 2 is not covered"
    assert json.loads(out) == {"command": "type-eq", "outcome": "internal error", "reason": reason}
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("ample.stone.InternalError: %s\n" % reason)
    assert not cert.exists()


def test_probe_reports_no_bound_whose_certificate_fails_to_verify(capsys, monkeypatch):
    search = ts.search_leq

    def drop_a_triple(*args):
        out = search(*args)
        if out.status != "found":
            return out
        return ts.SearchOutcome(_drop_the_last_triple(out.certificate), "found", out.stats)

    monkeypatch.setattr(ts, "search_leq", drop_a_triple)
    # the odometer has no generator '' -> i, so its bounds are searched
    code, out, err = run(capsys, "probe", "odometer", "--depth", "2", "--seed", "0", "--samples", "5")
    # a fault of the program, not a bound with "certified": false
    assert code == 4
    report = json.loads(out)
    assert (report["command"], report["outcome"]) == ("probe", "internal error")
    assert report["reason"].startswith("search produced a non-verifying certificate: ")
    assert err.startswith("Traceback (most recent call last):\n")
    assert "ample.stone.InternalError: search produced a non-verifying certificate: " in err


def test_probe_reports_no_closed_form_bound_that_fails_to_verify(capsys, monkeypatch):
    closed_form = ts.closed_form
    monkeypatch.setattr(ts, "closed_form", lambda *args, **kwargs:
                        _drop_the_last_triple(closed_form(*args, **kwargs)))
    code, out, err = run(capsys, "probe", "cuntz:2", "--depth", "2", "--seed", "0", "--samples", "5")
    assert code == 4
    report = json.loads(out)
    assert (report["command"], report["outcome"]) == ("probe", "internal error")
    assert report["reason"].startswith("the closed form produced a non-verifying certificate: ")
    assert "ample.stone.InternalError: the closed form produced a non-verifying certificate: " in err


@pytest.mark.parametrize("human", [False, True])
def test_any_exception_but_an_input_error_is_an_internal_error(capsys, monkeypatch, human):
    def fail(args, pres):
        raise KeyError("lost")

    monkeypatch.setitem(cli.COMMANDS, "orbits", (fail,) + cli.COMMANDS["orbits"][1:])
    code, out, err = run(capsys, *(["--human"] if human else []), "orbits", "pair:3")
    assert code == cli.EXIT_INTERNAL == 4
    if human:
        assert out == "internal error: 'lost'\n"
    else:
        assert json.loads(out) == {"command": "orbits", "outcome": "internal error",
                                   "reason": "'lost'"}
    assert "Traceback" in err and err.endswith("KeyError: 'lost'\n")
    # an input error keeps its own exit code
    code, out, err = run(capsys, "orbits", "cuntz:1")
    assert (code, out) == (3, "") and err.startswith("input error")


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0, 0]], "multiplication table has no identity"),
    ([[0, 0], [0, 1]], "element 0 has no inverse in the table"),
    # the generator swaps the points, but the table sends it to the identity
    ([[0, 1], [1, 0]], "table products conflict with generator actions"),
])
def test_a_table_the_groupoid_rejects_is_exit_three(tmp_path, capsys, table, message):
    path = tmp_path / "pres.json"
    swap = {"kind": "partial_injection", "pairs": [[0, 1], [1, 0]]}
    path.write_text(json.dumps({"space": FINITE_2, "generators": [swap],
                                "isotropy": {"table": table, "gen_elements": [0]}}))
    code, out, err = run(capsys, "state", str(path), "--depth", "1")
    assert (code, out, err) == (3, "", "input error at presentation: %s\n" % message)


def test_orbits_and_ideal_check(capsys):
    code, out, _ = run(capsys, "orbits", "pair:3")
    assert code == 0
    assert json.loads(out)["orbits"] == [[0, 1, 2]]
    code, out, _ = run(capsys, "ideal-check", "pair:3")
    assert code == 0
    assert json.loads(out)["passed"]
    # well formed, but g^3 fixes every point, so principality is not verified
    code, out, _ = run(capsys, "ideal-check", "rotation:3")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "inconclusive"
    assert "principal" in report["reason"]
    code, _, err = run(capsys, "ideal-check", "cuntz:2")
    assert code == 3


def test_isometries_subcommand(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(ser.dumps(ser.encode_witness(px.cuntz_witness(cuntz(2), ""))))
    code, out, _ = run(capsys, "isometries", "cuntz:2", "--witness", str(wfile))
    assert code == 0
    assert all(json.loads(out)["checks"].values())
    code, out, _ = run(capsys, "isometries", "cuntz:2", "--witness", str(wfile), "--matrix")
    assert code == 0


def test_isometries_reject_a_witness_that_does_not_verify(tmp_path, capsys):
    # row 1 lists its one piece twice, so two of its ranges overlap
    data = ser.encode_witness(px.cuntz_witness(cuntz(2), ""))
    data["rows"][0] = data["rows"][0] * 2
    wfile = tmp_path / "dup.json"
    wfile.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify-witness", "cuntz:2", "--witness", str(wfile))
    assert code == 1
    for extra in ([], ["--matrix"]):
        code, out, err = run(capsys, "isometries", "cuntz:2", "--witness", str(wfile), *extra)
        assert code == 3
        assert out == ""
        assert "ranges overlap at label 1" in err


def test_isometries_past_depth_cap_is_inconclusive(tmp_path, capsys, monkeypatch):
    wfile = tmp_path / "w.json"
    wfile.write_text(ser.dumps(ser.encode_witness(px.cuntz_witness(cuntz(2), ""))))
    monkeypatch.setattr(convalg, "DEPTH_CAP", 0)
    for extra in (["--matrix"], []):
        code, out, err = run(capsys, "isometries", "cuntz:2", "--witness", str(wfile), *extra)
        assert code == 2
        assert err == ""
        report = json.loads(out)
        assert report["outcome"] == "depth_cap"
        assert report["depth_cap"] == 0
        assert "deeper than 0" in report["reason"]


@pytest.mark.parametrize("argv, message", [
    (["state", "cuntz:2", "--depth", "x"], "ample state: error: argument --depth: invalid int value: 'x'"),
    (["state"], "ample state: error: the following arguments are required: presentation"),
    (["state", "cuntz:2", "--frob"], "ample: error: unrecognized arguments: --frob"),
])
def test_a_malformed_command_line_is_exit_three(capsys, argv, message):
    # argparse's own usage and message, but 2 means inconclusive here
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: ample")
    assert out.err.endswith("\n" + message + "\n")


@pytest.mark.parametrize("argv", [
    ["state", "cuntz:2", "--depth", "-1"],
    ["find-witness", "cuntz:2", "--depth", "-1"],
    ["find-witness", "cuntz:2", "--set", "whole", "--depth", "1", "--budget", "-1"],
    ["dichotomy", "cuntz:2", "--depth", "1", "--budget", "-4"],
    ["probe", "cuntz:2", "--samples", "-3"],
])
def test_negative_depth_is_input_error(capsys, argv):
    # every count (--depth, --budget, --samples) is checked; the option
    # before the last value is the negative one
    option = argv[-2]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert option in err


@pytest.mark.parametrize("spec", ["a", "7", "0,b", ",1", "1,", ""])
def test_bad_set_is_input_error(capsys, spec):
    # an empty item never names a set: on the shift the empty word would be X
    for alias in ("pair:3", "cuntz:2"):
        code, out, err = run(capsys, "find-witness", alias, "--set", spec, "--depth", "1")
        assert code == 3
        assert out == ""
        assert "--set" in err


def test_lp_reports_carry_stats(capsys):
    # the generator rows settle cuntz:2: the stats are those of their
    # system, and the certificate lists its support alone
    code, out, _ = run(capsys, "state", "cuntz:2", "--depth", "3")
    assert code == 1
    report = json.loads(out)
    stats = report["stats"]
    assert (stats["rows"], stats["rows_kept"], stats["cells"], stats["support"]) == (3, 3, 8, 2)
    assert stats["pivots"] > 0
    assert "stats" not in report["farkas"]
    assert len(report["farkas"]["equality_multipliers"]) == 2
    assert len(report["farkas"]["constraints"]) == 2
    code, out, _ = run(capsys, "tarski", "odometer", "--set", "1", "--depth", "3",
                       "--budget", "20000")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["cells"] == 8 and stats["rows_kept"] <= stats["rows"]


@pytest.mark.parametrize("alias, depth, multipliers", [
    ("cuntz:2", 7, ["-1", "-1"]), ("cuntz:3", 4, ["-2", "-2", "1"])])
def test_a_support_certificate_verifies_on_the_full_system(capsys, alias, depth, multipliers):
    # zero-padded by its notes, the printed certificate is one for the
    # depth-d system: the normalization and one multiplier per generator
    from ample import states

    code, out, _ = run(capsys, "state", alias, "--depth", str(depth))
    farkas = json.loads(out)["farkas"]
    assert code == 1
    assert farkas["equality_multipliers"] == [{"num": v, "den": "1"} for v in multipliers]
    assert farkas["normalization_multiplier"] == {"num": "1", "den": "1"}
    full = states.build_constraints(ser.parse_presentation_arg(alias), depth)
    row_of = {note: i for i, note in enumerate(full.notes())}
    y = [0] * len(full.equalities)
    for note, v in zip(farkas["constraints"], multipliers):
        y[row_of[note]] = int(v)
    assert states.verify_farkas(full, states.FarkasCertificate(tuple(y), 1, 1))


def test_a_farkas_certificate_that_fails_to_verify_is_never_printed(tmp_path, capsys, monkeypatch):
    from ample import simplex

    solve = simplex.solve_feasibility
    out_file = tmp_path / "farkas.json"

    def flip_a_multiplier(*args):
        res = solve(*args)
        i = next(i for i, v in enumerate(res.y) if v)
        return simplex.Infeasible(res.y[:i] + (-res.y[i],) + res.y[i + 1:], res.den, res.stats)

    monkeypatch.setattr(simplex, "solve_feasibility", flip_a_multiplier)
    code, out, err = run(capsys, "state", "cuntz:2", "--depth", "3", "-o", str(out_file))
    assert code == 4
    assert json.loads(out) == {"command": "state", "outcome": "internal error",
                               "reason": "solver produced a non-verifying Farkas certificate"}
    assert err.endswith("ample.stone.InternalError: solver produced a non-verifying Farkas"
                        " certificate\n")
    assert not out_file.exists()


@pytest.mark.parametrize("solver, argv", [
    ("solve_feasibility", ["state", "odometer", "--depth", "3"]),
    ("maximize", ["tarski", "odometer", "--set", "1", "--depth", "3"])], ids=["state", "tarski"])
def test_a_state_that_fails_to_verify_is_never_printed(tmp_path, capsys, monkeypatch, solver, argv):
    # the odometer's depth-3 system is complete, and the moved value is
    # still nonnegative
    from ample import simplex

    solve = getattr(simplex, solver)
    out_file = tmp_path / "state.json"

    def move_a_value(*args):
        res = solve(*args)
        res.x = (res.x[0] + 1,) + res.x[1:]
        return res

    monkeypatch.setattr(simplex, solver, move_a_value)
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert code == 4
    assert json.loads(out) == {"command": argv[0], "outcome": "internal error",
                               "reason": "solver produced a non-verifying state"}
    assert err.endswith("ample.stone.InternalError: solver produced a non-verifying state\n")
    assert not out_file.exists()


@pytest.mark.parametrize("values, side", [
    ((1, 0), "stably finite at this depth: the state found is zero on 1 of 2 cells"),
    ((1, 1), "stably finite at this depth: faithful trace candidate exists")])
def test_dichotomy_claims_faithful_only_for_a_positive_state(capsys, monkeypatch, values, side):
    # cuntz:2 is minimal, and the state is made up
    from ample import states

    def made_up(pres, a, depth, budget):
        sv = states.StateVector(depth, ("1", "2"), values, sum(values))
        return states.TarskiReport("state", depth, state=sv, scale=(1, 1))

    monkeypatch.setattr(states, "tarski_report", made_up)
    code, out, _ = run(capsys, "dichotomy", "cuntz:2", "--depth", "1")
    report = json.loads(out)
    assert (code, report["minimal"], report["whole_space"], report["side"]) == (0, "yes", "state", side)


def test_probe_and_dichotomy(capsys):
    code, out, _ = run(capsys, "probe", "pair:3", "--depth", "1", "--samples", "5",
                       "--seed", "3", "--budget", "5000")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    code, out, _ = run(capsys, "dichotomy", "rotation:3", "--depth", "2", "--budget", "10000")
    assert code == 0
    assert json.loads(out)["whole_space"] == "state"


@pytest.mark.parametrize("alias, depth, expected", [
    ("cuntz:2", 0, 2), ("odometer", 1, 2), ("odometer", 2, 2), ("rotation:3", 2, 0)])
def test_dichotomy_claims_no_side_from_a_partial_system(capsys, alias, depth, expected):
    # below depth 3 the odometer's pieces of length 2 and 3 are skipped; a
    # state of such a system says nothing about the whole space either
    code, out, _ = run(capsys, "dichotomy", alias, "--depth", str(depth), "--budget", "2000")
    assert code == expected
    report = json.loads(out)
    if expected:
        assert report["whole_space"] == report["side"] == "inconclusive"
        assert "skipped" in report["note"]
    else:
        assert report["whole_space"] == "state"
        assert report["side"].startswith("stably finite")


@pytest.mark.parametrize("alias, depth, minimal", [
    ("odometer", 3, "unknown"), ("odometer", 6, "unknown"),
    ("FINITE", 2, "no")])
def test_dichotomy_claims_no_side_without_minimality(capsys, tmp_path, alias, depth, minimal):
    # the odometer's system is complete from depth 3 and has a state, but
    # the truncated odometer is never shown minimal; pair(2) next to a fixed
    # point has two orbits
    if alias == "FINITE":
        alias = str(tmp_path / "two_orbits.json")
        (tmp_path / "two_orbits.json").write_text(ser.dumps(ser.encode_presentation(
            finite_groupoid(3, [[(0, 1)]]))))
    code, out, _ = run(capsys, "dichotomy", alias, "--depth", str(depth), "--budget", "2000")
    report = json.loads(out)
    assert (code, report["minimal"], report["side"]) == (2, minimal, "inconclusive")
    assert report["note"] == "no side without the minimality hypothesis: minimal is %s" % minimal
    assert "state" not in report and "witness" not in report


def test_reports_are_deterministic(capsys):
    run1 = run(capsys, "tarski", "cuntz:2", "--set", "whole", "--depth", "1")
    run2 = run(capsys, "tarski", "cuntz:2", "--set", "whole", "--depth", "1")
    assert run1 == run2
    run3 = run(capsys, "probe", "cuntz:2", "--depth", "2", "--samples", "4",
               "--seed", "9", "--budget", "3000")
    run4 = run(capsys, "probe", "cuntz:2", "--depth", "2", "--samples", "4",
               "--seed", "9", "--budget", "3000")
    assert run3 == run4


def test_human_flag(capsys):
    code, out, _ = run(capsys, "--human", "state", "rotation:3", "--depth", "0")
    assert code == 0
    assert "mu(" in out and "{" not in out.splitlines()[0]


def test_emitted_certificates_reverify_through_cli(tmp_path, capsys):
    wfile = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "find-witness", "cuntz:3", "--set", "2",
                     "--k", "2", "--l", "1", "--depth", "2", "-o", wfile)
    assert code == 0
    code, _, _ = run(capsys, "verify-witness", "cuntz:3", "--witness", wfile)
    assert code == 0


def test_search_reports_carry_stats(tmp_path, capsys):
    # the values are pinned in golden.json; here, only where stats go
    code, out, _ = run(capsys, "find-witness", "cuntz:2", "--set", "whole",
                       "--depth", "3", "-o", str(tmp_path / "w.json"))
    assert code == 0
    report = json.loads(out)
    assert "stats" in report and "stats" not in report["witness"]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(ser.encode_family(ts.family_of(whole(cuntz(2).space)))))
    # the odometer's type-eq searches; cuntz:2's is decided in closed form,
    # with no search and so no stats
    for alias, method in (("odometer", "search"), ("cuntz:2", "closed_form")):
        code, out, _ = run(capsys, "type-eq", alias, "--left", str(path), "--right", str(path),
                           "--depth", "0")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == method
        assert ("stats" in report) == (method == "search") and "stats" not in report["certificate"]


def _bad_witness(field, value):
    data = ser.encode_witness(px.cuntz_witness(cuntz(2), ""))
    if field == "m":
        data["rows"][0][0]["m"] = value
    elif field == "word":
        data["rows"][0][0]["bisection"]["pieces"][0]["word"] = value
    else:
        data[field] = value
    return data


@pytest.mark.parametrize("field, value, path", [
    ("k", "two", "witness.k"),
    ("rows", 5, "witness.rows"),
    ("m", [1], "witness.rows[0][0].m"),
    ("schema_version", 99, "witness.schema_version"),
    ("word", 5, "witness.rows[0][0].bisection.pieces[0].word"),
    ("word", [["g1", True]], "witness.rows[0][0].bisection.pieces[0].word[0]"),
    ("word", [["g1", 1.0]], "witness.rows[0][0].bisection.pieces[0].word[0]"),
    ("word", [["gx", 1]], "witness.rows[0][0].bisection.pieces[0].word[0]"),
])
def test_bad_witness_field_is_input_error(tmp_path, capsys, field, value, path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(_bad_witness(field, value)))
    code, out, err = run(capsys, "verify-witness", "cuntz:2", "--witness", str(wfile))
    assert code == 3
    assert out == ""
    assert err.startswith("input error at %s: " % path)


def test_bad_schema_version_of_a_presentation_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    data = ser.encode_presentation(cuntz(2))
    data["schema_version"] = 2
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "state", str(path), "--depth", "1")
    assert code == 3
    assert "presentation.schema_version" in err


def test_bad_builtin_alias_names_the_alias_error(capsys):
    code, out, err = run(capsys, "dichotomy", "cuntz:1")
    assert code == 3
    assert out == ""
    assert "cuntz:1" in err and "alphabet of size at least 2" in err
    assert "No such file" not in err


@pytest.mark.parametrize("alias", ["cuntz:2:7", "trivial:2:x", "odometer:3:1", "rotation:3:foo",
                                   "rotation:3:table:x", "pair:3:table"])
def test_alias_parts_the_alias_does_not_take_are_input_errors(capsys, alias):
    code, out, err = run(capsys, "find-witness", alias, "--depth", "0")
    assert code == 3
    assert out == ""
    assert "bad builtin alias %r" % alias in err


def test_ideal_check_pair_eight_passes(capsys):
    code, out, _ = run(capsys, "ideal-check", "pair:8")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["arrow_count"] == 64
    code, out, _ = run(capsys, "--human", "ideal-check", "pair:8")
    assert code == 0
    assert "ideal lattice check: passed" in out


@pytest.mark.parametrize("name", ["cuntz", "pair", "rotation", "trivial"])
def test_a_bare_builtin_name_is_the_alias_error(capsys, name):
    code, out, err = run(capsys, "find-witness", name, "--depth", "0")
    assert code == 3
    assert out == ""
    assert "bad builtin alias %r: expected %s:n" % (name, name) in err
    assert "cannot read" not in err


def test_a_file_named_like_a_builtin_is_still_read(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair").write_text(ser.dumps(ser.encode_presentation(rotation(3))))
    code, out, _ = run(capsys, "orbits", "pair")
    assert code == 0
    assert json.loads(out)["orbits"] == [[0, 1, 2]]


@pytest.mark.parametrize("command", ["orbits", "ideal-check"])
def test_more_orbits_than_enumerated_is_inconclusive(capsys, command):
    # a well-formed presentation: only the orbit limit stops the command
    code, out, err = run(capsys, command, "trivial:13")
    assert code == 2
    assert err == ""
    assert json.loads(out) == {"command": command, "outcome": "inconclusive",
                               "reason": "too many orbits for lattice enumeration: 13 > 12"}


def _set(data, keys, value):
    """A copy of the JSON `data` with the entry at `keys` set to `value`."""
    data = json.loads(json.dumps(data))
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


def _group_element(pieces):
    return {"kind": "group_element", "label": "b", "pieces": pieces}


@pytest.mark.parametrize("bad, keys, value, where", [
    ("family", ("entries", 0, "label"), "x", "family.entries[0].label"),
    ("certificate", ("triples", 0, "n"), "x", "certificate.triples[0].n"),
    ("certificate", ("triples", 0, "m"), "2x", "certificate.triples[0].m"),
    ("presentation", ("isotropy", "table"), [["x"]], "presentation.isotropy.table[0][0]"),
    ("presentation", ("isotropy", "table"), [5], "presentation.isotropy.table[0]"),
    ("presentation", ("isotropy", "gen_elements"), [["x"]],
     "presentation.isotropy.gen_elements[0]"),
    ("presentation", ("isotropy", "gen_elements"), [99], "presentation"),
    ("presentation", ("generators", 0), _group_element(5), "presentation.generators[0].pieces"),
    ("presentation", ("generators", 0), _group_element([5]),
     "presentation.generators[0].pieces[0]"),
    ("certificate", ("triples", 0, "bisection", "pieces", 0, "word"), 5,
     "certificate.triples[0].bisection.pieces[0].word"),
    ("presentation", ("generators", 0), dict(_group_element([]), label=7),
     "presentation.generators[0].label"),
], ids=["label-string", "n-string", "m-string", "table-entry-string", "table-row-int",
        "gen-element-list", "gen-element-range", "pieces-int", "piece-int", "word-int",
        "group-label-int"])
def test_bad_field_of_a_read_file_is_exit_three(tmp_path, capsys, bad, keys, value, where):
    c2 = cuntz(2)
    x = ts.family_of(whole(c2.space))
    files = {
        "presentation": ser.encode_presentation(rotation(3, with_table=True)),
        "family": ser.encode_family(x),
        "certificate": ser.encode_equiv_certificate(
            ts.search_equiv(c2, ts.multiple(x, 2), x, 1).certificate),
    }
    files[bad] = _set(files[bad], keys, value)
    for name, data in files.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(data))
    family, cert = str(tmp_path / "family.json"), str(tmp_path / "certificate.json")
    if bad == "presentation":
        argv = ["orbits", str(tmp_path / "presentation.json")]
    else:
        argv = ["verify-cert", "cuntz:2", "--left", family, "--right", family, "--cert", cert]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("input error at %s: " % where)


@pytest.mark.parametrize("space, good, bad, message", [
    ({"kind": "shift", "k": 2}, {"kind": "prefix_map", "alpha": "", "beta": "1"},
     _group_element([["1", "3"]]), "letter '3' out of range for Shift(2)"),
    ({"kind": "finite", "n": 3}, {"kind": "partial_injection", "pairs": [[0, 1]]},
     {"kind": "partial_injection", "pairs": [[0, 5]]}, "point 5 out of range for Finite(3)"),
], ids=["group-element-letter", "partial-injection-point"])
def test_a_cell_outside_the_space_names_its_generator(tmp_path, capsys, space, good, bad, message):
    pfile = tmp_path / "presentation.json"
    pfile.write_text(json.dumps({"schema_version": 1, "space": space, "generators": [good, bad]}))
    code, out, err = run(capsys, "orbits", str(pfile))
    assert code == 3
    assert out == ""
    assert err == "input error at presentation.generators[1]: %s\n" % message


# (file, keys, value, message after "input error at "): a bad letter or a
# non-string cell in a read file, which `stone.clopen` rejects as a CellError
BAD_FILE_CELLS = [
    ("witness", ("A", "cells", 0), "3", "witness.A.cells: letter '3' out of range for Shift(2)"),
    ("witness", ("A", "cells", 0), 5, "witness.A.cells: shift cell must be a word string, got 5"),
    ("witness", ("rows", 0, 0, "bisection", "pieces", 0, "domain", "cells", 0), "21x",
     "witness.rows[0][0].bisection.pieces[0].domain.cells: letter 'x' out of range for Shift(2)"),
    ("witness", ("rows", 0, 0, "bisection", "pieces", 0, "domain", "cells", 0), None,
     "witness.rows[0][0].bisection.pieces[0].domain.cells: shift cell must be a word string, "
     "got None"),
    ("family", ("entries", 1, "set", "cells", 0), "10",
     "family.entries[1].set.cells: letter '0' out of range for Shift(2)"),
    ("family", ("entries", 1, "set", "cells", 0), 1,
     "family.entries[1].set.cells: shift cell must be a word string, got 1"),
]


def test_a_bad_cell_in_a_read_file_is_exit_three_with_its_message(tmp_path, capsys):
    files = _read_files(tmp_path)
    capsys.readouterr()  # the reports that wrote the files
    for name, keys, value, message in BAD_FILE_CELLS:
        path, argv = files[name]
        with open(path) as fh:
            original = fh.read()
        with open(path, "w") as fh:
            json.dump(_set(json.loads(original), keys, value), fh)
        assert run(capsys, *argv) == (3, "", "input error at %s\n" % message), (name, keys, value)
        with open(path, "w") as fh:
            fh.write(original)


@pytest.mark.parametrize("argv, message", [
    (["find-witness", "cuntz:2", "--set", "13"], "--set 13: letter '3' out of range for Shift(2)"),
    (["find-witness", "cuntz:2", "--set", "2,0"], "--set 2,0: letter '0' out of range for Shift(2)"),
    (["tarski", "rotation:3", "--set", "3"], "--set 3: point 3 out of range for Finite(3)"),
    (["tarski", "rotation:3", "--set", "1,x"],
     "--set 1,x: invalid literal for int() with base 10: 'x'"),
], ids=["shift-letter", "shift-second-item", "finite-point", "finite-not-an-int"])
def test_a_bad_cell_in_set_is_exit_three_with_its_message(capsys, argv, message):
    assert run(capsys, *argv, "--depth", "1") == (3, "", "input error: %s\n" % message)


@pytest.mark.parametrize("row", [1, 2])
def test_non_associative_table_above_24_elements_is_input_error(tmp_path, capsys, row):
    # Z_25 with two entries of one row swapped keeps its identity and inverses
    data = ser.encode_presentation(rotation(25, with_table=True))
    table = data["isotropy"]["table"]
    table[row][1], table[row][2] = table[row][2], table[row][1]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "ideal-check", str(path))
    assert code == 3
    assert "multiplication table is not associative" in err


LEAVES = (5, "x", None, True, 1.5, [], {})


def _key_paths(data, keys=()):
    """The keys leading to each node of the JSON `data`, the root first."""
    yield keys
    if isinstance(data, (dict, list)):
        for key, value in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _key_paths(value, keys + (key,))


def _read_files(directory):
    """An emitted witness, certificate and two families and three
    presentation files, written to `directory`: for each file the reading
    command's name -> (path, argv)."""
    c2 = cuntz(2)
    x = whole(c2.space)
    written = {
        "family": ser.encode_family(ts.normalize(c2.space, [(x, 1), (x, 2)])),
        "right": ser.encode_family(ts.family_of(x)),
        "shift": ser.encode_presentation(c2),
        "finite": ser.encode_presentation(rotation(3, with_table=True)),
        "odometer": ser.encode_presentation(odometer(2)),
    }
    path = {name: str(directory / (name + ".json"))
            for name in ("witness", "certificate", *written)}
    for name, data in written.items():
        (directory / (name + ".json")).write_text(ser.dumps(data))
    assert cli.main(["find-witness", "cuntz:2", "--set", "whole", "--depth", "1",
                     "-o", path["witness"]]) == 0
    verify_cert = ["verify-cert", "cuntz:2", "--left", path["family"], "--right", path["right"]]
    assert cli.main(["type-eq", *verify_cert[1:], "--depth", "1", "-o", path["certificate"]]) == 0
    verify_cert += ["--cert", path["certificate"]]
    commands = {
        "witness": ["verify-witness", "cuntz:2", "--witness", path["witness"]],
        "family": verify_cert,
        "certificate": verify_cert,
        "shift": ["state", path["shift"], "--depth", "1"],
        "finite": ["orbits", path["finite"]],
        "odometer": ["state", path["odometer"], "--depth", "1"],
    }
    return {name: (path[name], argv) for name, argv in commands.items()}


def test_one_leaf_mutations_of_read_files_never_raise(tmp_path, capsys):
    for name, (path, argv) in _read_files(tmp_path).items():
        with open(path) as fh:
            original = fh.read()
        data = json.loads(original)
        for keys in _key_paths(data):
            for leaf in LEAVES:
                with open(path, "w") as fh:
                    json.dump(_set(data, keys, leaf) if keys else leaf, fh)
                code, _, _ = run(capsys, *argv)
                assert code in (0, 1, 2, 3), (name, keys, leaf)
        with open(path, "w") as fh:
            fh.write(original)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.text("12gx", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("knm", max_size=2), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _get(data, keys):
    for key in keys:
        data = data[key]
    return data


def _swapped(value):
    """`value` as another JSON type: containers trade places, and scalars
    go to and from strings."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    if isinstance(value, str):
        return len(value)
    if value is None:
        return []
    return str(value)


def _mutated(data, draw):
    """`data` with one node set to a drawn value, deleted, swapped to
    another type or, for a list, truncated."""
    op = draw(st.sampled_from(("set", "delete", "swap", "truncate")))
    paths = list(_key_paths(data))
    if op == "delete":
        paths = paths[1:]
    elif op == "truncate":
        paths = [keys for keys in paths if isinstance(_get(data, keys), list) and _get(data, keys)]
    if not paths:
        return data
    keys = draw(st.sampled_from(paths))
    node = _get(data, keys)
    if op == "delete":
        data = json.loads(json.dumps(data))
        del _get(data, keys[:-1])[keys[-1]]
        return data
    if op == "set":
        value = draw(JSON)
    elif op == "swap":
        value = _swapped(node)
    else:
        value = node[:draw(st.integers(0, len(node) - 1))]
    return _set(data, keys, value) if keys else value


@pytest.fixture(scope="module")
def read_files(tmp_path_factory):
    files = _read_files(tmp_path_factory.mktemp("read"))
    return {name: (path, argv, pathlib.Path(path).read_text())
            for name, (path, argv) in files.items()}


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_deep_mutations_of_read_files_never_raise(read_files, data):
    # several leaves at once, deleted keys, type swaps and truncated lists
    name = data.draw(st.sampled_from(sorted(read_files)))
    path, argv, original = read_files[name]
    doc = json.loads(original)
    for _ in range(data.draw(st.integers(1, 5))):
        doc = _mutated(doc, data.draw)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        with open(path, "w") as fh:
            fh.write(original)
    assert code in (0, 1, 2, 3), (name, doc)


@pytest.mark.parametrize("argv", [["find-witness", "cuntz:2", "--depth", "1"],
                                  ["tarski", "cuntz:2", "--depth", "1"]])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_an_output_path_that_cannot_be_written_is_exit_three(tmp_path, capsys, argv, target):
    path = tmp_path / "no" / "w.json" if target == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("input error at %s: cannot write: " % path)


def test_a_read_file_that_is_not_utf8_is_exit_three(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "state", str(path))
    assert code == 3
    assert err.startswith("input error at %s: not UTF-8: " % path)


FAMILY_HEAD = '{"schema_version": 1, "entries": [{"set": {"space": {"kind": "shift", "k": 2}, "cells": [""]}'


@pytest.mark.parametrize("name, data, where, message", [
    ("empty", b"", ":1", "Expecting value"),
    ("blank", b" \n\t ", ":2", "Expecting value"),
    ("trailing data", b'{"schema_version": 1} x', ":1", "Extra data"),
    ("trailing object", b'{"schema_version": 1}\n\n{', ":3", "Extra data"),
    ("bom", b'\xef\xbb\xbf{"schema_version": 1}', ":1", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("truncated object", b'{"schema_version": 1, "entries": [', ":1", "Expecting value"),
    ("truncated list", b"[1, 2", ":1", "Expecting ',' delimiter"),
    ("trailing comma", b'{"schema_version": 1,}', ":1", "Expecting property name enclosed in double quotes"),
    ("nan", (FAMILY_HEAD + ', "label": NaN}]}').encode(), None,
     "family.entries[0].label: expected an integer, got nan"),
    ("infinity", (FAMILY_HEAD + ', "label": -Infinity}]}').encode(), None,
     "family.entries[0].label: expected an integer, got -inf"),
])
def test_a_malformed_json_file_is_exit_three_with_json_s_message(tmp_path, capsys, name, data, where,
                                                                   message):
    path = tmp_path / "f.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "type-eq", "cuntz:2", "--left", str(path), "--right", str(path))
    assert (code, out) == (3, "")
    assert err == "input error at %s\n" % (message if where is None else "%s%s: %s" % (path, where, message))


def test_a_malformed_json_file_gives_json_s_message_in_a_fresh_process(tmp_path):
    # a fresh command has not loaded json, whose errors the C scanner builds
    path = tmp_path / "f.json"
    path.write_text('{"schema_version": 1, "entries": [')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ample.cli", "type-eq", "cuntz:2", "--left", str(path),
                           "--right", str(path)], env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "input error at %s:1: Expecting value\n" % path


def test_a_read_file_nested_too_deeply_is_exit_three(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "verify-witness", "cuntz:2", "--witness", str(path))
    assert code == 3
    assert err == "input error at %s: JSON nested too deeply to read\n" % path


@pytest.mark.parametrize("version", [True, 1.0])
def test_a_schema_version_equal_to_one_but_not_the_integer_is_exit_three(tmp_path, capsys, version):
    left = tmp_path / "left.json"
    left.write_text(json.dumps({"schema_version": version, "entries": []}))
    code, _, err = run(capsys, "type-eq", "cuntz:2", "--left", str(left), "--right", str(left))
    assert code == 3
    assert err == "input error at family.schema_version: expected an integer, got %r\n" % version


def test_a_read_file_with_an_integer_past_the_conversion_limit_is_exit_three(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"schema_version": 1, "entries": [{"set": {"space": {"kind": "shift", "k": 2},'
                    ' "cells": [""]}, "label": %s}]}' % ("1" * 5000))
    code, out, err = run(capsys, "type-eq", "cuntz:2", "--left", str(path), "--right", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("input error at %s: number too long to read: " % path)


def run_shallow(capsys, *argv):
    """run() under a recursion limit far below the 3,000 letters or levels
    of the inputs below, so a recursion per letter or level fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        return run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)


def _one_piece_witness(tmp_path, word):
    """A (2,1) witness of the whole shift with the same piece in both rows."""
    whole_set = {"space": SHIFT_2, "cells": [""]}
    row = [{"bisection": {"pieces": [{"word": word, "domain": whole_set}]}, "m": 1}]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema_version": 1, "A": whole_set, "k": 2, "l": 1,
                                "rows": [row, row]}))
    return str(path)


def test_a_piece_word_of_thousands_of_letters_reaches_the_verifier(tmp_path, capsys):
    witness = _one_piece_witness(tmp_path, [["g1", 1]] * 3000)
    code, out, _ = run_shallow(capsys, "verify-witness", "cuntz:2", "--witness", witness)
    assert code == 1
    assert json.loads(out)["reason"] == "ranges overlap at label 1 (piece (2,1))"


def test_a_domain_escaping_a_map_thousands_of_letters_deep_is_exit_three(tmp_path, capsys):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"space": SHIFT_2, "generators": _prefix_map("1" * 3000, "")}))
    witness = _one_piece_witness(tmp_path, [["g1", 1]])
    code, _, err = run_shallow(capsys, "verify-witness", str(pres), "--witness", witness)
    assert code == 3
    assert err == ("input error at witness.rows[0][0].bisection: piece domain [''] escapes the "
                   "partial map of its word\n")


def _one_cell_family(tmp_path, cell):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [
        {"set": {"space": SHIFT_2, "cells": [cell]}, "label": 1}]}))
    return str(path)


def test_a_cell_of_a_hundred_thousand_letters_is_exit_three_at_once(tmp_path):
    # `stone.leaf_spans` would build all 100,000 prefixes of the cell: over
    # 120 s and about 5 GB
    family = _one_cell_family(tmp_path, "1" * 100000)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["type-eq", "cuntz:2", "--left", family, "--right", family, "--depth", "0"]
    proc = subprocess.run([sys.executable, "-m", "ample.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("input error at family.entries[0].set.cells[0]: word of 100000 letters;"
                           " at most %d are accepted\n" % stone.MAX_WORD_LENGTH)


def test_ten_cells_at_the_word_cap_are_exit_three_at_once(tmp_path):
    # each cell is under the word cap, but `stone.leaf_spans` over all ten
    # took 1.16 s and 263 MiB; the file's letters cross the cap at the third
    rng = random.Random(10)
    cells = ["".join(rng.choice("12") for _ in range(stone.MAX_WORD_LENGTH)) for _ in range(10)]
    family = tmp_path / "f.json"
    family.write_text(json.dumps({"schema_version": 1, "entries": [
        {"set": {"space": SHIFT_2, "cells": cells}, "label": 1}]}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["type-eq", "cuntz:2", "--left", str(family), "--right", str(family), "--depth", "0"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ample.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("input error at family.entries[0].set.cells[2]: shift words of over"
                           " %d letters in one file\n" % stone.MAX_INPUT_LETTERS)
    assert elapsed < 0.5, elapsed


def test_the_letter_cap_counts_each_file_alone(tmp_path, capsys):
    # a presentation and a family each at the cap are read; one more word
    # in the family is an input error at that word
    half = stone.MAX_INPUT_LETTERS // 2
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"schema_version": 1, "space": SHIFT_2,
                                "generators": _prefix_map("1" * half, "2" * half)}))

    def type_eq(cells):
        family = tmp_path / "f.json"
        family.write_text(json.dumps({"schema_version": 1, "entries": [
            {"set": {"space": SHIFT_2, "cells": cells}, "label": 1}]}))
        return run(capsys, "type-eq", str(pres), "--left", str(family), "--right", str(family),
                   "--depth", "0")

    assert type_eq(["1" * half, "2" * half])[0] in (0, 2)
    assert type_eq(["1" * half, "2" * half, "12"]) == (
        3, "", "input error at family.entries[0].set.cells[2]: shift words of over %d letters"
        " in one file\n" % stone.MAX_INPUT_LETTERS)


@pytest.mark.parametrize("where", ["cells", "alpha", "beta", "pieces", "set"])
def test_every_shift_word_input_is_capped(tmp_path, capsys, where):
    def outcome(n):
        word = "1" * n
        pres = tmp_path / "p.json"
        generators = (_prefix_map(word, "") if where == "alpha" else _prefix_map("", word)
                      if where == "beta" else [{"kind": "group_element", "label": "g",
                                                "pieces": [["2", word]]}])
        pres.write_text(json.dumps({"schema_version": 1, "space": SHIFT_2,
                                    "generators": generators}))
        if where == "set":
            return run(capsys, "find-witness", "cuntz:2", "--set", word, "--depth", "0")
        if where == "cells":
            family = _one_cell_family(tmp_path, word)
            return run(capsys, "type-eq", "cuntz:2", "--left", family, "--right", family,
                       "--depth", "0")
        return run(capsys, "find-witness", str(pres), "--depth", "0")

    at_cap = outcome(stone.MAX_WORD_LENGTH)
    assert at_cap[0] in (0, 2), at_cap
    path = {"cells": "family.entries[0].set.cells[0]", "alpha": "presentation.generators[0].alpha",
            "beta": "presentation.generators[0].beta",
            "pieces": "presentation.generators[0].pieces[0][1]", "set": "--set"}[where]
    assert outcome(stone.MAX_WORD_LENGTH + 1) == (
        3, "", "input error at %s: word of %d letters; at most %d are accepted\n"
        % (path, stone.MAX_WORD_LENGTH + 1, stone.MAX_WORD_LENGTH))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


@pytest.mark.parametrize("argv", [
    ["find-witness", "cuntz:2", "--set", "whole", "--depth", "16", "--budget", "1"],
    ["dichotomy", "cuntz:2", "--depth", "16"],
    ["state", "odometer", "--depth", "23"],
], ids=lambda argv: argv[0])
def test_running_out_of_memory_is_inconclusive(argv):
    # each needs well over 400 MiB (the word table of depth 16, which the
    # dichotomy's witness search builds too, and the 2^23 cells of the
    # odometer's state LP); the limit is set in the child alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ample.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=30, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout) == {"command": argv[0], "outcome": "inconclusive",
                                       "reason": "out of memory"}


# a fresh process runs the command as its one child, so the peak RSS of its
# children is the command's alone; it prints the exit code, the seconds, the
# MiB and then the report
_TIMED = """
import resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run([sys.executable, "-m", "ample.cli", *sys.argv[1:]],
                      stdout=subprocess.PIPE, text=True)
print(proc.returncode, time.perf_counter() - start,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
print(proc.stdout, end="")
"""


@pytest.mark.parametrize("argv, code, status, seconds", [
    (["find-witness", "cuntz:2", "--set", "whole", "--depth", "8", "--budget", "1"], 2, "budget",
     0.5),
    (["find-witness", "cuntz:2", "--set", "whole", "--depth", "8", "--budget", "1000"], 0, "found",
     0.5),
    # most of its time is the minimality check over the 256 cylinders of depth 8
    (["dichotomy", "cuntz:2", "--depth", "8"], 0, None, 3),
], ids=["find-witness-budget-1", "find-witness-budget-1000", "dichotomy"])
def test_a_search_settled_at_a_coarse_level_is_small_and_fast(argv, code, status, seconds):
    # the unit space of cuntz:2 has a witness on the cell of depth 0: the
    # first node spends a budget of 1, and three nodes find it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _TIMED, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    measured, _, out = proc.stdout.partition("\n")
    got, elapsed, mib = measured.split()
    report = json.loads(out)
    assert int(got) == code
    assert float(elapsed) < seconds
    assert float(mib) < 100
    if status is None:
        assert report["side"] == "purely infinite at this depth: unit space is paradoxical"
    else:
        assert report["status"] == status
        assert report["stats"]["level"] == 0
        assert report["stats"]["cells"] == 2


def test_an_lp_settled_by_its_generator_rows_is_small_and_fast():
    # the depth-13 system of cuntz:2 once ran out of 400 MiB; its three
    # generator rows settle it over the 8,192 cells
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _TIMED, "state", "cuntz:2", "--depth", "13"],
                          env=env, capture_output=True, text=True, timeout=60)
    measured, _, out = proc.stdout.partition("\n")
    got, elapsed, mib = measured.split()
    stats = json.loads(out)["stats"]
    assert int(got) == 1
    assert float(elapsed) < 0.5
    assert float(mib) < 100
    assert (stats["rows"], stats["cells"], stats["support"]) == (3, 8192, 2)
