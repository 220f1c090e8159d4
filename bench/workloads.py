"""The three workloads: their seeded inputs, their commands and the checks
each command's report must pass.

Run as a script, this module is the benchmark's set-up step:

    PYTHONPATH=src python3 bench/workloads.py WORKLOAD SEED DIR

It compiles ample's bytecode, imports ample.cli once so the first timed
command does not pay for either, and writes the workload's input files
into DIR.  Every input is built here from the seed, by the benchmark's own
code; the one exception is the weakened witness of `certify`, which is
what `paradox.weaken` makes of a seeded witness.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from checks import CheckFailed, require

WORKLOADS = ("search", "lp", "certify")

# Type-equivalence pairs per run of `search`, and their shape: each family
# has ENTRIES labels, each a set of CELLS cylinders of depth FAMILY_DEPTH.
PAIRS = 3
ENTRIES = 2
CELLS = 3
FAMILY_DEPTH = 3
# Nodes the rotation:3 (3,2) search may spend.  The search never finds a
# witness (the uniform state is invariant), so the budget fixes its cost.
ROTATION_BUDGET = 5000
# The probe's own seed, fixed: over seeds 1..10 one probe takes from 0.8 s
# to 2.9 s, which alone would make `search` unsteady across runs.
PROBE_SEED = 0
# Pairs the probe draws (the CLI's default --samples).
PROBE_SAMPLES = 50
# Seeded principal presentations per run of `lp`: points, partial
# injections, and pairs per injection.
FINITE_PRESENTATIONS = 2
FINITE_POINTS = 30
FINITE_INJECTIONS = 3
FINITE_PAIRS = 10
# The weakening of the seeded depth-3 witness that `certify` amplifies.
# (15,4) overflows convalg.DEPTH_CAP; (5,3) stays below it.
WEAK_SHAPE = (5, 3)

CUNTZ2 = checks.cuntz_gens(2)


@dataclass(frozen=True)
class Command:
    """One ample CLI call, the exit code it must give, and its report check."""

    argv: tuple
    exit_code: int
    check: Callable[[dict], None]


# -- input files -------------------------------------------------------------------


def _shift_clopen(cells):
    return {"space": {"kind": "shift", "k": 2}, "cells": list(cells)}


def _piece(gen, cells):
    return {"pieces": [{"word": [["g%d" % gen, 1]], "domain": _shift_clopen(cells)}]}


def _family(sets):
    return {"schema_version": 1,
            "entries": [{"set": _shift_clopen(s), "label": i + 1} for i, s in enumerate(sets)]}


def _family_pair(rng):
    """A family and its image under one generator, with the certificate
    that routes each entry through that generator."""
    gen = rng.choice((1, 2))
    sets = [sorted(rng.sample(checks.words(FAMILY_DEPTH, 2), CELLS)) for _ in range(ENTRIES)]
    images = [[str(gen) + c for c in s] for s in sets]
    cert = {"schema_version": 1, "kind": "equivalence",
            "triples": [{"bisection": _piece(gen, s), "n": i + 1, "m": i + 1}
                        for i, s in enumerate(sets)]}
    return _family(sets), _family(images), cert


def _witness(rows):
    return {"schema_version": 1, "A": _shift_clopen([""]), "k": len(rows), "l": 1,
            "rows": [[{"bisection": b, "m": 1} for b in row] for row in rows]}


def _depth3_witness(rng):
    """A (2,1) witness on cylinders of depth 3: on each cell c the two rows
    send c to 1c and 2c, in a seeded order."""
    rows = ([], [])
    for c in checks.words(3, 2):
        first = rng.choice((1, 2))
        rows[0].append(_piece(first, [c]))
        rows[1].append(_piece(3 - first, [c]))
    return _witness(rows)


def _finite_presentation(rng):
    injections = []
    for _ in range(FINITE_INJECTIONS):
        srcs = rng.sample(range(FINITE_POINTS), FINITE_PAIRS)
        tgts = rng.sample(range(FINITE_POINTS), FINITE_PAIRS)
        injections.append([[s, t] for s, t in zip(srcs, tgts)])
    return {"schema_version": 1, "space": {"kind": "finite", "n": FINITE_POINTS},
            "generators": [{"kind": "partial_injection", "pairs": p} for p in injections],
            "isotropy": "principal"}


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def make_inputs(workload, seed, d):
    """Write the workload's input files into directory `d`."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "search":
        for i in range(PAIRS):
            left, right, _ = _family_pair(rng)
            _write(os.path.join(d, "left%d.json" % i), left)
            _write(os.path.join(d, "right%d.json" % i), right)
    elif workload == "lp":
        for i in range(FINITE_PRESENTATIONS):
            _write(os.path.join(d, "finite%d.json" % i), _finite_presentation(rng))
    else:
        left, right, cert = _family_pair(rng)
        _write(os.path.join(d, "f1.json"), left)
        _write(os.path.join(d, "f2.json"), right)
        _write(os.path.join(d, "cert.json"), cert)
        _write(os.path.join(d, "w.json"), _witness(([_piece(1, [""])], [_piece(2, [""])])))
        w3 = _depth3_witness(rng)
        _write(os.path.join(d, "w3.json"), w3)
        bad = copy.deepcopy(w3)
        cell = rng.randrange(len(bad["rows"][1]))
        bad["rows"][1][cell] = copy.deepcopy(bad["rows"][0][cell])
        _write(os.path.join(d, "bad.json"), bad)
        _write(os.path.join(d, "weak.json"), _weaken(w3, *WEAK_SHAPE))


def _weaken(data, k, l):
    from ample import groupoid, paradox, serialize

    pres = groupoid.cuntz(2)
    w = serialize.decode_witness(data, pres)
    return serialize.encode_witness(paradox.weaken(pres, w, k, l))


# -- report checks -------------------------------------------------------------------


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def witness_found(report):
    require(report["status"] == "found", "no witness found")
    checks.check_witness(report["witness"], CUNTZ2, 2)


def accepted(report):
    require(report["accepted"] is True, "rejected: %s" % report.get("reason"))


def overlap_rejected(report):
    require(report["accepted"] is False, "tampered witness accepted")
    require("overlap" in report["reason"], "rejected for another reason: %s" % report["reason"])


def not_found(report):
    require(report["status"] in ("budget", "exhausted"), "status %r" % report["status"])


def probe_certified(seed, depth):
    """cuntz:2 is purely infinite: every nonempty clopen x holds a cylinder
    cX with |c| <= depth, and the word g_c maps X, so any y, into cX.  So
    every probe pair has the certified bound y <= 1.x within the depth."""
    def check(report):
        require(report["seed"] == seed, "probe ran another seed")
        probes = report["order_unit"]
        require(len(probes) == PROBE_SAMPLES, "%d probes, not %d" % (len(probes), PROBE_SAMPLES))
        for p in probes:
            cells = p["x"] + p["y"]
            require(p["x"] and all(len(c) <= depth and set(c) <= {"1", "2"} for c in cells),
                    "probe sets are not nonempty clopens of depth %d" % depth)
            require(p["bound"] == {"n": 1, "certified": True},
                    "no certified bound y <= 1.x for x=%s y=%s" % (p["x"], p["y"]))
    return check


def equivalent(left, right):
    def check(report):
        require(report["status"] == "found", "no certificate found")
        checks.check_equivalence(report["certificate"], left, right, CUNTZ2, 2)
    return check


def cuntz_infeasible(depth):
    def check(report):
        require(report["outcome"] == "infeasible", "cuntz:2 reported a state")
        checks.check_farkas(report["farkas"], CUNTZ2, 2, depth)
    return check


def odometer_state(carries, depth):
    rows = checks.power_rows(checks.odometer_gens(carries)[0], depth)
    uniform = dict.fromkeys(checks.words(depth, 2), Fraction(1, 2 ** depth))

    def check(report):
        require(report["outcome"] == "state", "no state for odometer:%d" % carries)
        mu = checks.state_values(report["state"])
        require(sorted(mu) == checks.words(depth, 2), "state cells are not the depth-%d words" % depth)
        checks.check_probability(mu)
        checks.check_rows(mu, rows, depth, 2)
        checks.check_rows(uniform, rows, depth, 2)
    return check


def orbit_constant(n, injections):
    """The state is a probability vector constant on every orbit."""
    blocks = checks.orbits(n, injections)

    def check(report):
        require(report["outcome"] == "state", "no state on a finite space")
        mu = checks.state_values(report["state"])
        require(sorted(mu) == list(range(n)), "state cells are not the points")
        checks.check_probability(mu)
        for block in blocks:
            require(len({mu[x] for x in block}) == 1, "state not constant on orbit %s" % block)
    return check


def uniform_points(n):
    def check(report):
        mu = checks.state_values(report["state"])
        require(sorted(mu) == list(range(n)), "state cells are not the points")
        require(all(v == Fraction(1, n) for v in mu.values()), "a point is not 1/%d" % n)
    return check


def odometer_tarski_on_one(report):
    """tarski odometer --set 1 --depth 3: a state with mu(1X) = 1."""
    require(report["outcome"] == "state", "no state")
    mu = checks.state_values(report["state"])
    require(sum(mu[c] for c in checks.expand(["1"], 3, 2)) == 1, "state not normalized on 1X")
    require(all(v >= 0 for v in mu.values()), "negative state value")
    checks.check_rows(mu, checks.power_rows(checks.odometer_gens(3)[0], 3), 3, 2)


def pair3_orbits(report):
    blocks = checks.orbits(3, [[[0, 1]], [[1, 2]]])
    require(report["orbits"] == blocks, "orbits differ from union-find")
    unions = sorted(sorted(x for i, b in enumerate(blocks) if mask >> i & 1 for x in b)
                    for mask in range(2 ** len(blocks)))
    require(sorted(report["invariant_subsets"]) == unions, "invariant subsets are not orbit unions")


def pair3_ideals(report):
    require(report["passed"] is True, "ideal check failed")
    require(report["orbit_count"] == 1 and report["ideal_count"] == 2, "wrong ideal lattice")


def all_checks(count=None):
    def check(report):
        require(report["checks"] and all(report["checks"].values()), "checks %s" % report["checks"])
        if count is not None:
            require(report["count"] == count, "%r matrices, not %d" % (report["count"], count))
    return check


def rotation_dichotomy(report):
    require(report["whole_space"] == "state", "rotation:3 not on the stably finite side")
    require(report["minimal"] in ("yes", "unknown"), "rotation:3 reported not minimal")
    mu = checks.state_values(report["state"])
    require(all(v == Fraction(1, 3) for v in mu.values()), "state is not uniform")


# -- command lists ----------------------------------------------------------------------


def commands(workload, d, out):
    """The workload's commands on inputs in `d`, writing emitted files to `out`."""
    inp = lambda name: os.path.join(d, name)  # noqa: E731
    dst = lambda name: os.path.join(out, name)  # noqa: E731
    cmds = []
    if workload == "search":
        for depth in (3, 4, 5):
            w = dst("w%d.json" % depth)
            cmds.append(Command(("find-witness", "cuntz:2", "--set", "whole",
                                 "--depth", str(depth), "-o", w), 0, witness_found))
            cmds.append(Command(("verify-witness", "cuntz:2", "--witness", w), 0, accepted))
        cmds.append(Command(("find-witness", "rotation:3", "--k", "3", "--l", "2", "--depth", "3",
                             "--budget", str(ROTATION_BUDGET)), 2, not_found))
        cmds.append(Command(("probe", "cuntz:2", "--depth", "2", "--seed", str(PROBE_SEED),
                             "--samples", str(PROBE_SAMPLES)), 0, probe_certified(PROBE_SEED, 2)))
        for i in range(PAIRS):
            left, right = inp("left%d.json" % i), inp("right%d.json" % i)
            cmds.append(Command(("type-eq", "cuntz:2", "--left", left, "--right", right,
                                 "--depth", "1"), 0, equivalent(_load(left), _load(right))))
    elif workload == "lp":
        for depth in (6, 7):
            cmds.append(Command(("state", "cuntz:2", "--depth", str(depth)), 1,
                                cuntz_infeasible(depth)))
        cmds.append(Command(("state", "odometer:6", "--depth", "7"), 0, odometer_state(6, 7)))
        cmds.append(Command(("state", "pair:40", "--depth", "2"), 0, uniform_points(40)))
        cmds.append(Command(("tarski", "odometer:6", "--set", "whole", "--depth", "6"), 0,
                            odometer_state(6, 6)))
        for i in range(FINITE_PRESENTATIONS):
            p = inp("finite%d.json" % i)
            injections = [g["pairs"] for g in _load(p)["generators"]]
            cmds.append(Command(("state", p, "--depth", "2"), 0,
                                orbit_constant(FINITE_POINTS, injections)))
    elif workload == "certify":
        f1, f2 = inp("f1.json"), inp("f2.json")
        cmds += [
            Command(("find-witness", "cuntz:2", "--set", "whole", "--k", "2", "--l", "1",
                     "--depth", "1", "-o", dst("w.json")), 0, witness_found),
            Command(("verify-witness", "cuntz:2", "--witness", inp("w.json")), 0, accepted),
            Command(("state", "rotation:3", "--depth", "0"), 0,
                    orbit_constant(3, [[[0, 1], [1, 2], [2, 0]]])),
            Command(("tarski", "odometer", "--set", "1", "--depth", "3"), 0, odometer_tarski_on_one),
            Command(("type-eq", "cuntz:2", "--left", f1, "--right", f2, "--depth", "1",
                     "-o", dst("cert.json")), 0, equivalent(_load(f1), _load(f2))),
            Command(("verify-cert", "cuntz:2", "--left", f1, "--right", f2,
                     "--cert", inp("cert.json")), 0, accepted),
            Command(("orbits", "pair:3"), 0, pair3_orbits),
            Command(("ideal-check", "pair:3"), 0, pair3_ideals),
            Command(("isometries", "cuntz:2", "--witness", inp("w.json")), 0, all_checks()),
            Command(("isometries", "cuntz:2", "--witness", inp("w.json"), "--matrix"), 0,
                    all_checks(2)),
            Command(("dichotomy", "rotation:3", "--depth", "2"), 0, rotation_dichotomy),
            Command(("isometries", "cuntz:2", "--witness", inp("weak.json"), "--matrix"), 0,
                    all_checks()),
            Command(("verify-witness", "cuntz:2", "--witness", inp("bad.json")), 1,
                    overlap_rejected),
        ]
    else:
        raise ValueError("unknown workload %r" % workload)
    return cmds


def check_report(cmd, code, stdout):
    """Raise CheckFailed unless the command exited as it must and its
    report passes the command's check."""
    require(code == cmd.exit_code, "exit code %r, not %d" % (code, cmd.exit_code))
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed("report is not JSON: %s" % exc) from exc
    try:
        cmd.check(report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed("malformed report: %r" % (exc,)) from exc


if __name__ == "__main__":
    import compileall

    compileall.compile_dir(os.path.join("src", "ample"), quiet=1)
    import ample.cli  # noqa: F401  (warms the import every timed command repeats)

    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
