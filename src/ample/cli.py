"""Command line surface: parse inputs, dispatch, emit deterministic reports.

Exit codes: 0 verified or found, 1 rejected or refuted, 2 inconclusive
within budget, 3 input error, 4 internal error.  Reports are JSON on
stdout (stable key order, no timestamps); --human switches to prose.  All
randomness flows from --seed, and --budget defaults to
stone.DEFAULT_BUDGET search nodes.

A process pays only for its command: the common command line is parsed
here from the COMMANDS table, argparse is imported only for help, errors
and rarer syntax, and the search layers (typesemigroup, paradox), states,
convalg and orbits only by the handlers that call them.  Rationals are
int numerators over a denominator, written in lowest terms by
`serialize.rational_texts`; no command imports fractions.
"""

from __future__ import annotations

import gc
import os
import sys
import types

from . import serialize, stone
from . import groupoid as gpd

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _emit(args, report, human_lines):
    if args.human:
        for line in human_lines:
            print(line)
    else:
        sys.stdout.write(serialize.dumps(report))


def _write_out(args, payload):
    if getattr(args, "output", None):
        text = serialize.dumps(payload)
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise serialize.SchemaError(args.output, "cannot write: %s" % exc) from exc


def _parse_set(pres, spec):
    """The clopen named by --set: "whole", or comma-separated points or words."""
    if spec == "whole":
        return stone.whole(pres.space)
    parts = [part.strip() for part in spec.split(",")]
    if "" in parts:
        # on the shift the empty word would name the whole space
        raise stone.CellError("--set %r: empty item; write whole for the whole space" % spec)
    for part in parts:
        serialize.check_word(part, "--set")
    try:
        cells = [int(part) for part in parts] if pres.space.kind == stone.FINITE else parts
        return stone.clopen(pres.space, cells)
    except ValueError as exc:
        raise stone.CellError("--set %s: %s" % (spec, exc)) from None


def _rational_str(num, den=1):
    """num / den, den > 0, in lowest terms as n or n/d."""
    ((n, d),) = serialize.rational_texts((num,), den)
    return n if d == "1" else n + "/" + d


def _lp_stats(stats):
    """The deterministic work counts of a state LP, for a report."""
    return {"rows": stats.rows, "rows_kept": stats.rows_kept, "cells": stats.cols, "pivots": stats.pivots}


def _search_stats(stats):
    """The deterministic work counts of a search, for a report."""
    return {"nodes": stats.nodes, "budget": stats.budget, "cells": stats.cells,
            "candidates": stats.candidates, "level": stats.level}


def _verdict(args, command, res):
    """Report a verifier's verdict."""
    _emit(args, {"command": command, "accepted": res.ok, "reason": res.reason},
          ["accepted" if res.ok else "rejected: %s" % res.reason])
    return EXIT_OK if res.ok else EXIT_REJECTED


def _certified(args, report, key, payload, lines, code=EXIT_OK):
    """Put a certificate into the report under `key`, write it to -o, and
    emit the report."""
    report[key] = payload
    _write_out(args, payload)
    _emit(args, report, lines)
    return code


# the skipped pieces have no invariance row behind the state
PARTIAL_STATE_NOTE = "a state of a partial system: pieces too deep for this depth were skipped"


def _side(rep):
    """The outcome and note a Tarski report supports: a state of a partial
    system supports none."""
    if rep.outcome == "state" and rep.partial:
        return "inconclusive", PARTIAL_STATE_NOTE
    return rep.outcome, rep.note


def cmd_verify_witness(args, pres):
    from . import paradox

    w = serialize.decode_witness(serialize.load_json(args.witness), pres)
    return _verdict(args, "verify-witness", paradox.verify_witness(pres, w))


def cmd_find_witness(args, pres):
    from . import paradox

    a = _parse_set(pres, args.set)
    out = paradox.search_witness(pres, a, args.k, args.l, args.depth, args.budget)
    report = {
        "command": "find-witness",
        "status": out.status,
        "k": args.k,
        "l": args.l,
        "depth": args.depth,
        "stats": _search_stats(out.stats),
    }
    if out.status == "found":
        return _certified(args, report, "witness", serialize.encode_witness(out.certificate),
                          ["found a (%d,%d) witness" % (args.k, args.l)])
    _emit(args, report, ["none within budget (not a proof of non-paradoxicality)"])
    return EXIT_INCONCLUSIVE


def cmd_type_eq(args, pres):
    from . import typesemigroup as ts

    f1 = serialize.decode_family(serialize.load_json(args.left), pres)
    f2 = serialize.decode_family(serialize.load_json(args.right), pres)
    decided = ts.closed_equiv(pres, f1, f2)
    report = {"command": "type-eq", "method": "closed_form", "status": "found",
              "depth": args.depth}
    if isinstance(decided, ts.Refutation):
        report.update(status="refuted", refutation={
            "modulus": decided.modulus, "left_count": decided.left_count,
            "right_count": decided.right_count})
        _emit(args, report, ["not equivalent: " + decided.separation()])
        return EXIT_REJECTED
    if decided is None:
        out = ts.search_equiv(pres, f1, f2, args.depth, args.budget)
        report.update(method="search", status=out.status, stats=_search_stats(out.stats))
        decided = out.certificate
    if decided is not None:
        return _certified(args, report, "certificate",
                          serialize.encode_equiv_certificate(decided),
                          ["equivalent: certificate found"])
    _emit(args, report, ["none within budget (not a proof of inequivalence)"])
    return EXIT_INCONCLUSIVE


def cmd_verify_cert(args, pres):
    from . import typesemigroup as ts

    f1 = serialize.decode_family(serialize.load_json(args.left), pres)
    f2 = serialize.decode_family(serialize.load_json(args.right), pres)
    cert = serialize.decode_certificate(serialize.load_json(args.cert), pres)
    verify = ts.verify_leq if isinstance(cert, ts.LeqCertificate) else ts.verify_equiv
    return _verdict(args, "verify-cert", verify(pres, f1, f2, cert))


def cmd_state(args, pres):
    from . import states

    cs, outcome = states.solve(pres, args.depth)
    report = {"command": "state", "depth": cs.depth, "partial": cs.partial,
              "stats": _lp_stats(outcome.stats)}
    if isinstance(outcome, states.StateVector):
        if cs.partial:
            report.update(outcome="inconclusive", note=PARTIAL_STATE_NOTE)
            _emit(args, report, ["inconclusive at depth %d: %s" % (cs.depth, PARTIAL_STATE_NOTE)])
            return EXIT_INCONCLUSIVE
        report["outcome"] = "state"
        return _certified(
            args, report, "state", serialize.encode_state(outcome),
            ["state at depth %d:" % cs.depth]
            + ["  mu(%s) = %s" % (c, _rational_str(v, outcome.den))
               for c, v in zip(outcome.cells, outcome.values)],
        )
    # a subset of the rows with no solution leaves the full system none
    report["outcome"] = "infeasible"
    fc, notes = states.farkas_support(cs, outcome)
    report["stats"]["support"] = len(fc.equality_multipliers)
    return _certified(args, report, "farkas", serialize.encode_farkas(fc, cs.depth, notes),
                      ["no invariant state at depth %d; Farkas certificate emitted" % cs.depth],
                      EXIT_REJECTED)


def cmd_tarski(args, pres):
    from . import states

    a = _parse_set(pres, args.set)
    rep = states.tarski_report(pres, a, args.depth, args.budget)
    outcome, note = _side(rep)
    report = {
        "command": "tarski",
        "outcome": outcome,
        "depth": rep.depth,
        "partial": rep.partial,
        "note": note,
        "stats": _lp_stats(rep.stats),
    }
    lines = ["outcome: %s (depth %d)" % (outcome, rep.depth)]
    if outcome == "state":
        report["scale"] = serialize.encode_rational(*rep.scale)
        return _certified(args, report, "state", serialize.encode_state(rep.state),
                          lines + ["state normalized on the set; scale %s"
                                   % _rational_str(*rep.scale)])
    if outcome == "paradox":
        report["shape"] = [rep.witness.k, rep.witness.l]
        return _certified(args, report, "witness", serialize.encode_witness(rep.witness),
                          lines + ["paradoxical: (%d,%d) witness" % (rep.witness.k, rep.witness.l)])
    _emit(args, report, lines + [note])
    return EXIT_INCONCLUSIVE


def cmd_dichotomy(args, pres):
    from . import states

    rep = states.tarski_report(pres, stone.whole(pres.space), args.depth, args.budget)
    whole_space, note = _side(rep)
    side = whole_space
    minimal = gpd.is_minimal(pres, args.depth)
    if side in ("state", "paradox") and minimal != "yes":
        # the theorem needs a minimal groupoid
        side, note = "inconclusive", "no side without the minimality hypothesis: minimal is %s" % minimal
    report = {
        "command": "dichotomy",
        "depth": args.depth,
        "minimal": minimal,
        "whole_space": whole_space,
        "note": note,
    }
    lines = ["minimal: %s" % report["minimal"]]
    if side == "state":
        # a faithful state is positive on every nonempty clopen
        zeros = sum(1 for v in rep.state.values if not v)
        report["side"] = ("stably finite at this depth: faithful trace candidate exists" if not zeros
                          else "stably finite at this depth: the state found is zero on %d of %d cells"
                          % (zeros, len(rep.state.values)))
        report["state"] = serialize.encode_state(rep.state)
        lines.append("whole space admits an invariant state: stably finite side")
    elif side == "paradox":
        report["side"] = "purely infinite at this depth: unit space is paradoxical"
        report["witness"] = serialize.encode_witness(rep.witness)
        lines.append("whole space is paradoxical: purely infinite side")
    else:
        report["side"] = "inconclusive"
        lines.append("inconclusive at this depth")
    _emit(args, report, lines)
    return EXIT_OK if side in ("state", "paradox") else EXIT_INCONCLUSIVE


def _inconclusive(args, command, exc):
    """Report a well-formed input that a limit or an unverified hypothesis
    keeps the command from checking."""
    _emit(args, {"command": command, "outcome": "inconclusive", "reason": str(exc)},
          ["inconclusive: %s" % exc])
    return EXIT_INCONCLUSIVE


def cmd_orbits(args, pres):
    from . import orbits

    part, block_of = orbits.quasi_orbits(pres)
    try:
        lattice = orbits.invariant_lattice(pres)
    except orbits.OrbitLimit as exc:
        return _inconclusive(args, "orbits", exc)
    report = {
        "command": "orbits",
        "orbits": [list(b) for b in part.blocks],
        "quasi_orbit_map": list(block_of),
        "invariant_subsets": [list(s) for s in lattice.subsets],
    }
    _emit(
        args,
        report,
        ["%d orbit(s): %s" % (part.count, [list(b) for b in part.blocks]),
         "%d invariant subset(s)" % lattice.size],
    )
    return EXIT_OK


def cmd_ideal_check(args, pres):
    from . import orbits

    try:
        rep = orbits.ideal_lattice_check(pres)
    except (orbits.PrincipalityError, orbits.OrbitLimit) as exc:
        return _inconclusive(args, "ideal-check", exc)
    rep["command"] = "ideal-check"
    verdict, code = ("passed", EXIT_OK) if rep["passed"] else ("FAILED", EXIT_REJECTED)
    _emit(
        args,
        rep,
        ["ideal lattice check: %s" % verdict,
         "orbits: %d, ideals: %d, primes: %d" % (rep["orbit_count"], rep["ideal_count"], rep["prime_count"])],
    )
    return code


def cmd_isometries(args, pres):
    from . import convalg

    w = serialize.decode_witness(serialize.load_json(args.witness), pres)
    mode = "matrix" if args.matrix else "pair"
    try:
        if args.matrix:
            mats, rep = convalg.matrix_isometries(pres, w)
        else:
            f, g, rep = convalg.isometries_from_witness(pres, w)
    except convalg.DepthOverflow as exc:
        report = {
            "command": "isometries",
            "mode": mode,
            "outcome": "depth_cap",
            "depth_cap": convalg.DEPTH_CAP,
            "reason": str(exc),
        }
        _emit(args, report, ["not checked: %s" % exc])
        return EXIT_INCONCLUSIVE
    ok = all(rep.values())
    if args.matrix:
        report = {"command": "isometries", "mode": mode, "checks": rep, "count": len(mats)}
        _emit(args, report, ["matrix isometries: %s" % rep])
        return EXIT_OK if ok else EXIT_REJECTED
    payload = {
        "f": serialize.encode_element(f),
        "g": serialize.encode_element(g),
        "checks": rep,
    }
    report = {"command": "isometries", "mode": mode, "checks": rep}
    _write_out(args, payload)
    _emit(args, report, ["isometry relations: %s" % rep])
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_probe(args, pres):
    from . import typesemigroup as ts

    rep = ts.probes(pres, args.depth, args.samples, args.seed, budget=args.budget)
    report = {
        "command": "probe",
        "depth": rep.depth,
        "seed": rep.seed,
        "order_unit": list(rep.order_unit),
        "almost_unperforation_counterexample": rep.almost_unperforation,
    }
    lines = ["order-unit probes: %d" % len(rep.order_unit)]
    if rep.almost_unperforation is None:
        lines.append("no almost-unperforation counterexample found")
    else:
        lines.append("budget-relative counterexample: %s" % rep.almost_unperforation)
    _emit(args, report, lines)
    return EXIT_OK


def _option(*flags, **kwargs):
    """The arguments of one `add_argument` call."""
    return flags, kwargs


DEPTH = _option("--depth", type=int, default=1)
BUDGET = _option("--budget", type=int, default=stone.DEFAULT_BUDGET)
OUTPUT = _option("-o", "--output", help="write the emitted certificate here")
SET = _option("--set", default="whole")
WITNESS = _option("--witness", required=True)
FAMILIES = [_option("--left", required=True), _option("--right", required=True)]

PRESENTATION_HELP = ("builtin alias (cuntz:2, pair:3, rotation:3, rotation:3:table, odometer, "
                     "trivial:2) or a presentation file")

# name: (handler(args, presentation), help line, options after the
# presentation), in help order
COMMANDS = {
    "verify-witness": (cmd_verify_witness, "check a paradoxical decomposition file", [WITNESS]),
    "find-witness": (cmd_find_witness, "search a (k,l) witness for a clopen set",
                     [DEPTH, BUDGET, OUTPUT, SET, _option("--k", type=int, default=2),
                      _option("--l", type=int, default=1)]),
    "type-eq": (cmd_type_eq, "search an equivalence certificate between families",
                [DEPTH, BUDGET, OUTPUT, *FAMILIES]),
    "verify-cert": (cmd_verify_cert, "check an equivalence or leq certificate",
                    [*FAMILIES, _option("--cert", required=True)]),
    "state": (cmd_state, "solve the invariant-state system at a depth", [DEPTH, OUTPUT]),
    "tarski": (cmd_tarski, "state versus paradox for a clopen set", [DEPTH, BUDGET, OUTPUT, SET]),
    "dichotomy": (cmd_dichotomy, "desk-scale dichotomy report for the unit space",
                  [DEPTH, BUDGET]),
    "orbits": (cmd_orbits, "orbits, quasi-orbits, and invariant subsets", []),
    "ideal-check": (cmd_ideal_check, "verify the ideal correspondence on a finite model", []),
    "isometries": (cmd_isometries, "build and verify isometries from a witness",
                   [OUTPUT, WITNESS,
                    _option("--matrix", action="store_true", default=False,
                            help="matrix amplification checks")]),
    "probe": (cmd_probe, "order-unit and almost-unperforation probes",
              [DEPTH, BUDGET, _option("--samples", type=int, default=50),
               _option("--seed", type=int, default=0)]),
}


def build_parser():
    """The parser of every subcommand.

    argparse is imported here, so a plain command line never loads it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse, but a usage error exits EXIT_INPUT with argparse's text:
        a malformed command line is an input error, and 2 means inconclusive."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))

    parser = Parser(prog="ample", description="exact computation with ample groupoid presentations")
    parser.add_argument("--human", action="store_true", help="prose output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("presentation", help=PRESENTATION_HELP)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _dest(flags):
    """argparse's attribute for an option: its first long flag, else its first."""
    flag = next((f for f in flags if f.startswith("--")), flags[0])
    return flag.lstrip("-").replace("-", "_")


def _parse_plain(argv):
    """The namespace argparse builds for a plain command line, or None.

    Plain is an optional --human, the command, one presentation, and each
    option at most once: a store_true flag alone, or an exact flag and a
    value that does not start with "-".  Anything else (help, abbreviations,
    --opt=value, values starting with "-", repeated options, "--", every
    usage error) is left to argparse, the one source of help, usage and
    error texts.
    """
    human = argv[:1] == ["--human"]
    command = argv[human] if len(argv) > human else None
    if command not in COMMANDS:
        return None
    func, _, options = COMMANDS[command]
    attrs = {"human": human, "command": command, "func": func}
    by_flag = {}
    for flags, kwargs in options:
        dest = _dest(flags)
        attrs[dest] = kwargs.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, kwargs)))
    presentations, given = [], set()
    words = iter(argv[human + 1:])
    for word in words:
        if not word.startswith("-"):
            presentations.append(word)
            continue
        dest, kwargs = by_flag.get(word, (None, None))
        if dest is None or dest in given:
            return None
        given.add(dest)
        if kwargs.get("action") == "store_true":
            attrs[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            attrs[dest] = kwargs.get("type", str)(value)
        except ValueError:
            return None
    required = {dest for dest, kwargs in by_flag.values() if kwargs.get("required")}
    if len(presentations) != 1 or not required <= given:
        return None
    attrs["presentation"] = presentations[0]
    return types.SimpleNamespace(**attrs)


def main(argv=None):
    """Run one command; returns its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        args = _parse_plain(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        for name in ("depth", "budget", "samples"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                print("input error: --%s must be nonnegative, got %d" % (name, value),
                      file=sys.stderr)
                return EXIT_INPUT
        try:
            return args.func(args, serialize.parse_presentation_arg(args.presentation))
        except MemoryError:
            pass  # the report is written once this clause has let the handler's frames go
        return _inconclusive(args, args.command, "out of memory")
    except serialize.SchemaError as exc:
        print("input error at %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except stone.InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001  (any other exception is a fault of the program)
        import traceback

        traceback.print_exc()
        args = args or types.SimpleNamespace(command=None, human=False)
        _emit(args, {"command": args.command, "outcome": "internal error", "reason": str(exc)},
              ["internal error: %s" % exc])
        return EXIT_INTERNAL


def run():
    """The process entry of `ample` and `python -m ample.cli`.

    Freezes the import heap, so the cyclic collector no longer rescans it,
    runs main(), flushes stdout and stderr, and ends the process with
    os._exit, skipping the interpreter's teardown.  A failed flush (a
    closed pipe, say) and any exception out of main, argparse's exits
    included, take the normal exit instead.  Library callers use main().
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # noqa: BLE001  (the teardown reports it, as it would without run)
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
