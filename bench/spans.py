"""Spans around ample's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function, in every ample module
that holds it under any name (several modules import `clopen` or
`enumerate_bisections` by name), and each traced method on its class, by
a wrapper that records a span: layer, start, end, parent span and command
id.  Spans live in flat arrays, so a pass of a few million stays within
tens of MiB, and are written out when the run ends.  A layer's self time
is the time inside its spans minus the time inside their child spans.
The counting hooks run inside the enclosing span; their time is taken out
of it, so that no layer's self time holds the benchmark's own counting.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from array import array
from collections import Counter
from time import perf_counter

import ample
from ample import cli, convalg, groupoid, orbits, paradox, serialize, simplex, states, stone
from ample import typesemigroup as ts


def _codecs(module):
    """The module's encode_* and decode_* functions."""
    return [v for k, v in vars(module).items()
            if k.startswith(("encode_", "decode_")) and getattr(v, "__module__", None) == module.__name__]


# Layer -> (functions, (class, method names)).  Functions are patched
# wherever ample holds them; methods are patched on their class.
LAYERS = {
    "serialize": (_codecs(serialize) + [serialize.dumps, serialize.load_json], None),
    "stone": ([stone.clopen], (stone.Clopen, (
        "union", "intersect", "difference", "subset_of", "disjoint_from", "expand"))),
    "groupoid.enumerate": ([groupoid.enumerate_bisections], None),
    "groupoid.bisection": ([groupoid.identity_bisection, groupoid.from_word], (groupoid.Bisection, (
        "__init__", "dom", "ran", "inverse", "compose", "restrict", "restrict_range", "apply",
        "preimage"))),
    "paradox.search": ([paradox.search_witness], None),
    "typesemigroup.search": ([ts.search_leq, ts.search_equiv], None),
    "verify": ([paradox.verify_witness, ts.verify_equiv, ts.verify_leq, states.verify_state,
                states.verify_farkas, simplex.verify_solution, simplex.verify_farkas], None),
    "states.build": ([states.build_constraints], None),
    "simplex": ([simplex.solve_feasibility, simplex.maximize], None),
    "convalg": ([convalg.conv, convalg.star, convalg.add, convalg.sub, convalg.scale,
                 convalg.expectation, convalg.unit_indicator, convalg.bisection_indicator,
                 convalg.from_terms, convalg.isometries_from_witness, convalg.matrix_isometries],
                None),
    "orbits": ([orbits.orbit_partition, orbits.quasi_orbits, orbits.invariant_lattice,
                orbits.is_principal, orbits.build_finite_algebra, orbits.ideal_lattice_check],
               None),
}
# The span around each whole command; its self time is what no layer claims.
CLI = "cli"
NAMES = [CLI] + list(LAYERS)
SEARCHES = ("paradox.search", "typesemigroup.search")
# Counters, each a count of work named by the layer it belongs to.
COUNTERS = ("stone.calls", "groupoid.enumerate.calls", "groupoid.enumerate.bisections",
            "groupoid.bisection.calls", "paradox.search.nodes", "typesemigroup.search.calls",
            "typesemigroup.search.nodes", "verify.calls", "states.build.rows",
            "states.build.cells", "simplex.calls", "simplex.rows", "simplex.cols",
            "simplex.nonzeros", "convalg.conv.calls", "serialize.bytes")


def _bisections(counts, args, result):
    counts["groupoid.enumerate.bisections"] += len(result.bisections)


def _constraints(counts, args, result):
    counts["states.build.rows"] += len(result.equalities)
    counts["states.build.cells"] += len(result.cells)


def _tableau(counts, args, result):
    rows = args[0]
    counts["simplex.rows"] += len(rows)
    counts["simplex.cols"] += len(rows[0]) if rows else 0
    counts["simplex.nonzeros"] += sum(1 for row in rows for v in row if v != 0)


def _dumped(counts, args, result):
    counts["serialize.bytes"] += len(result)


def _loaded(counts, args, result):
    counts["serialize.bytes"] += os.path.getsize(args[0])


def _conv(counts, args, result):
    counts["convalg.conv.calls"] += 1


# Work counted from a traced call's arguments and result, by layer or function.
HOOKS = {"groupoid.enumerate": _bisections, "states.build": _constraints, "simplex": _tableau,
         serialize.dumps: _dumped, serialize.load_json: _loaded, convalg.conv: _conv}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original, wrapper)
        self.layer = array("b")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hooked = array("d")  # seconds of counting hooks run inside the span
        self.stack = [-1]
        self.search = [None]
        self.counts = Counter()
        self.commands = []

    def reset(self):
        """Forget every span, counter and command recorded so far."""
        for arr in (self.layer, self.parent, self.command, self.start, self.end, self.hooked):
            del arr[:]
        self.counts.clear()
        self.commands.clear()

    # -- patching --------------------------------------------------------------

    def _wrap(self, name, fn):
        lid = NAMES.index(name)
        layer, parent, command, start, end = self.layer, self.parent, self.command, self.start, self.end
        hooked = self.hooked
        stack, search, counts, commands = self.stack, self.search, self.counts, self.commands
        calls = name + ".calls" if name + ".calls" in COUNTERS else None
        is_search = name in SEARCHES
        hook = HOOKS.get(name) or HOOKS.get(fn)

        def wrapper(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            command.append(len(commands) - 1)
            end.append(0.0)
            hooked.append(0.0)
            stack.append(i)
            if is_search:
                search.append(name)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                if is_search:
                    search.pop()
            if calls:
                counts[calls] += 1
            if hook:
                t = perf_counter()
                hook(counts, args, result)
                if stack[-1] >= 0:
                    hooked[stack[-1]] += perf_counter() - t
            return result

        return wrapper

    def install(self):
        modules = [m for m in vars(ample).values() if getattr(m, "__name__", "").startswith("ample.")]
        for name, (functions, methods) in LAYERS.items():
            for fn in functions:
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self.patches.append((module, attr, fn, wrapper))
            cls, attrs = methods or (None, ())
            for attr in attrs:
                fn = vars(cls)[attr]
                self.patches.append((cls, attr, fn, self._wrap(name, fn)))
        spend = ts.SearchBudget.spend
        counts, search = self.counts, self.search

        def counted_spend(budget):
            counts[search[-1] + ".nodes"] += 1
            return spend(budget)

        self.patches.append((ts.SearchBudget, "spend", spend, counted_spend))
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        self.patches = []

    # -- recording -----------------------------------------------------------------

    def run_command(self, argv, run):
        """Call run(argv) inside a top-level span for the command."""
        self.commands.append(list(argv))
        main = self._wrap(CLI, run)
        return main(argv)

    def self_times(self):
        """Self time per layer over every span recorded since reset."""
        durations = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", self.hooked)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        totals = dict.fromkeys(NAMES, 0.0)
        for lid, d, c in zip(self.layer, durations, child):
            totals[NAMES[lid]] += d - c
        return totals

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays in order."""
        header = {"layers": NAMES, "commands": self.commands, "spans": len(self.layer),
                  "arrays": [["layer", "b"], ["parent", "i"], ["command", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.layer, self.parent, self.command, self.start, self.end):
                arr.tofile(fh)


def run_cli(argv):
    """ample.cli.main, exiting as `python -m ample.cli` would: argparse's
    exit becomes a return code, and an uncaught exception prints its
    traceback and returns 1."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code
    except Exception:  # noqa: BLE001  (the interpreter's own top-level handler)
        traceback.print_exc(file=sys.stderr)
        return 1
