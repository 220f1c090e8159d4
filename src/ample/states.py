"""Invariant states on the type semigroup at depth truncations.

A depth-d system has one nonnegative rational unknown per depth-d cell,
the invariance equalities mu(s) = mu(a) for every (strip, add) pair of
the action of every word up to the depth, and the normalization
mu(X) = 1.  The rows come from the word actions alone; no bisection is
built.
Solving is exact rational LP; the outcome is either a state vector or a
Farkas certificate, which `solve` re-verifies by independent recomputation.
Both hold int numerators over one positive int denominator, as `simplex`
returns them.

The unknowns are the leaves of `stone.leaf_spans` over the depth-d
cells, the cell universe the tiling search shares, and a word of length
at most d covers the index range span[word] of them.  Each invariance row
is built from those ranges, with no clopen expansion, as its integer
steps in the sense of `simplex`: a row of the LP is never written out
over all cells, except a kept row in the simplex tableau.

Solving runs in two stages, both in `solve`.  Stage 1 builds and
solves only the rows of the words of length 1, the generators and their
inverses, over the depth-d cells; on Finite(n), where the uniform vector
satisfies every row, it is skipped.  The word table lists words by length,
and a repeated row keeps its first source, so these rows are exactly the
first rows of the depth-d system, with the same pairs over the same
cells: a Farkas vector for them, padded with zeros, is one for the
depth-d system.  When they are infeasible that certificate settles the
system, and the depth-d system is never built.  Only when they are
feasible does stage 2 build and solve the full depth-d system, the one
whose state is reported, its first feasible vertex or one maximizing the
measure of a given clopen.  A Farkas report lists the certificate's
support alone, the nonzero multipliers with the notes of their rows
(`farkas_support`), and its `partial` flags the system actually solved:
a generator pair too deep for the depth marks it, a deeper word's pair
does not.

A depth-d state is a state of the truncated system only.  Reports always
carry the depth; nothing is claimed beyond it.
"""

from __future__ import annotations

import math

from . import simplex, stone
from .stone import Record
from .groupoid import word_str, word_table

# The largest n for which the Tarski report searches an (n+1, n) witness.
TARSKI_MAX_DROP = 3


class DepthError(stone.InputError):
    """A set or element is not expressible at the truncation depth."""


class ConstraintSystem(Record):
    """Each row's sorted (cell index, change) steps, the (word, strip, add)
    it came from, and the `stone.leaf_spans` span map of the cells."""

    __slots__ = ("pres", "depth", "cells", "equalities", "sources", "span", "partial")

    def rows_rhs(self):
        """The step rows, rhs and column count of the system, normalization
        last."""
        rows = [*self.equalities, ((0, 1),)]
        return rows, [0] * len(self.equalities) + [1], len(self.cells)

    def notes(self, rows=None):
        """The note of each row, or of the given row indices, for a Farkas
        report: its arrow's canonical word, its cells."""
        pres = self.pres
        sources = self.sources if rows is None else [self.sources[i] for i in rows]
        return ["%s: %s = %s" % (word_str(pres.canonical_word(pres.piece_key(word, (s, a)))), [s], [a])
                for word, s, a in sources]


def build_constraints(pres, depth, length=None, universe=None):
    """The invariance system of the actions of the words up to the length,
    by default the depth, over the depth cells.

    Each (strip, add) pair (s, a) with s != a of each word's action gives
    the row mu(s) - mu(a), read straight off the action: no bisection is
    built.  On the shift a pair deeper than the truncation cannot be
    expressed; it gives no row and marks the system partial.  A row is a
    sum of +-1 on the index ranges `stone.leaf_spans` gives s and a over
    the depth cells, stored as its sorted nonzero steps, the rows of
    `simplex`.  Distinct cells give distinct rows up to sign, so a row is
    a repeat exactly when its unordered pair {s, a} is, and a repeated
    pair is dropped before its steps are built.  Each row keeps the first
    (word, s, a) that gave it; no text is built here.

    The generator words always enter: the length is at least 1.  Words are
    listed by length, so the rows of a shorter length are the first rows
    of the system of a longer one at the same depth.  `universe`, when
    given, is the (leaves, span) of the depth cells that another system of
    this depth already holds, so they are not worked out again.
    """
    space = pres.space
    shift = space.kind == stone.SHIFT
    leaves, span = universe or stone.leaf_spans(space, space.cells_at_depth(depth))
    rows = []
    sources = []
    seen = set()
    partial = False
    # at depth 0 the generator pairs are simply too deep and the system is
    # marked partial
    length = depth if length is None else length
    for word, act in word_table(pres, max(length, 1)).entries:
        for s, a in act:
            if s == a:
                continue
            if shift and max(len(s), len(a)) > depth:
                partial = True
                continue
            pair = (s, a) if s < a else (a, s)
            if pair in seen:
                continue
            seen.add(pair)
            (s_start, s_end), (a_start, a_end) = span[s], span[a]
            step = {s_start: 1, s_end: -1}  # index -> change of the row's value there
            step[a_start] = step.get(a_start, 0) - 1
            step[a_end] = step.get(a_end, 0) + 1
            rows.append(tuple(sorted((i, v) for i, v in step.items() if v)))
            sources.append((word, s, a))
    return ConstraintSystem(pres, depth, tuple(leaves), tuple(rows), tuple(sources), span, partial)


class StateVector(Record):
    # mu(cells[j]) = values[j] / den: int numerators over a positive int
    # den, in lowest terms together; stats: a simplex.Stats, set by
    # solve_state
    __slots__ = ("depth", "cells", "values", "den", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)

    def evaluate_clopen(self, clop):
        """mu(clop) times den: the sum of the values of the cells under clop."""
        if clop.space.kind == stone.SHIFT and clop.max_depth() > self.depth:
            raise DepthError("clopen %r deeper than state depth %d" % (list(clop.cells), self.depth))
        _, span = stone.leaf_spans(clop.space, self.cells)
        return sum(sum(self.values[slice(*span[c])]) for c in clop.cells)


class FarkasCertificate(Record):
    # the multipliers over one positive int den, as in StateVector; stats:
    # a simplex.Stats, set by solve_state
    __slots__ = ("equality_multipliers", "normalization_multiplier", "den", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


def solve_state(cs, on=None):
    """Exactly one of a StateVector or a FarkasCertificate, deterministic: the
    first feasible vertex or, given a clopen `on`, one that maximizes mu(on)."""
    rows, rhs, n = cs.rows_rhs()
    if on is None:
        res = simplex.solve_feasibility(rows, rhs, n)
    else:
        objective = [0] * n
        for cell in on.cells:
            start, end = cs.span[cell]
            objective[start:end] = [1] * (end - start)
        res = simplex.maximize(rows, rhs, n, objective)
    if isinstance(res, simplex.Infeasible):
        return FarkasCertificate(res.y[:-1], res.y[-1], res.den, res.stats)
    return StateVector(cs.depth, cs.cells, res.x, res.den, res.stats)


def solve(pres, depth, on=None):
    """(cs, outcome) of the depth-d state LP, solved in the module's two
    stages, stage 2 by `solve_state` with `on` over the cells of stage 1: cs
    is the system solved last.  The outcome has passed `verify_state` or
    `verify_farkas` on cs; one that fails is a fault of the solver, raised
    as stone.InternalError."""
    cs = outcome = None
    if pres.space.kind == stone.SHIFT:
        cs = build_constraints(pres, depth, 1)
        outcome = solve_state(cs)
    if not isinstance(outcome, FarkasCertificate):
        universe = None if cs is None else (cs.cells, cs.span)
        cs = build_constraints(pres, depth, universe=universe)
        outcome = solve_state(cs, on)
    if isinstance(outcome, StateVector):
        if not verify_state(cs, outcome):
            raise stone.InternalError("solver produced a non-verifying state")
    elif not verify_farkas(cs, outcome):
        raise stone.InternalError("solver produced a non-verifying Farkas certificate")
    return cs, outcome


def farkas_support(cs, fc):
    """The certificate on its support alone, the rows of its nonzero
    equality multipliers, and the note of each of those rows."""
    rows = [i for i, v in enumerate(fc.equality_multipliers) if v]
    support = FarkasCertificate(tuple(fc.equality_multipliers[i] for i in rows),
                                fc.normalization_multiplier, fc.den)
    return support, cs.notes(rows)


def verify_state(cs, sv):
    """Exact recomputation of every constraint against the vector."""
    return sv.cells == cs.cells and simplex.verify_solution(*cs.rows_rhs(), sv.values, sv.den)


def verify_farkas(cs, fc):
    """The multipliers' numerators combine the rows to y.A <= 0 < y.b, over
    a positive denominator."""
    y = [*fc.equality_multipliers, fc.normalization_multiplier]
    return fc.den > 0 and simplex.verify_farkas(*cs.rows_rhs(), y)


def evaluate(sv, family):
    """The value of a state on a labeled family, the sum over its entries,
    times sv.den."""
    return sum(sv.evaluate_clopen(c) for c in family.entries)


# ---------------------------------------------------------------------------
# the Tarski dichotomy at a truncation


class TarskiReport(Record):
    # outcome: state | paradox | inconclusive; scale: 1 / mu(A) of the
    # solved vertex, as (num, den) in lowest terms; stats: a simplex.Stats
    # of the state LP
    __slots__ = ("outcome", "depth", "state", "scale", "witness", "partial", "note", "stats")
    _defaults = {"state": None, "scale": None, "witness": None, "partial": False, "note": "",
                 "stats": None}


def tarski_report(pres, a, depth, budget=stone.DEFAULT_BUDGET):
    """Decide, at the truncation, between an invariant state normalized on A
    and a paradoxical witness for A; both can never verify together.

    The state is the vertex of `solve` that maximizes mu(A), scaled so
    that mu(A) = 1: mu(c) / mu(A) is the numerator of c over the sum of
    the numerators of the cells of A, so scaling changes the denominator
    alone.

    The witness search, and the layers it needs, load only when the state
    LP leaves it to decide."""
    if a.is_empty:
        raise ValueError("the queried set must be nonempty")
    eff_depth = depth
    if pres.space.kind == stone.SHIFT:
        eff_depth = max(depth, a.max_depth())
    cs, res = solve(pres, eff_depth, a)
    infeasible = isinstance(res, FarkasCertificate)
    value = 0 if infeasible else sum(sum(res.values[slice(*cs.span[cell])]) for cell in a.cells)
    if not value:
        from . import paradox as px

        # no state: an (n+1, n) witness for each n; a state that vanishes
        # on A: a (2, 1) witness alone
        for n in range(1, TARSKI_MAX_DROP + 1 if infeasible else 2):
            found = px.search_witness(pres, a, n + 1, n, depth, budget)
            if found.status == "found":
                return TarskiReport("paradox", eff_depth, witness=found.certificate,
                                    partial=cs.partial, stats=res.stats)
        note = ("no invariant state at this depth; no witness within budget" if infeasible
                else "a state exists but vanishes on the set at this depth")
        return TarskiReport("inconclusive", eff_depth, partial=cs.partial, note=note,
                            stats=res.stats)
    # mu(c) / mu(A) = values[c] / value, in lowest terms once the
    # numerators' gcd, which divides value, is divided out
    g = math.gcd(*res.values)
    values = res.values if g == 1 else tuple(v // g for v in res.values)
    sv = StateVector(cs.depth, cs.cells, values, value // g)
    k = math.gcd(res.den, value)
    return TarskiReport("state", eff_depth, state=sv, scale=(res.den // k, value // k),
                        partial=cs.partial, stats=res.stats)
