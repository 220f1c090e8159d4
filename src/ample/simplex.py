"""Exact rational linear programming for equality systems A x = b, x >= 0.

A row of A is given by its steps: (index, change) pairs with increasing
indices in 0..n, n the column count, and int changes; the row's entry in
column j is the sum of the changes at indices <= j.  A row that is
constant on index ranges, as every state-LP row is, has a step only where
its value changes, so it is a few pairs however many columns there are.
A change at index n closes a range and enters no column.

Two-phase simplex with Bland's rule, so runs are deterministic and never
cycle.  Phase one either produces a basic feasible point or certifies
infeasibility with Farkas multipliers y read off the terminal dictionary:
y.A <= 0 componentwise while y.b > 0, which no nonnegative x can satisfy.
Phase two maximizes a linear objective from a feasible basis.

Before any pivoting, an exact elimination over [A | b] keeps a maximal
linearly independent subset of the input rows, in input order; the
simplex runs on those alone.  Every dropped row is a combination of kept
rows, right-hand side included, so a point feasible for the kept rows is
feasible for all of them, and Farkas multipliers found on the kept rows
extend to the full system with exact zeros on the dropped ones.  The
elimination reads a row's steps below n, with the rhs, as its
coordinates: they are the row in difference coordinates
(r0, r1 - r0, ..., rn-1 - rn-2), an invertible change of columns, so a
row depends on earlier rows exactly when its steps do.  It runs
fraction-free on them, as primitive integer dicts.

The simplex then pivots over runs of equal columns, not over columns.
Every kept row is constant between consecutive step indices, and so is
the objective of `maximize` between the indices where it changes, so the
columns of such a run are equal; each row is re-indexed onto one column
per run, the run's first.  This changes no pivot.  Equal columns have
equal reduced costs, so Bland's rule, which enters the lowest index with
a negative one, never enters a repeat while the run's first column can
enter, and once that column is basic the repeat's reduced cost is 0; the
ratio test and the drive-out of artificials see the same entries.  So
the pivots, the basis, the Farkas multipliers and the point are those of
the tableau over every column, and the point puts each run's value on
the run's first column and 0 on the rest.  `Stats.cols` counts the input
columns.

Only the kept rows are written out densely, once each, as the tableau's
rows: lists of Python ints over one positive int denominator, 1 to begin
with, and the phase-one objective row is summed from their steps.  A
pivot brings the rows it changes to a common denominator and divides each
by its gcd, so Bland's rule and the pivots work in ints alone, and so
does the phase-two objective row, which `maximize` assembles over one
common denominator.  The point, the optimum and the Farkas multipliers
are read off the final tableau as int numerators over one positive
denominator, in lowest terms together.  The verifiers check the
identities with the denominators cleared, in ints, and sum steps too,
writing out no row: `verify_solution` weighs each step by the sum of x
from its index on, and `verify_farkas` adds the multiplied steps into one
change array and takes its running sum over the columns.  No floating
point enters anywhere.
"""

from __future__ import annotations

import itertools
import math

from .stone import Record


class Stats(Record):
    """Deterministic work counts of one solve."""

    # rows: input rows; rows_kept: rows left after presolve; cols: input
    # columns, not runs; pivots: over both phases
    __slots__ = ("rows", "rows_kept", "cols", "pivots")


class Feasible(Record):
    # the point x[j] / den: int numerators over a positive int den, in
    # lowest terms together
    __slots__ = ("x", "den", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Infeasible(Record):
    # the multipliers y[i] / den, one per input row, as in Feasible
    __slots__ = ("y", "den", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Optimal(Record):
    # the point as in Feasible; value: the optimum as (num, den) in lowest terms
    __slots__ = ("x", "den", "value", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Unbounded(Record):
    __slots__ = ()


def _check_shape(rows, rhs, n):
    """Raise ValueError unless there is one rhs per row and each row's step
    indices increase within 0..n."""
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    for steps in rows:
        last = -1
        for i, _ in steps:
            if not last < i <= n:
                raise ValueError("step indices must increase within 0..%d" % n)
            last = i


def _integer_steps(steps, rhs, n):
    """The nonzero steps below n of a row, with its rhs in column n, as a
    primitive integer dict: the row in difference coordinates."""
    r = {i: v for i, v in steps if v and i < n}
    if rhs:
        r[n] = rhs
    g = math.gcd(*r.values())
    return {j: v // g for j, v in r.items()} if g > 1 else r


def _independent_rows(rows, rhs, n):
    """Indices of a maximal linearly independent subset of the rows of
    [A | b], greedily in input order.

    Rows are reduced as their steps below n, the difference coordinates
    of an invertible change of the A columns: a row lies in the span of
    earlier rows exactly when its steps do, so the kept indices are the
    same as in the original coordinates.  A state-LP row, +-1 on two index
    ranges, has at most four steps, and the elimination fills in little.
    Rows are reduced fraction-free, as primitive integer dicts, against the
    kept rows, each keyed by its lowest column.  The rhs is column n, so a
    row whose A part depends on kept rows but whose b does not is kept.
    """
    by_lead = {}  # lowest column -> kept row, reduced
    kept = []
    for i, (steps, b) in enumerate(zip(rows, rhs)):
        r = _integer_steps(steps, b, n)
        while r:
            lead = min(r)
            p = by_lead.get(lead)
            if p is None:
                by_lead[lead] = r
                kept.append(i)
                break
            f, g = p[lead], r[lead]
            if f != 1:
                r = {j: f * v for j, v in r.items()}
            for j, v in p.items():
                w = r.get(j, 0) - g * v
                if w:
                    r[j] = w
                else:
                    del r[j]
            c = math.gcd(*r.values())
            if c > 1:
                r = {j: v // c for j, v in r.items()}
    return kept


def _primitive(row, den):
    """The same rationals row / den with the gcd of den and the entries
    divided out."""
    g = math.gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _eliminate(row, den, j, piv, nz):
    """row / den minus (row[j] / den) times the pivot row, whose nonzero
    entries `nz` are over `piv`: (piv * row - row[j] * prow) / (den * piv).

    Mutates `row` when piv is 1."""
    f = row[j]
    if piv != 1:
        row = [piv * v for v in row]
        den *= piv
    for k, v in nz:
        row[k] -= f * v
    if den == 1:  # over 1 the row has no gcd to divide out
        return row, den
    return _primitive(row, den)


class _Tableau:
    """Row i stands for rows[i][k] / dens[i], and the objective row for
    obj[k] / objden: Python ints over one positive int denominator each."""

    def __init__(self, rows, rhs, n):
        """The phase-one tableau of the step rows `rows` (int changes) with
        nonnegative int rhs `rhs`, each written out densely here."""
        self.n = n
        self.m = m = len(rows)
        self.pivots = 0
        # columns: n originals, m artificials, then the rhs
        width = n + m + 1
        self.rows = []
        self.dens = [1] * m
        # phase-one reduced costs: c_j - sum of column entries (all cB = 1),
        # summed as steps; an artificial column sums to its cost 1, and the
        # rhs slot carries minus the objective
        change = [0] * n
        for k, (steps, b) in enumerate(zip(rows, rhs)):
            below = [(i, v) for i, v in steps if i < n]
            row = [0] * width
            level = 0
            for (i, v), (end, _) in zip(below, [*below[1:], (n, 0)]):
                level += v
                if level:
                    row[i:end] = [level] * (end - i)
                change[i] -= v
            row[n + k] = 1
            row[-1] = b
            self.rows.append(row)
        self.basis = [n + i for i in range(m)]
        self.obj = [*itertools.accumulate(change), *[0] * m, -sum(rhs)]
        self.objden = 1

    def pivot(self, i, j):
        prow = self.rows[i]
        piv = prow[j]
        if piv < 0:
            prow = [-v for v in prow]
            piv = -piv
        prow, piv = _primitive(prow, piv)
        self.rows[i], self.dens[i] = prow, piv
        # only the pivot row's nonzero columns get a subtraction
        nz = [(k, v) for k, v in enumerate(prow) if v]
        for r, row in enumerate(self.rows):
            if row[j] and r != i:
                self.rows[r], self.dens[r] = _eliminate(row, self.dens[r], j, piv, nz)
        if self.obj[j]:
            self.obj, self.objden = _eliminate(self.obj, self.objden, j, piv, nz)
        self.basis[i] = j
        self.pivots += 1

    def bland_min(self, allowed):
        """Run Bland's rule to optimality over the allowed columns."""
        while True:
            enter = None
            for j in allowed:
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            # the least (rhs/coef, basis) over positive coefs; a row's
            # denominator cancels from its ratio, and ratios compare by
            # cross-multiplying the positive coefs
            leave = None
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    rhs = row[-1]
                    if leave is None:
                        leave, best_rhs, best_coef = i, rhs, coef
                        continue
                    lhs, cmp = rhs * best_coef, best_rhs * coef
                    if lhs < cmp or (lhs == cmp and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_coef = i, rhs, coef
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def solution(self, starts, n):
        """The basic point over the n input columns as (ints, den), in
        lowest terms together: each run's value on the run's first column,
        `starts`, and 0 on the rest of the run."""
        basic = [(j, i) for i, j in enumerate(self.basis) if j < self.n]
        den = math.lcm(*(self.dens[i] for _, i in basic))
        x = [0] * n
        for j, i in basic:
            x[starts[j]] = self.rows[i][-1] * (den // self.dens[i])
        x, den = _primitive(x, den)
        return tuple(x), den


def _stats(t, rows, n):
    return Stats(len(rows), t.m, n, t.pivots)


def _run_starts(rows, n, objective=()):
    """The first column of each run of equal columns: 0, every step index
    below n, and every index where the objective changes."""
    starts = {i for steps in rows for i, _ in steps if i < n}
    starts.update(j for j in range(1, len(objective)) if objective[j] != objective[j - 1])
    if n:
        starts.add(0)
    return sorted(starts)


def _phase_one(rows, rhs, n, objective=()):
    """(outcome, tableau, run starts) of phase one on the runs of equal
    columns of the kept rows and the objective."""
    _check_shape(rows, rhs, n)
    kept = _independent_rows(rows, rhs, n)
    starts = _run_starts([rows[i] for i in kept], n, objective)
    run = {j: k for k, j in enumerate(starts)}  # a run's first column -> the run
    run[n] = len(starts)
    a, b, signs = [], [], []
    for i in kept:
        sign = -1 if rhs[i] < 0 else 1
        a.append([(run[j], sign * v) for j, v in rows[i]])
        b.append(sign * rhs[i])
        signs.append(sign)
    t = _Tableau(a, b, len(starts))
    status = t.bland_min(range(t.n + t.m))
    assert status == "optimal", "phase one is bounded below by zero"
    if t.obj[-1] < 0:  # the phase-one optimum, -obj[-1], is positive
        # reduced cost of the i-th artificial is 1 - y_i, so y_i is
        # (objden - obj) / objden; dropped rows get 0
        y = [0] * len(rows)
        for k, i in enumerate(kept):
            y[i] = signs[k] * (t.objden - t.obj[t.n + k])
        y, den = _primitive(y, t.objden)
        return Infeasible(tuple(y), den, _stats(t, rows, n)), None, starts
    _drive_out_artificials(t)
    return Feasible(*t.solution(starts, n), _stats(t, rows, n)), t, starts


def _drive_out_artificials(t):
    for i in range(t.m):
        if t.basis[i] >= t.n:
            for j in range(t.n):
                if t.rows[i][j] != 0:
                    t.pivot(i, j)
                    break


def solve_feasibility(rows, rhs, n):
    """A basic feasible point of {Ax = b, x >= 0}, or Farkas multipliers,
    for step rows over n columns."""
    outcome, _, _ = _phase_one(rows, rhs, n)
    return outcome


def maximize(rows, rhs, n, objective):
    """Maximize c.x over {Ax = b, x >= 0}, step rows over n columns and one
    objective entry per column; assumes int data throughout."""
    if len(objective) != n:
        raise ValueError("objective length mismatch")
    res, t, starts = _phase_one(rows, rhs, n, objective)
    if isinstance(res, Infeasible):
        return res
    runs, m = t.n, t.m
    cost = [objective[j] for j in starts]  # the objective is constant on each run
    # minimize -c.x: reduced costs -c_j + sum of c_B * row / den over the
    # basic rows, all over lden
    costed = [(cost[j], i) for i, j in enumerate(t.basis) if j < runs and cost[j]]
    lden = math.lcm(*(t.dens[i] for _, i in costed))
    obj = [-v * lden for v in cost] + [0] * (m + 1)
    for cj, i in costed:
        f = cj * (lden // t.dens[i])
        obj = [v + f * w for v, w in zip(obj, t.rows[i])]
    obj[runs:runs + m] = [0] * m  # artificials are frozen out of phase two
    t.obj, t.objden = _primitive(obj, lden)
    status = t.bland_min(range(runs))
    if status == "unbounded":
        return Unbounded()
    # the rhs slot of the objective row carries c.x at the basis
    (value,), vden = _primitive([t.obj[-1]], t.objden)
    return Optimal(*t.solution(starts, n), (value, vden), _stats(t, rows, n))


def verify_solution(rows, rhs, n, x, den=1):
    """Recompute Ax = b and x >= 0 for the point x / den, one int numerator
    per column over a positive int den: with the denominator cleared, every
    numerator is nonnegative and A x = b den.

    A row's value at x is the sum over its steps of the change times the
    sum of x over the columns from the step's index on."""
    _check_shape(rows, rhs, n)
    if len(x) != n or den <= 0 or any(v < 0 for v in x):
        return False
    tail = list(itertools.accumulate(reversed(x), initial=0))[::-1]
    return all(sum(c * tail[i] for i, c in steps) == b * den for steps, b in zip(rows, rhs))


def verify_farkas(rows, rhs, n, y):
    """Recompute the combination: y.A <= 0 in every column and y.b > 0.

    A positive common denominator scales y.A and y.b alike, so the
    multipliers' numerators are checked alone.  The multiplied steps of
    every row add into one change array, whose running sum over the
    columns is y.A."""
    _check_shape(rows, rhs, n)
    if len(y) != len(rows):
        return False
    change = [0] * (n + 1)
    for v, steps in zip(y, rows):
        if v:
            for i, c in steps:
                change[i] += v * c
    if any(total > 0 for total in itertools.accumulate(change[:n])):
        return False
    return sum(v * b for v, b in zip(y, rhs)) > 0
