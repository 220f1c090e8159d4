"""Exact rational linear programming for equality systems A x = b, x >= 0.

Two-phase simplex over fractions with Bland's rule, so runs are
deterministic and never cycle.  Phase one either produces a basic feasible
point or certifies infeasibility with Farkas multipliers y read off the
terminal dictionary: y.A <= 0 componentwise while y.b > 0, which no
nonnegative x can satisfy.  Phase two maximizes a linear objective from a
feasible basis.

Before any pivoting, an exact elimination over [A | b] keeps a maximal
linearly independent subset of the input rows, in input order; the
simplex runs on those alone.  Every dropped row is a combination of kept
rows, right-hand side included, so a point feasible for the kept rows is
feasible for all of them, and Farkas multipliers found on the kept rows
extend to the full system with exact zeros on the dropped ones.  The
elimination runs in difference coordinates (r0, r1 - r0, ..., rn-1 - rn-2),
rhs untouched: an invertible change of columns, so it keeps the same rows,
and a row that is +-1 on index ranges has a nonzero only at each step.

Rows stay as given, integers in practice: the elimination runs
fraction-free on their nonzeros, and the tableau holds each row, the
objective row included, as a list of Python ints over one positive int
denominator.  A pivot brings the rows it changes to a common denominator
and divides each by its gcd, so Bland's rule and the pivots build no
Fraction, and neither does the phase-two objective row, which `maximize`
assembles in ints over one common denominator.  Fractions are built only
at the boundary: for fractional input rows (scaled to ints on the way
in), and for the point, the optimum and the Farkas multipliers read off
the final tableau.  Only the verifiers densify every entry to a Fraction.
No floating point enters anywhere; certificates re-verify by independent
recomputation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .stone import Record


class Stats(Record):
    """Deterministic work counts of one solve."""

    # rows: input rows; rows_kept: rows left after presolve; pivots: over
    # both phases
    __slots__ = ("rows", "rows_kept", "cols", "pivots")


class Feasible(Record):
    __slots__ = ("x", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Infeasible(Record):
    # y: one multiplier per input row
    __slots__ = ("y", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Optimal(Record):
    __slots__ = ("x", "value", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


class Unbounded(Record):
    __slots__ = ()


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fractions(rows, rhs):
    """Every entry as a Fraction; the verifiers' plain recomputation."""
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != len(a):
        raise ValueError("rhs length mismatch")
    return a, b


def _integer_row(row, rhs, rhs_col):
    """The nonzeros of [row | rhs] in difference coordinates, scaled to a
    primitive integer dict.

    Column 0 holds row[0] and column j > 0 holds row[j] - row[j - 1]; the
    rhs is left as it is.  A row that is constant on index ranges has a
    nonzero only where its value steps.
    """
    steps = map(operator.ne, itertools.islice(row, 1, None), row)
    r = {j: row[j] - row[j - 1] for j in itertools.compress(itertools.count(1), steps)}
    if row and row[0]:
        r[0] = row[0]
    if rhs:
        r[rhs_col] = rhs
    den = math.lcm(*(v.denominator for v in r.values()))
    r = {j: v.numerator * (den // v.denominator) for j, v in r.items()}
    g = math.gcd(*r.values())
    return {j: v // g for j, v in r.items()} if g > 1 else r


def _independent_rows(a, b):
    """Indices of a maximal linearly independent subset of the rows of
    [A | b], greedily in input order.

    Rows are reduced in the difference coordinates of `_integer_row`, an
    invertible change of the A columns: a row lies in the span of earlier
    rows exactly when its image does, so the kept indices are the same as
    in the original coordinates.  A state-LP row, +-1 on two index ranges,
    has at most four nonzeros there, and the elimination fills in little.
    Rows are reduced fraction-free, as primitive integer dicts, against the
    kept rows, each keyed by its lowest column.  The rhs is the last column,
    so a row whose A part depends on kept rows but whose b does not is kept.
    """
    rhs_col = len(a[0]) if a else 0
    by_lead = {}  # lowest column -> kept row, reduced
    kept = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        r = _integer_row(row, rhs, rhs_col)
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


_denominator = operator.attrgetter("denominator")


def _int_row(values):
    """A list of rationals as (ints, den), den > 0, ints[k] / den == values[k].

    Ints come back unscaled, over 1."""
    den = math.lcm(*set(map(_denominator, values)))
    if den == 1:
        return list(map(int, values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den


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
    return _primitive(row, den)


class _Tableau:
    """Row i stands for rows[i][k] / dens[i], and the objective row for
    obj[k] / objden: Python ints over one positive int denominator each."""

    def __init__(self, a, b, n):
        """The phase-one tableau of the dense rows `a` (int or Fraction
        entries) with nonnegative rhs `b`."""
        self.n = n
        self.m = m = len(a)
        self.pivots = 0
        # columns: n originals, m artificials, then the rhs
        width = n + m + 1
        self.rows = []
        self.dens = []
        for i, (row, rhs) in enumerate(zip(a, b)):
            ints, den = _int_row([*row, rhs])
            full = ints[:n] + [0] * m + ints[n:]
            full[n + i] = den
            self.rows.append(full)
            self.dens.append(den)
        self.basis = [n + i for i in range(m)]
        # phase-one reduced costs: c_j - sum of column entries (all cB = 1);
        # an artificial column sums to its cost 1, and the rhs slot carries
        # minus the objective
        self.objden = math.lcm(*self.dens)
        scaled = [row if den == self.objden else [v * (self.objden // den) for v in row]
                  for row, den in zip(self.rows, self.dens)]
        self.obj = [-sum(col) for col in zip(*scaled)] if m else [0] * width
        self.obj[n:n + m] = [0] * m

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

    def reduced_cost(self, j):
        return Fraction(self.obj[j], self.objden)

    def solution(self):
        x = [_ZERO] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = Fraction(self.rows[i][-1], self.dens[i])
        return tuple(x)


def _stats(t, rows):
    return Stats(len(rows), t.m, t.n, t.pivots)


def _phase_one(rows, rhs):
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    kept = _independent_rows(rows, rhs)
    a, b, signs = [], [], []
    for i in kept:
        sign = -1 if rhs[i] < 0 else 1
        a.append(rows[i] if sign == 1 else [-v for v in rows[i]])
        b.append(sign * rhs[i])
        signs.append(sign)
    t = _Tableau(a, b, n)
    status = t.bland_min(range(n + t.m))
    assert status == "optimal", "phase one is bounded below by zero"
    if t.obj[-1] < 0:  # the phase-one optimum, -obj[-1], is positive
        # reduced cost of the i-th artificial is 1 - y_i; dropped rows get 0
        y = [_ZERO] * len(rows)
        for k, i in enumerate(kept):
            y[i] = signs[k] * (_ONE - t.reduced_cost(n + k))
        return Infeasible(tuple(y), _stats(t, rows)), None
    _drive_out_artificials(t)
    return Feasible(t.solution(), _stats(t, rows)), t


def _drive_out_artificials(t):
    for i in range(t.m):
        if t.basis[i] >= t.n:
            for j in range(t.n):
                if t.rows[i][j] != 0:
                    t.pivot(i, j)
                    break


def solve_feasibility(rows, rhs):
    """A basic feasible point of {Ax = b, x >= 0}, or Farkas multipliers."""
    outcome, _ = _phase_one(rows, rhs)
    return outcome


def maximize(rows, rhs, objective):
    """Maximize c.x over {Ax = b, x >= 0}; assumes rational data throughout."""
    res, t = _phase_one(rows, rhs)
    if isinstance(res, Infeasible):
        return res
    n, m = t.n, t.m
    # minimize -c.x: reduced costs -c_j + sum of c_B * row / den over the
    # basic rows, all over cden * lden
    c, cden = _int_row(objective)
    costed = [(c[j], i) for i, j in enumerate(t.basis) if j < n and c[j]]
    lden = math.lcm(*(t.dens[i] for _, i in costed))
    obj = [-v * lden for v in c] + [0] * (m + 1)
    for cj, i in costed:
        f = cj * (lden // t.dens[i])
        obj = [v + f * w for v, w in zip(obj, t.rows[i])]
    obj[n:n + m] = [0] * m  # artificials are frozen out of phase two
    t.obj, t.objden = _primitive(obj, cden * lden)
    status = t.bland_min(range(n))
    if status == "unbounded":
        return Unbounded()
    x = t.solution()
    value = sum(Fraction(objective[j]) * x[j] for j in range(n))
    return Optimal(x, value, _stats(t, rows))


def verify_solution(rows, rhs, x):
    """Recompute Ax = b and x >= 0 for a point with one entry per column."""
    a, b = _as_fractions(rows, rhs)
    xs = [Fraction(v) for v in x]
    if a and len(xs) != len(a[0]):
        return False
    if any(v < 0 for v in xs):
        return False
    for i in range(len(a)):
        if sum(a[i][j] * xs[j] for j in range(len(xs))) != b[i]:
            return False
    return True


def verify_farkas(rows, rhs, y):
    """Recompute the combination: y.A <= 0 in every column and y.b > 0."""
    a, b = _as_fractions(rows, rhs)
    ys = [Fraction(v) for v in y]
    if len(ys) != len(a):
        return False
    n = len(a[0]) if a else 0
    for j in range(n):
        if sum(ys[i] * a[i][j] for i in range(len(a))) > 0:
            return False
    return sum(ys[i] * b[i] for i in range(len(a))) > 0
