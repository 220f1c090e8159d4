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
extend to the full system with exact zeros on the dropped ones.

Rows stay as given, integers in practice, until the tableau: the
elimination runs fraction-free on their nonzeros, and Fractions are built
only for the nonzeros of the kept rows.  Only the verifiers densify every
entry to a Fraction.  No floating point enters anywhere; certificates
re-verify by independent recomputation.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Stats:
    """Deterministic work counts of one solve."""

    __slots__ = ("rows", "rows_kept", "cols", "pivots")

    def __init__(self, rows, rows_kept, cols, pivots):
        self.rows = rows  # input rows
        self.rows_kept = rows_kept  # rows left after presolve
        self.cols = cols
        self.pivots = pivots  # over both phases

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.rows_kept, self.cols, self.pivots) == (
            other.rows, other.rows_kept, other.cols, other.pivots)


# The outcomes below compare by value; their stats, the work one solve did,
# take no part in ==.


class Feasible:
    __slots__ = ("x", "stats")

    def __init__(self, x, stats=None):
        self.x = x
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x


class Infeasible:
    __slots__ = ("y", "stats")

    def __init__(self, y, stats=None):
        self.y = y  # one multiplier per input row
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.y == other.y


class Optimal:
    __slots__ = ("x", "value", "stats")

    def __init__(self, x, value, stats=None):
        self.x = x
        self.value = value
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.x == other.x and self.value == other.value


class Unbounded:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True


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
    """The nonzeros of [row | rhs] scaled to a primitive integer dict."""
    r = {j: v for j, v in enumerate(row) if v}
    if rhs:
        r[rhs_col] = rhs
    den = math.lcm(*(v.denominator for v in r.values()))
    r = {j: v.numerator * (den // v.denominator) for j, v in r.items()}
    g = math.gcd(*r.values())
    return {j: v // g for j, v in r.items()} if g > 1 else r


def _independent_rows(a, b):
    """Indices of a maximal linearly independent subset of the rows of
    [A | b], greedily in input order.

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


class _Tableau:
    def __init__(self, a, b, n):
        """The phase-one tableau of the rows `a` (sparse {column: value}
        dicts, int or Fraction) with nonnegative rhs `b`.

        Fractions are built only for the distinct nonzero values; every zero
        is one shared Fraction(0).  Fractions are immutable, so sharing is
        safe.
        """
        self.n = n
        self.m = len(a)
        self.pivots = 0
        # columns: n originals, m artificials, then the rhs
        width = n + self.m + 1
        self.rows = []
        colsum = {}
        frac = {}
        for i, (row, rhs) in enumerate(zip(a, b)):
            full = [_ZERO] * width
            for j, v in row.items():
                f = frac.get(v)
                if f is None:
                    f = frac[v] = Fraction(v)
                full[j] = f
                colsum[j] = colsum.get(j, 0) + v
            full[n + i] = _ONE
            full[-1] = Fraction(rhs)
            self.rows.append(full)
        self.basis = [n + i for i in range(self.m)]
        # phase-one reduced costs: c_j - sum of column entries (all cB = 1);
        # an artificial column sums to its cost 1, and the rhs slot carries
        # minus the objective
        self.obj = [_ZERO] * width
        for j, col in colsum.items():
            if col:
                self.obj[j] = -Fraction(col)
        self.obj[-1] = -Fraction(sum(b))

    def pivot(self, i, j):
        # only the pivot row's nonzero columns change, in every row
        prow = self.rows[i]
        piv = prow[j]
        nz = [k for k, v in enumerate(prow) if v]
        for k in nz:
            prow[k] = prow[k] / piv
        for row in self.rows + [self.obj]:
            f = row[j]
            if f and row is not prow:
                for k in nz:
                    row[k] = row[k] - f * prow[k]
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
            leave = None
            best = None
            for i in range(self.m):
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.rows[i][-1] / coef
                    key = (ratio, self.basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def objective(self):
        return -self.obj[-1]

    def solution(self):
        x = [_ZERO] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.rows[i][-1]
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
        a.append({j: sign * v for j, v in enumerate(rows[i]) if v})
        b.append(sign * rhs[i])
        signs.append(sign)
    t = _Tableau(a, b, n)
    status = t.bland_min(range(n + t.m))
    assert status == "optimal", "phase one is bounded below by zero"
    if t.objective() > 0:
        # reduced cost of the i-th artificial is 1 - y_i; dropped rows get 0
        y = [_ZERO] * len(rows)
        for k, i in enumerate(kept):
            y[i] = signs[k] * (_ONE - t.obj[n + k])
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
    n = t.n
    cost = [-Fraction(v) for v in objective]  # minimize the negation
    width = n + t.m + 1
    obj = [_ZERO] * width
    costed = [(cost[j], t.rows[i]) for i, j in enumerate(t.basis) if j < n and cost[j]]
    for j in range(width):
        col = sum((c * row[j] for c, row in costed), _ZERO)
        if j == width - 1:
            obj[j] = -col
        elif j < n:
            obj[j] = cost[j] - col
        else:
            obj[j] = _ZERO  # artificials are frozen out of phase two
    t.obj = obj
    status = t.bland_min(range(n))
    if status == "unbounded":
        return Unbounded()
    x = t.solution()
    value = sum(Fraction(objective[j]) * x[j] for j in range(n))
    return Optimal(x, value, _stats(t, rows))


def verify_solution(rows, rhs, x):
    a, b = _as_fractions(rows, rhs)
    xs = [Fraction(v) for v in x]
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
