"""Dense rows for the state LP's tests: conversions and the dense oracles.

`ample.simplex` takes each row as its steps, (index, change) pairs whose
running sum is the row's entry in each column.  The tests write many
systems as dense rows, and compare against code that reads rows densely:
`as_steps` and `dense_row` convert between the two forms, and the rest of
this module is the dense presolve and the dense verifiers that the step
code replaced, kept as its differential oracle.  The verifiers here
compute in Fractions; those of `ample.simplex` take int numerators over
one denominator and compute in ints.
"""

import itertools
import math
import operator
from fractions import Fraction


def steps_of(row):
    """A dense row as its steps: the change of its value at each index
    where the value changes, with the value taken as 0 before column 0 and
    after the last column, so that a nonzero row closes with a step at
    index len(row), as a state-LP row does."""
    return tuple((j, v - prev) for j, (prev, v) in enumerate(zip([0, *row], [*row, 0])) if v != prev)


def as_steps(rows, rhs):
    """Dense rows and rhs as the (step rows, rhs, column count) that
    `simplex` takes, the count being the length of the first row."""
    return [steps_of(row) for row in rows], list(rhs), len(rows[0]) if rows else 0


def dense_row(steps, n):
    """A step row's n entries; int changes give int entries."""
    change = [0] * (n + 1)
    for i, v in steps:
        change[i] += v
    return tuple(itertools.accumulate(change[:n]))


def dense_rows(rows, n):
    return [dense_row(steps, n) for steps in rows]


# -- the dense presolve ------------------------------------------------------------------


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


def independent_rows(a, b):
    """Indices of a maximal linearly independent subset of the dense rows
    of [A | b], greedily in input order, reduced fraction-free in the
    difference coordinates of `_integer_row`."""
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


# -- the dense verifiers ------------------------------------------------------------------


def _as_fractions(rows, rhs):
    """Every entry as a Fraction; the verifiers' plain recomputation."""
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != len(a):
        raise ValueError("rhs length mismatch")
    return a, b


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
