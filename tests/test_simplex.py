import itertools
import random
from fractions import Fraction

import pytest

from ample import simplex as sx
from ample import states as st
from ample.groupoid import cuntz


def test_unique_solution():
    rows = [[1, -1, 0], [0, 1, -1], [1, 1, 1]]
    rhs = [0, 0, 1]
    res = sx.solve_feasibility(rows, rhs)
    assert isinstance(res, sx.Feasible)
    assert res.x == (Fraction(1, 3),) * 3
    assert sx.verify_solution(rows, rhs, res.x)


def test_infeasible_with_farkas():
    # x2 = 0, x1 = 0, x1 + x2 = 1
    rows = [[0, 1], [1, 0], [1, 1]]
    rhs = [0, 0, 1]
    res = sx.solve_feasibility(rows, rhs)
    assert isinstance(res, sx.Infeasible)
    assert sx.verify_farkas(rows, rhs, res.y)


def test_negative_rhs_rows_are_handled():
    rows = [[-1, -1]]
    rhs = [-1]
    res = sx.solve_feasibility(rows, rhs)
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution(rows, rhs, res.x)


def test_redundant_rows():
    res = sx.solve_feasibility([[1, 1], [2, 2]], [1, 2])
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution([[1, 1], [2, 2]], [1, 2], res.x)


def test_maximize_simple():
    res = sx.maximize([[1, 1]], [1], [1, 0])
    assert isinstance(res, sx.Optimal)
    assert res.value == 1
    assert res.x == (Fraction(1), Fraction(0))


def test_maximize_respects_equalities():
    # x0 = x1 and x0 + x1 = 1 forces the half-half point
    res = sx.maximize([[1, -1], [1, 1]], [0, 1], [1, 0])
    assert res.value == Fraction(1, 2)


def test_maximize_detects_infeasible():
    res = sx.maximize([[0, 1], [1, 0], [1, 1]], [0, 0, 1], [1, 1])
    assert isinstance(res, sx.Infeasible)


def test_maximize_unbounded():
    res = sx.maximize([[1, -1]], [0], [1, 0])
    assert isinstance(res, sx.Unbounded)


def _brute_force_feasible(rows, rhs, n):
    """Independent oracle: basic solutions by Gaussian elimination over all
    column subsets, plus a rational interior grid for tiny systems."""
    m = len(rows)
    for size in range(0, min(n, m) + 1):
        for cols in itertools.combinations(range(n), size):
            # solve the square-ish system restricted to the chosen columns
            a = [[Fraction(rows[i][j]) for j in cols] for i in range(m)]
            b = [Fraction(rhs[i]) for i in range(m)]
            # gaussian elimination with partial pivoting over fractions
            mat = [row[:] + [b[i]] for i, row in enumerate(a)]
            rank = 0
            for col in range(size):
                piv = None
                for r in range(rank, m):
                    if mat[r][col] != 0:
                        piv = r
                        break
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                mat[rank] = [v / mat[rank][col] for v in mat[rank]]
                for r in range(m):
                    if r != rank and mat[r][col] != 0:
                        f = mat[r][col]
                        mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
                rank += 1
            if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in mat):
                continue
            # read off one solution of the reduced system
            sol = [Fraction(0)] * size
            used = set()
            for row in mat:
                lead = next((j for j in range(size) if row[j] != 0), None)
                if lead is not None and lead not in used:
                    sol[lead] = row[-1]
                    used.add(lead)
            if any(v < 0 for v in sol):
                continue
            full = [Fraction(0)] * n
            for idx, j in enumerate(cols):
                full[j] = sol[idx]
            if sx.verify_solution(rows, rhs, full):
                return True
    return False


def test_fuzz_against_bruteforce_oracle():
    rng = random.Random(47)
    agree_feasible = agree_infeasible = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        res = sx.solve_feasibility(rows, rhs)
        brute = _brute_force_feasible(rows, rhs, n)
        if isinstance(res, sx.Feasible):
            assert sx.verify_solution(rows, rhs, res.x)
            assert brute
            agree_feasible += 1
        else:
            assert sx.verify_farkas(rows, rhs, res.y)
            assert not brute
            agree_infeasible += 1
    assert agree_feasible > 10 and agree_infeasible > 10


def test_determinism():
    rows = [[1, 2, -1], [0, 1, 1]]
    rhs = [1, 1]
    a = sx.solve_feasibility(rows, rhs)
    b = sx.solve_feasibility(rows, rhs)
    assert a == b


def test_redundant_rows_are_dropped_before_pivoting():
    rows, rhs = [[1, 1], [2, 2], [1, -1], [3, 1]], [1, 2, 0, 2]
    res = sx.solve_feasibility(rows, rhs)
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution(rows, rhs, res.x)
    assert (res.stats.rows, res.stats.rows_kept, res.stats.cols) == (4, 2, 2)


def test_dependent_row_with_independent_rhs_is_kept():
    # the second row repeats the first on A but not on b
    rows, rhs = [[1, 1], [2, 2]], [1, 3]
    res = sx.solve_feasibility(rows, rhs)
    assert isinstance(res, sx.Infeasible)
    assert res.stats.rows_kept == 2
    assert sx.verify_farkas(rows, rhs, res.y)


def test_all_zero_rows():
    rows, rhs = [[0, 0, 0], [0, 0, 0]], [0, 0]
    res = sx.solve_feasibility(rows, rhs)
    assert res == sx.Feasible((Fraction(0),) * 3)
    assert res.stats.rows_kept == 0
    assert sx.maximize(rows, rhs, [-1, 0, -2]) == sx.Optimal((Fraction(0),) * 3, Fraction(0))
    assert isinstance(sx.maximize(rows, rhs, [0, 1, 0]), sx.Unbounded)
    res = sx.solve_feasibility(rows, [0, -1])
    assert isinstance(res, sx.Infeasible)
    assert sx.verify_farkas(rows, [0, -1], res.y)


def _with_implied_rows(rng, rows, rhs):
    """The rows plus duplicated, scaled and summed copies, shuffled."""
    pairs = [(list(r), b) for r, b in zip(rows, rhs)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("dup", "scale", "sum"))
        r, b = rng.choice(pairs)
        if kind == "dup":
            pairs.append((list(r), b))
        elif kind == "scale":
            f = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
            pairs.append(([f * v for v in r], f * b))
        else:
            r2, b2 = rng.choice(pairs)
            pairs.append(([v + w for v, w in zip(r, r2)], b + b2))
    rng.shuffle(pairs)
    return [r for r, _ in pairs], [b for _, b in pairs]


def test_presolve_property_against_unreduced_rows():
    rng = random.Random(2007)
    kinds = {sx.Feasible: 0, sx.Infeasible: 0, sx.Optimal: 0, sx.Unbounded: 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        big_rows, big_rhs = _with_implied_rows(rng, rows, rhs)
        small, big = sx.solve_feasibility(rows, rhs), sx.solve_feasibility(big_rows, big_rhs)
        assert type(small) is type(big)
        kinds[type(big)] += 1
        assert big.stats.rows == len(big_rows)
        assert big.stats.rows_kept <= min(len(rows), n + 1)
        if isinstance(big, sx.Infeasible):
            assert len(big.y) == len(big_rows)
            assert sx.verify_farkas(big_rows, big_rhs, big.y)
        else:
            assert sx.verify_solution(big_rows, big_rhs, big.x)
        objective = [rng.randint(-2, 2) for _ in range(n)]
        small, big = sx.maximize(rows, rhs, objective), sx.maximize(big_rows, big_rhs, objective)
        assert type(small) is type(big)
        kinds[type(big)] += 1
        if isinstance(big, sx.Infeasible):
            assert len(big.y) == len(big_rows)
            assert sx.verify_farkas(big_rows, big_rhs, big.y)
        elif isinstance(big, sx.Optimal):
            assert big.value == small.value
            assert sx.verify_solution(big_rows, big_rhs, big.x)
    assert all(count > 10 for count in kinds.values()), kinds


def _same_outcome(a, b):
    assert a == b and type(a) is type(b)
    if not isinstance(a, sx.Unbounded):
        assert a.stats == b.stats
        values = a.y if isinstance(a, sx.Infeasible) else a.x
        assert all(type(v) is Fraction for v in values)


def test_int_and_fraction_rows_give_the_same_outcome_and_stats():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rhs = [rng.randint(-2, 2) for _ in rows]
        objective = [rng.randint(-2, 2) for _ in range(n)]
        frows = [[Fraction(v) for v in row] for row in rows]
        frhs = [Fraction(v) for v in rhs]
        _same_outcome(sx.solve_feasibility(rows, rhs), sx.solve_feasibility(frows, frhs))
        _same_outcome(sx.maximize(rows, rhs, objective), sx.maximize(frows, frhs, objective))
    for depth in (3, 4):
        rows, rhs = st.build_constraints(cuntz(2), depth).rows_rhs()
        frows = [[Fraction(v) for v in row] for row in rows]
        _same_outcome(sx.solve_feasibility(rows, rhs),
                      sx.solve_feasibility(frows, [Fraction(v) for v in rhs]))


@pytest.mark.parametrize("rows, rhs", [([[1, 2], [1]], [0, 0]), ([[1, 2]], [0, 1])])
def test_ragged_rows_and_rhs_length_are_rejected(rows, rhs):
    with pytest.raises(ValueError):
        sx.solve_feasibility(rows, rhs)
