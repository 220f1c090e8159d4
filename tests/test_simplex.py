import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import dense_lp
from ample import simplex as sx
from ample import states as st
from ample.groupoid import cuntz, finite_groupoid, odometer, pair_groupoid, rotation
from dense_lp import as_steps, dense_rows


def test_unique_solution():
    rows = [[1, -1, 0], [0, 1, -1], [1, 1, 1]]
    rhs = [0, 0, 1]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert isinstance(res, sx.Feasible)
    assert (res.x, res.den) == ((1, 1, 1), 3)
    assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)


def test_infeasible_with_farkas():
    # x2 = 0, x1 = 0, x1 + x2 = 1
    rows = [[0, 1], [1, 0], [1, 1]]
    rhs = [0, 0, 1]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert isinstance(res, sx.Infeasible)
    assert sx.verify_farkas(*as_steps(rows, rhs), res.y)


def test_negative_rhs_rows_are_handled():
    rows = [[-1, -1]]
    rhs = [-1]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)


def test_redundant_rows():
    res = sx.solve_feasibility(*as_steps([[1, 1], [2, 2]], [1, 2]))
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution(*as_steps([[1, 1], [2, 2]], [1, 2]), res.x, res.den)


def test_maximize_simple():
    res = sx.maximize(*as_steps([[1, 1]], [1]), [1, 0])
    assert isinstance(res, sx.Optimal)
    assert res.value == (1, 1)
    assert (res.x, res.den) == ((1, 0), 1)


def test_maximize_respects_equalities():
    # x0 = x1 and x0 + x1 = 1 forces the half-half point
    res = sx.maximize(*as_steps([[1, -1], [1, 1]], [0, 1]), [1, 0])
    assert res.value == (1, 2)


def test_maximize_detects_infeasible():
    res = sx.maximize(*as_steps([[0, 1], [1, 0], [1, 1]], [0, 0, 1]), [1, 1])
    assert isinstance(res, sx.Infeasible)


def test_maximize_unbounded():
    res = sx.maximize(*as_steps([[1, -1]], [0]), [1, 0])
    assert isinstance(res, sx.Unbounded)


def _brute_force_points(rows, rhs, n):
    """Independent oracle: basic solutions by Gaussian elimination over all
    column subsets; yields each one that is feasible."""
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
            if dense_lp.verify_solution(rows, rhs, full):
                yield full


def _brute_force_feasible(rows, rhs, n):
    return next(_brute_force_points(rows, rhs, n), None) is not None


def _brute_force_max(rows, rhs, objective):
    """The largest objective over the oracle's points: the optimum of a
    bounded feasible program, which a basic solution attains."""
    return max(sum(c * v for c, v in zip(objective, x))
               for x in _brute_force_points(rows, rhs, len(objective)))


def _scaled(rows, rhs):
    """Each row and its rhs times the positive lcm of their denominators:
    int rows with the same feasible set and the same kept rows.  Returns
    the int rows, the int rhs and the scales."""
    out_rows, out_rhs, scales = [], [], []
    for row, b in zip(rows, rhs):
        f = math.lcm(*(Fraction(v).denominator for v in (*row, b)))
        out_rows.append([int(v * f) for v in row])
        out_rhs.append(int(b * f))
        scales.append(f)
    return out_rows, out_rhs, scales


def _verifies_unscaled(res, rows, rhs, scales):
    """The outcome of the scaled system verifies against the unscaled
    Fraction system in the dense oracle: a point as it stands, and
    multipliers times the scales."""
    if isinstance(res, sx.Infeasible):
        return dense_lp.verify_farkas(rows, rhs, [Fraction(v * f, res.den)
                                                  for v, f in zip(res.y, scales)])
    return dense_lp.verify_solution(rows, rhs, [Fraction(v, res.den) for v in res.x])


def test_fuzz_against_bruteforce_oracle():
    rng = random.Random(47)
    agree_feasible = agree_infeasible = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-2, 2) for _ in range(m)]
        res = sx.solve_feasibility(*as_steps(rows, rhs))
        brute = _brute_force_feasible(rows, rhs, n)
        if isinstance(res, sx.Feasible):
            assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)
            assert brute
            agree_feasible += 1
        else:
            assert sx.verify_farkas(*as_steps(rows, rhs), res.y)
            assert not brute
            agree_infeasible += 1
    assert agree_feasible > 10 and agree_infeasible > 10


def test_determinism():
    rows = [[1, 2, -1], [0, 1, 1]]
    rhs = [1, 1]
    a = sx.solve_feasibility(*as_steps(rows, rhs))
    b = sx.solve_feasibility(*as_steps(rows, rhs))
    assert a == b


def test_redundant_rows_are_dropped_before_pivoting():
    rows, rhs = [[1, 1], [2, 2], [1, -1], [3, 1]], [1, 2, 0, 2]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert isinstance(res, sx.Feasible)
    assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)
    assert (res.stats.rows, res.stats.rows_kept, res.stats.cols) == (4, 2, 2)


def test_dependent_row_with_independent_rhs_is_kept():
    # the second row repeats the first on A but not on b
    rows, rhs = [[1, 1], [2, 2]], [1, 3]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert isinstance(res, sx.Infeasible)
    assert res.stats.rows_kept == 2
    assert sx.verify_farkas(*as_steps(rows, rhs), res.y)


def test_all_zero_rows():
    rows, rhs = [[0, 0, 0], [0, 0, 0]], [0, 0]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert res == sx.Feasible((0,) * 3, 1)
    assert res.stats.rows_kept == 0
    assert sx.maximize(*as_steps(rows, rhs), [-1, 0, -2]) == sx.Optimal((0,) * 3, 1, (0, 1))
    assert isinstance(sx.maximize(*as_steps(rows, rhs), [0, 1, 0]), sx.Unbounded)
    res = sx.solve_feasibility(*as_steps(rows, [0, -1]))
    assert isinstance(res, sx.Infeasible)
    assert sx.verify_farkas(*as_steps(rows, [0, -1]), res.y)


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
        frac_rows, frac_rhs = _with_implied_rows(rng, rows, rhs)
        big_rows, big_rhs, scales = _scaled(frac_rows, frac_rhs)
        small = sx.solve_feasibility(*as_steps(rows, rhs))
        big = sx.solve_feasibility(*as_steps(big_rows, big_rhs))
        assert type(small) is type(big)
        kinds[type(big)] += 1
        assert big.stats.rows == len(big_rows)
        assert big.stats.rows_kept <= min(len(rows), n + 1)
        assert _verifies_unscaled(big, frac_rows, frac_rhs, scales)
        if isinstance(big, sx.Infeasible):
            assert len(big.y) == len(big_rows)
            assert sx.verify_farkas(*as_steps(big_rows, big_rhs), big.y)
        else:
            assert sx.verify_solution(*as_steps(big_rows, big_rhs), big.x, big.den)
        objective = [rng.randint(-2, 2) for _ in range(n)]
        small = sx.maximize(*as_steps(rows, rhs), objective)
        big = sx.maximize(*as_steps(big_rows, big_rhs), objective)
        assert type(small) is type(big)
        kinds[type(big)] += 1
        if isinstance(big, sx.Infeasible):
            assert len(big.y) == len(big_rows)
            assert sx.verify_farkas(*as_steps(big_rows, big_rhs), big.y)
            assert _verifies_unscaled(big, frac_rows, frac_rhs, scales)
        elif isinstance(big, sx.Optimal):
            assert _verifies_unscaled(big, frac_rows, frac_rhs, scales)
            assert big.value == small.value
            assert sx.verify_solution(*as_steps(big_rows, big_rhs), big.x, big.den)
    assert all(count > 10 for count in kinds.values()), kinds


def _all_ints(res):
    """Every numerator and den of an outcome is an int."""
    if isinstance(res, sx.Unbounded):
        return True
    values = res.y if isinstance(res, sx.Infeasible) else res.x
    if isinstance(res, sx.Optimal):
        values += res.value
    return all(type(v) is int for v in (*values, res.den))


def test_outcomes_of_int_rows_hold_int_numerators_and_dens():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rhs = [rng.randint(-2, 2) for _ in rows]
        objective = [rng.randint(-2, 2) for _ in range(n)]
        assert _all_ints(sx.solve_feasibility(*as_steps(rows, rhs)))
        assert _all_ints(sx.maximize(*as_steps(rows, rhs), objective))
    for depth in (3, 4):
        assert _all_ints(sx.solve_feasibility(*st.build_constraints(cuntz(2), depth).rows_rhs()))


# over 2 columns: a row with a step past the last column, and a missing rhs
@pytest.mark.parametrize("rows, rhs", [([((0, 1), (1, 1)), ((0, 1), (3, -1))], [0, 0]),
                                       (as_steps([[1, 2]], [0])[0], [0, 1])])
def test_ragged_rows_and_rhs_length_are_rejected(rows, rhs):
    with pytest.raises(ValueError):
        sx.solve_feasibility(rows, rhs, 2)


@pytest.mark.parametrize("steps", [((1, 1), (0, -1)), ((0, 1), (0, -1)), ((-1, 1),), ((3, 1),)])
def test_steps_out_of_order_or_range_are_rejected_by_every_entry_point(steps):
    rows, rhs = [((0, 1),), steps], [1, 0]
    for call in (lambda: sx.solve_feasibility(rows, rhs, 2),
                 lambda: sx.maximize(rows, rhs, 2, [1, 0]),
                 lambda: sx.verify_solution(rows, rhs, 2, [1, 0]),
                 lambda: sx.verify_farkas(rows, rhs, 2, [1, 1])):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("objective", [[1], [1, 0, 0]])
def test_maximize_rejects_an_objective_of_the_wrong_length(objective):
    with pytest.raises(ValueError):
        sx.maximize(*as_steps([[1, 1]], [1]), objective)


def test_drive_out_pivots_on_a_negative_entry(monkeypatch):
    # x0 + x1 = 2 and x0 - 2 x1 = 2 meet at (2, 0); phase one ends with an
    # artificial basic at zero, and its row has -3 where x0 enters
    entries = []
    real = sx._Tableau.pivot

    def spy(t, i, j):
        entries.append(Fraction(t.rows[i][j], t.dens[i]))
        real(t, i, j)

    monkeypatch.setattr(sx._Tableau, "pivot", spy)
    rows, rhs = [[-1, -1], [1, -2]], [-2, 2]
    res = sx.solve_feasibility(*as_steps(rows, rhs))
    assert (res.x, res.den) == ((2, 0), 1) and res.stats.pivots == 2
    assert entries[-1] == -3
    assert sx.maximize(*as_steps(rows, rhs), [1, 1]) == sx.Optimal((2, 0), 1, (2, 1))


def _drive_outs(monkeypatch):
    """Record, per solve, whether the drive-out pivoted on a negative entry."""
    log = []
    real_drive, real_pivot = sx._drive_out_artificials, sx._Tableau.pivot

    def drive(t):
        log.append(False)
        real_drive(t)

    def pivot(t, i, j):
        if t.basis[i] >= t.n and t.rows[i][j] < 0:
            log[-1] = True
        real_pivot(t, i, j)

    monkeypatch.setattr(sx, "_drive_out_artificials", drive)
    monkeypatch.setattr(sx._Tableau, "pivot", pivot)
    return log


def test_maximize_after_a_drive_out_matches_the_brute_force_optimum(monkeypatch):
    log = _drive_outs(monkeypatch)
    rng = random.Random(1968)
    checked = 0
    for _ in range(1500):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(2, 3))]
        rhs = [rng.randint(-3, 3) for _ in rows]
        objective = [rng.randint(-2, 2) for _ in range(n)]
        del log[:]
        res = sx.maximize(*as_steps(rows, rhs), objective)
        if not (log and log[-1] and isinstance(res, sx.Optimal)):
            continue
        assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)
        assert Fraction(*res.value) == _brute_force_max(rows, rhs, objective)
        checked += 1
    assert checked > 20


def test_mixed_fraction_denominators_and_negative_rhs():
    # x0/2 + x1/3 = 1 and x0/5 - x1 = -1/5 have the one solution (28/17, 9/17);
    # scaled, they are 3 x0 + 2 x1 = 6 and x0 - 5 x1 = -1
    rows, rhs = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), -1]], [1, Fraction(-1, 5)]
    assert _scaled(rows, rhs) == ([[3, 2], [1, -5]], [6, -1], [6, 5])
    res = sx.solve_feasibility(*as_steps(*_scaled(rows, rhs)[:2]))
    assert (res.x, res.den) == ((28, 9), 17)
    assert _verifies_unscaled(res, rows, rhs, [6, 5])
    rng = random.Random(2007)
    kinds = {sx.Feasible: 0, sx.Infeasible: 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        rhs = [Fraction(rng.randint(-3, 3), rng.choice((1, 4, 7))) for _ in rows]
        int_rows, int_rhs, scales = _scaled(rows, rhs)
        res = sx.solve_feasibility(*as_steps(int_rows, int_rhs))
        kinds[type(res)] += 1
        assert isinstance(res, sx.Feasible) == _brute_force_feasible(rows, rhs, n)
        assert _verifies_unscaled(res, rows, rhs, scales)
        if isinstance(res, sx.Infeasible):
            assert sx.verify_farkas(*as_steps(int_rows, int_rhs), res.y)
            continue
        assert sx.verify_solution(*as_steps(int_rows, int_rhs), res.x, res.den)
        objective = [rng.randint(-2, 2) for _ in range(n)]
        best = sx.maximize(*as_steps(int_rows, int_rhs), objective)
        if isinstance(best, sx.Optimal):
            assert _verifies_unscaled(best, rows, rhs, scales)
            assert Fraction(*best.value) == _brute_force_max(rows, rhs, objective)
    assert all(count > 20 for count in kinds.values()), kinds


def test_maximize_with_mixed_objective_denominators_matches_the_brute_force_optimum(monkeypatch):
    # phase two assembles its objective row in ints over one denominator
    costed, starts = [], []
    real, real_starts = sx._Tableau.bland_min, sx._run_starts

    def spy(t, allowed):
        if allowed == range(t.n):  # phase two, over the runs of equal columns
            costed.append(sum(1 for j in t.basis if j < t.n and objective[starts[j]]))
        return real(t, allowed)

    def run_starts(*args):
        starts[:] = found = real_starts(*args)
        return found

    monkeypatch.setattr(sx._Tableau, "bland_min", spy)
    monkeypatch.setattr(sx, "_run_starts", run_starts)
    rng = random.Random(1957)
    optimal = many_costed = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        rhs = [rng.randint(-3, 3) for _ in rows]
        objective = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
        scale = math.lcm(*(c.denominator for c in objective))
        del costed[:]
        res = sx.maximize(*as_steps(rows, rhs), [int(c * scale) for c in objective])
        many_costed += bool(costed and costed[0] > 1)
        if isinstance(res, sx.Infeasible):
            assert sx.verify_farkas(*as_steps(rows, rhs), res.y) and not costed
        elif isinstance(res, sx.Optimal):
            assert sx.verify_solution(*as_steps(rows, rhs), res.x, res.den)
            assert dense_lp.verify_solution(rows, rhs, [Fraction(v, res.den) for v in res.x])
            value = Fraction(*res.value) / scale
            assert value == sum(c * v for c, v in zip(objective, res.x)) / res.den
            assert value == _brute_force_max(rows, rhs, objective)
            optimal += 1
    assert many_costed >= 50 and optimal > 100, (many_costed, optimal)


def _dense_independent_rows(rows, rhs):
    """Reference presolve: greedy rank over the dense Fraction rows of
    [A | b] in input order, in the original coordinates.  Each kept row is
    stored scaled to 1 at its lead, with zeros before it."""
    width = (len(rows[0]) if rows else 0) + 1
    basis = {}  # lead column -> kept row, reduced
    kept = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(basis) == width:
            break  # full rank: every later row is a combination
        r = [Fraction(v) for v in row] + [Fraction(b)]
        for lead in sorted(basis):
            f = r[lead]
            if f:
                r = [v - f * w if w else v for v, w in zip(r, basis[lead])]
        lead = next((j for j, v in enumerate(r) if v), None)
        if lead is not None:
            basis[lead] = [v / r[lead] for v in r]
            kept.append(i)
    return kept


def _random_system(rng):
    """Rows of ints and Fractions, zero rows, combinations of earlier rows,
    and rows that repeat a combination of earlier rows on A but not on b."""
    n = rng.randint(1, 6)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(("int", "fraction", "zero", "combination", "a-only")) if rows else "int"
        if kind == "int":
            row, b = [rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3)
        elif kind == "fraction":
            row = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(n)]
            b = Fraction(rng.randint(-4, 4), rng.choice((1, 5)))
        elif kind == "zero":
            row, b = [0] * n, rng.choice((0, 0, 1))
        else:
            picks = [(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), k)
                     for k in rng.sample(range(len(rows)), rng.randint(1, len(rows)))]
            row = [sum((f * rows[k][j] for f, k in picks), Fraction(0)) for j in range(n)]
            b = sum((f * rhs[k] for f, k in picks), Fraction(0))
            if kind == "a-only":
                b += rng.choice((-1, 1))
        rows.append(row)
        rhs.append(b)
    return rows, rhs


def _range_rows(rng):
    """Rows of +-1 on one or two random index ranges, which may overlap."""
    n = rng.randint(1, 40)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 30)):
        row = [0] * n
        for _ in range(rng.randint(1, 2)):
            start = rng.randrange(n)
            end = rng.randint(start + 1, n)
            sign = rng.choice((-1, 1))
            row[start:end] = [v + sign for v in row[start:end]]
        rows.append(row)
        rhs.append(rng.choice((0, 0, 0, 1)))
    return rows, rhs


def test_presolve_keeps_the_rows_of_a_dense_greedy_rank():
    rng = random.Random(1313)
    dropped = a_only = 0
    for _ in range(300):
        rows, rhs = _random_system(rng)
        kept = sx._independent_rows(*as_steps(*_scaled(rows, rhs)[:2]))
        assert kept == _dense_independent_rows(rows, rhs) == dense_lp.independent_rows(rows, rhs)
        dropped += len(rows) - len(kept)
        a_part = _dense_independent_rows(rows, [0] * len(rows))
        a_only += len(kept) - len(a_part)
    assert dropped > 100 and a_only > 30, (dropped, a_only)
    for _ in range(200):
        rows, rhs = _range_rows(rng)
        kept = sx._independent_rows(*as_steps(rows, rhs))
        assert kept == _dense_independent_rows(rows, rhs) == dense_lp.independent_rows(rows, rhs)


def _seeded_finite_presentation(seed, points=30, injections=3, pairs=10):
    rng = random.Random(seed)
    return finite_groupoid(points, [
        list(zip(rng.sample(range(points), pairs), rng.sample(range(points), pairs)))
        for _ in range(injections)])


@pytest.mark.parametrize(
    "pres, depth",
    [(cuntz(2), d) for d in range(8)]
    + [(cuntz(3), d) for d in range(5)]
    + [(odometer(6), d) for d in range(8)]
    + [(pair_groupoid(40), 2), (_seeded_finite_presentation(1), 2),
       (_seeded_finite_presentation(2), 2)]
    + [(cuntz(2), 8), (_seeded_finite_presentation(6), 2)]
    + [(rotation(3, with_table=True), d) for d in range(3)],
)
def test_presolve_keeps_the_rows_of_a_dense_greedy_rank_on_state_systems(pres, depth):
    # against the Fraction rank and against the dense presolve it replaced
    rows, rhs, n = st.build_constraints(pres, depth).rows_rhs()
    dense = dense_rows(rows, n)
    kept = sx._independent_rows(rows, rhs, n)
    assert kept == _dense_independent_rows(dense, rhs) == dense_lp.independent_rows(dense, rhs)


def test_verify_solution_rejects_points_that_are_not_solutions():
    rows, rhs = [[1, -1, 0], [0, 1, -1], [1, 1, 1]], [0, 0, 1]
    assert sx.verify_solution(*as_steps(rows, rhs), [1] * 3, 3)
    assert sx.verify_solution(*as_steps(rows, rhs), [100] * 3, 300)
    assert not sx.verify_solution(*as_steps(rows, rhs), [100, 100, 101], 300)
    assert not sx.verify_solution(*as_steps(rows, rhs), [1] * 3, 1)  # invariant, but of total 3
    assert not sx.verify_solution(*as_steps([[1, 1]], [0]), [1, -1])  # Ax = b, but x is negative
    # cleared of a denominator that is no positive number, every row holds
    assert not sx.verify_solution(*as_steps(rows, rhs), [0] * 3, 0)
    assert not sx.verify_solution(*as_steps([[1, 1]], [0]), [0, 0], -1)
    # a point with fewer or more entries than columns is no point of the system
    assert not sx.verify_solution(*as_steps([[1, 1]], [1]), [1])
    assert not sx.verify_solution(*as_steps([[1, 1]], [1]), [1, 0, 0])


def test_verify_farkas_rejects_a_flipped_multiplier():
    rows, rhs = [[0, 1], [1, 0], [1, 1]], [0, 0, 1]
    y = sx.solve_feasibility(*as_steps(rows, rhs)).y
    assert sx.verify_farkas(*as_steps(rows, rhs), y)
    for i, v in enumerate(y):
        if v:
            assert not sx.verify_farkas(*as_steps(rows, rhs), y[:i] + (-v,) + y[i + 1:])
    assert not sx.verify_farkas(*as_steps(rows, rhs), y[:-1])


def _same_verdicts(rows, rhs, n, points, multipliers):
    """The integer step verifiers and the dense Fraction ones agree on every
    candidate, (numerators, den) with den > 0; returns how many candidates
    verified."""
    dense = dense_rows(rows, n)
    accepted = 0
    for x, den in points:
        verdict = sx.verify_solution(rows, rhs, n, x, den)
        assert verdict == dense_lp.verify_solution(dense, rhs, [Fraction(v, den) for v in x])
        accepted += verdict
    for y, den in multipliers:
        verdict = sx.verify_farkas(rows, rhs, n, y)
        assert verdict == dense_lp.verify_farkas(dense, rhs, [Fraction(v, den) for v in y])
        accepted += verdict
    return accepted


def _variants(rng, v, den, count):
    """(v, den) itself, then copies of it with one numerator changed each."""
    out = [(tuple(v), den)]
    for _ in range(count):
        w = list(v)
        k = rng.randrange(len(w))
        w[k] = rng.choice((-w[k], w[k] + 1, 0, -1))
        out.append((tuple(w), den))
    return out


def test_step_verifiers_agree_with_the_dense_verifiers():
    rng = random.Random(1957)
    accepted = rejected = 0
    for _ in range(300):
        frac_rows, frac_rhs = _random_system(rng)
        int_rows, int_rhs, scales = _scaled(frac_rows, frac_rhs)
        rows, rhs, n = as_steps(int_rows, int_rhs)
        res = sx.solve_feasibility(rows, rhs, n)
        assert _verifies_unscaled(res, frac_rows, frac_rhs, scales)
        points = [([rng.randint(0, 2) for _ in range(n)], 3)]
        multipliers = [([rng.randint(-2, 2) for _ in rows], 1)]
        if isinstance(res, sx.Feasible):
            points += _variants(rng, res.x, res.den, 3)
        else:
            multipliers += _variants(rng, res.y, res.den, 3)
        ok = _same_verdicts(rows, rhs, n, points, multipliers)
        accepted += ok
        rejected += len(points) + len(multipliers) - ok
    assert accepted > 100 and rejected > 300, (accepted, rejected)


@pytest.mark.parametrize("depth", range(1, 8))
def test_step_verifiers_agree_with_the_dense_verifiers_on_cuntz(depth):
    rows, rhs, n = st.build_constraints(cuntz(2), depth).rows_rhs()
    res = sx.solve_feasibility(rows, rhs, n)
    rng = random.Random(depth)
    points = [([1] * n, n), ([0] * n, 1)]
    assert _same_verdicts(rows, rhs, n, points, _variants(rng, res.y, res.den, 3)) >= 1


# small ints and fractions, the entries of the drawn systems
_ENTRY = hs.one_of(hs.integers(-3, 3), hs.fractions(-3, 3, max_denominator=6))


@hs.composite
def _dense_systems(draw):
    """A dense system [A | b] of 1 to 5 rows over 1 to 5 columns."""
    n = draw(hs.integers(1, 5))
    rows = draw(hs.lists(hs.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=5))
    return rows, draw(hs.lists(_ENTRY, min_size=len(rows), max_size=len(rows)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(system=_dense_systems(), objective=hs.lists(hs.integers(-2, 2), min_size=5, max_size=5),
       data=hs.data())
def test_integer_verifiers_agree_with_the_fraction_oracle(system, objective, data):
    # on each solver output, and on a copy of it with one numerator moved;
    # the solver takes the system scaled to ints
    dense, frac_rhs = system
    int_rows, int_rhs, scales = _scaled(dense, frac_rhs)
    rows, rhs, n = as_steps(int_rows, int_rhs)
    outputs = [sx.solve_feasibility(rows, rhs, n), sx.maximize(rows, rhs, n, objective[:n])]
    for res in outputs:
        if isinstance(res, sx.Unbounded):
            continue
        assert _verifies_unscaled(res, dense, frac_rhs, scales)
        v = res.y if isinstance(res, sx.Infeasible) else res.x
        k = data.draw(hs.integers(0, len(v) - 1))
        moved = v[:k] + (v[k] + data.draw(hs.integers(-3, 3).filter(bool)),) + v[k + 1:]
        candidates = [(v, res.den), (moved, res.den)]
        if isinstance(res, sx.Infeasible):
            assert _same_verdicts(rows, rhs, n, [], candidates) >= 1
        else:
            assert _same_verdicts(rows, rhs, n, candidates, []) >= 1


def _refined(rows, n, r):
    """The step rows with every column repeated r times: each step index,
    n included, scaled by r."""
    return [tuple((r * i, v) for i, v in steps) for steps in rows], r * n


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(system=_dense_systems(), objective=hs.lists(hs.integers(-2, 2), min_size=5, max_size=5),
       r=hs.sampled_from((2, 3)))
def test_repeated_columns_change_no_pivot_and_no_multiplier(system, objective, r):
    # Bland's rule never enters a repeat of an earlier column, so the
    # refined system pivots as the coarse one does: the same kind, pivots,
    # kept rows and multipliers, and the same point on each run's first
    # column with 0 on the repeats; the objective is constant on each run
    rows, rhs, n = as_steps(*_scaled(*system)[:2])
    fine_rows, fine_n = _refined(rows, n, r)
    fine_objective = [c for c in objective[:n] for _ in range(r)]
    for coarse, fine in [(sx.solve_feasibility(rows, rhs, n),
                          sx.solve_feasibility(fine_rows, rhs, fine_n)),
                         (sx.maximize(rows, rhs, n, objective[:n]),
                          sx.maximize(fine_rows, rhs, fine_n, fine_objective))]:
        assert type(fine) is type(coarse)
        if isinstance(coarse, sx.Unbounded):
            continue
        assert (fine.stats.pivots, fine.stats.rows_kept) == (coarse.stats.pivots,
                                                            coarse.stats.rows_kept)
        assert fine.stats.cols == fine_n
        if isinstance(coarse, sx.Infeasible):
            assert (fine.y, fine.den) == (coarse.y, coarse.den)
            continue
        spread = tuple(v if t == 0 else 0 for v in coarse.x for t in range(r))
        assert (fine.x, fine.den) == (spread, coarse.den)
        if isinstance(coarse, sx.Optimal):
            assert fine.value == coarse.value
