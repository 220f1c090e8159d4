import os
import pathlib
import random
import subprocess
import sys
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ample import groupoid as gpd
from ample import paradox as px
from ample import simplex
from ample import states as st
from ample import typesemigroup as ts
from ample.groupoid import cuntz, odometer, pair_groupoid, rotation
from ample.serialize import parse_presentation_arg
from ample.stone import UnitSpace, clopen, whole
from dense_lp import dense_row
from test_groupoid import _shift_presentations


C2 = cuntz(2)
ODO = odometer()
ROT = rotation(3)
# one element with pieces 11->21 and 12->22: its canonical domain "1" is
# shallower than its strips
SPLIT = gpd.Presentation(UnitSpace.shift(2), [gpd.GroupElement("g", (("11", "21"), ("12", "22")))])


def test_cuntz_depth_one_system_shape():
    cs = st.build_constraints(C2, 1)
    assert cs.cells == ("1", "2")
    assert len(cs.equalities) == 2
    assert not cs.partial


def test_cuntz_depth_one_infeasible():
    cs = st.build_constraints(C2, 1)
    out = st.solve_state(cs)
    assert isinstance(out, st.FarkasCertificate)
    assert st.verify_farkas(cs, out)


def test_rotation_uniform_state():
    cs = st.build_constraints(ROT, 0)
    out = st.solve_state(cs)
    assert isinstance(out, st.StateVector)
    assert (out.values, out.den) == ((1, 1, 1), 3)
    assert st.verify_state(cs, out)


def test_pair_uniform_state():
    cs = st.build_constraints(pair_groupoid(2), 0)
    out = st.solve_state(cs)
    assert (out.values, out.den) == ((1, 1), 2)


def test_odometer_product_measure_all_depths():
    for depth in range(4):
        cs = st.build_constraints(ODO, depth)
        out = st.solve_state(cs)
        assert isinstance(out, st.StateVector)
        assert all(v == 1 for v in out.values) and out.den == 2 ** depth
        assert st.verify_state(cs, out)
    assert st.build_constraints(ODO, 1).partial  # deep carry pieces skipped
    assert not st.build_constraints(ODO, 3).partial


def test_depth_monotone_infeasibility_on_cuntz():
    for depth in (1, 2, 3):
        out = st.solve_state(st.build_constraints(C2, depth))
        assert isinstance(out, st.FarkasCertificate)


def test_evaluate_examples():
    cs = st.build_constraints(ROT, 0)
    sv = st.solve_state(cs)
    f = ts.family_of(clopen(ROT.space, [0, 1]))
    assert (st.evaluate(sv, f), sv.den) == (2, 3)

    cso = st.build_constraints(ODO, 3)
    svo = st.solve_state(cso)
    fam = ts.normalize(
        ODO.space, [(clopen(ODO.space, ["12"]), 1), (clopen(ODO.space, ["21"]), 2)]
    )
    assert 2 * st.evaluate(svo, fam) == svo.den
    assert st.evaluate(svo, ts.LabeledFamily(ODO.space, ())) == 0


def test_evaluate_depth_guard():
    sv = st.solve_state(st.build_constraints(ODO, 1))
    with pytest.raises(st.DepthError):
        sv.evaluate_clopen(clopen(ODO.space, ["11"]))


def test_tarski_cuntz_paradox_at_depth_one():
    rep = st.tarski_report(C2, whole(C2.space), 1)
    assert rep.outcome == "paradox"
    assert (rep.witness.k, rep.witness.l) == (2, 1)
    assert px.verify_witness(C2, rep.witness).ok


def test_tarski_rotation_state():
    rep = st.tarski_report(ROT, whole(ROT.space), 0)
    assert rep.outcome == "state"
    assert (rep.state.values, rep.state.den) == ((1, 1, 1), 3)
    assert rep.scale == (1, 1)


def test_tarski_odometer_rescales_on_cylinder():
    a = clopen(ODO.space, ["1"])
    rep = st.tarski_report(ODO, a, 3, budget=20000)
    assert rep.outcome == "state"
    assert rep.scale == (2, 1)
    assert rep.state.evaluate_clopen(a) == rep.state.den


def test_tarski_rejects_empty_set():
    with pytest.raises(ValueError):
        st.tarski_report(C2, clopen(C2.space, []), 1)


def test_state_evaluation_invariant_under_certificates():
    sv = st.solve_state(st.build_constraints(ODO, 3))
    f = ts.family_of(clopen(ODO.space, ["1"]))
    g = ts.family_of(clopen(ODO.space, ["2"]))
    out = ts.search_equiv(ODO, f, g, 1, budget=50000)
    assert out.status == "found"
    assert st.evaluate(sv, f) == st.evaluate(sv, g)

    rng = random.Random(53)
    enum = gpd.enumerate_bisections(ODO, 2).bisections
    for _ in range(30):
        b = rng.choice(enum)
        dom, ran = b.dom(), b.ran()
        if dom.max_depth() > 3 or ran.max_depth() > 3 or dom.is_empty:
            continue
        cert = ts.EquivCertificate(((b, 1, 1),))
        fd, fr = ts.family_of(dom), ts.family_of(ran)
        assert ts.verify_equiv(ODO, fd, fr, cert).ok
        assert st.evaluate(sv, fd) == st.evaluate(sv, fr)


def test_probe_order_unit_on_cuntz():
    # the type semigroup of O_2 is {0, 1}: every nonempty y has y <= 1 x
    rep = ts.probes(C2, 2, 12, seed=1, budget=20000)
    assert rep.depth == 2 and rep.seed == 1
    assert len(rep.order_unit) == 12
    for r in rep.order_unit:
        assert r["bound"] == {"n": 1, "certified": True}


def test_probe_specific_order_unit_pair():
    f_small = ts.family_of(clopen(C2.space, ["11"]))
    f_big = ts.family_of(clopen(C2.space, ["2"]))
    out = ts.search_leq(C2, f_small, f_big, 3, budget=50000)
    assert out.status == "found"
    assert ts.verify_leq(C2, f_small, f_big, out.certificate).ok


def test_probe_pair_groupoid_point_to_point():
    p3 = pair_groupoid(3)
    f0 = ts.family_of(clopen(p3.space, [0]))
    f1 = ts.family_of(clopen(p3.space, [1]))
    out = ts.search_leq(p3, f0, f1, 2, budget=20000)
    assert out.status == "found"
    assert out.certificate.remainder.is_empty


def test_probe_no_unperforation_counterexample_on_cuntz():
    rep = ts.probes(C2, 2, 200, seed=7, budget=4000)
    assert rep.almost_unperforation is None


def test_farkas_file_constraints_travel():
    cs = st.build_constraints(C2, 1)
    assert all(cs.notes())


@pytest.mark.parametrize("spec, depth", [("cuntz:2", d) for d in range(1, 7)]
                         + [("odometer:6", 5), ("pair:40", 2)])
def test_outcomes_verify_against_unreduced_system(spec, depth):
    cs = st.build_constraints(parse_presentation_arg(spec), depth)
    out = st.solve_state(cs)
    assert out.stats.rows == len(cs.equalities) + 1
    assert out.stats.rows_kept <= out.stats.rows
    assert out.stats.cols == len(cs.cells)
    if spec == "cuntz:2":
        assert isinstance(out, st.FarkasCertificate)
        assert len(out.equality_multipliers) == len(cs.equalities)
        assert st.verify_farkas(cs, out)
    else:
        assert isinstance(out, st.StateVector)
        assert st.verify_state(cs, out)


def _oracle_constraints(pres, depth):
    """The invariance system built the plain way: a clopen per atom's
    domain and range, expanded to depth cells and counted densely."""
    space = pres.space
    cells = tuple(space.cells_at_depth(depth))
    index = {c: i for i, c in enumerate(cells)}

    def vector(clop):
        vec = [0] * len(cells)
        for cell in clop.expand(depth):
            vec[index[cell]] += 1
        return vec

    rows, seen, skipped = [], set(), []
    for bis in gpd.enumerate_bisections(pres, max(depth, 1)).bisections:
        for _, piece, act in bis.pieces:
            for s, a in act:
                if space.kind == "shift":
                    dom = clopen(space, [s]).intersect(piece.domain)
                    if dom.is_empty or s == a:
                        continue
                    ran = clopen(space, [a + c[len(s):] for c in dom.cells])
                    if dom.max_depth() > depth or ran.max_depth() > depth:
                        skipped.append("%s: piece %s->%s too deep" % (gpd.word_str(piece.word), s, a))
                        continue
                else:
                    if s == a or s not in piece.domain.cells:
                        continue
                    dom, ran = clopen(space, [s]), clopen(space, [a])
                row = [d - r for d, r in zip(vector(dom), vector(ran))]
                if not any(row):
                    continue
                first = next(v for v in row if v)
                canon = tuple(row) if first > 0 else tuple(-v for v in row)
                if canon in seen:
                    continue
                seen.add(canon)
                note = "%s: %s = %s" % (gpd.word_str(piece.word), list(dom.cells), list(ran.cells))
                rows.append((tuple(row), note))
    return cells, tuple(rows), bool(skipped), tuple(skipped)


def _seeded_finite(seed, points=30, injections=3, pairs=10):
    rng = random.Random(seed)
    gens = [list(zip(rng.sample(range(points), pairs), rng.sample(range(points), pairs)))
            for _ in range(injections)]
    return gpd.finite_groupoid(points, gens)


@pytest.mark.parametrize(
    "pres, depth",
    [(cuntz(2), d) for d in range(7)]
    + [(cuntz(3), d) for d in range(5)]
    + [(odometer(6), d) for d in range(7)]
    + [(ROT, 2), (pair_groupoid(40), 2), (_seeded_finite(1), 2), (_seeded_finite(2), 2)]
    + [(rotation(4, with_table=True), d) for d in range(3)]
    + [(SPLIT, d) for d in range(5)]
    # a row whose first word is not the principal word of its arrow
    + [(_seeded_finite(6), 2)]
    # pairs that many words repeat, in both orders
    + [(gpd.finite_groupoid(5, [[(0, 1), (1, 2)], [(0, 1)], [(2, 1), (1, 0)]]), d)
       for d in range(4)]
    # partial systems: pieces deeper than the depth are skipped
    + [(odometer(), d) for d in range(3)]
    + [(gpd.builtin("rotation:3:table"), d) for d in range(4)],
)
def test_index_range_rows_match_clopen_expansion(pres, depth):
    cs = st.build_constraints(pres, depth)
    n = len(cs.cells)
    rows = tuple(zip((dense_row(steps, n) for steps in cs.equalities), cs.notes()))
    assert (cs.cells, rows, cs.partial) == _oracle_constraints(pres, depth)[:3]
    assert all(type(v) is int for coeffs, _ in rows for v in coeffs)
    # each row is stored as its nonzero steps, in increasing index order
    for steps in cs.equalities:
        assert all(type(i) is int and type(v) is int and v for i, v in steps)
        assert [i for i, _ in steps] == sorted({i for i, _ in steps})


def test_the_new_cases_repeat_pairs_and_skip_pieces():
    # what the last cases above are there for
    repeats = gpd.finite_groupoid(5, [[(0, 1), (1, 2)], [(0, 1)], [(2, 1), (1, 0)]])
    pairs = [(s, a) for _, act in gpd.word_table(repeats, 2).entries for s, a in act if s != a]
    assert len(pairs) > len({frozenset(p) for p in pairs})
    assert all(st.build_constraints(ODO, d).partial for d in range(3))


def test_no_note_is_written_unless_a_farkas_report_prints_it(monkeypatch, capsys):
    # a feasible system is built and solved, and its reports written, without
    # formatting one provenance note
    from ample import cli

    argvs = (["state", "pair:40", "--depth", "2"],
             ["tarski", "odometer:6", "--set", "whole", "--depth", "6"])
    expected = []
    for argv in argvs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("a provenance note was formatted")

    monkeypatch.setattr(st, "word_str", refuse)
    monkeypatch.setattr(gpd.Presentation, "canonical_word", refuse)
    for spec, depth in (("pair:40", 2), ("odometer:6", 7)):
        cs = st.build_constraints(parse_presentation_arg(spec), depth)
        assert st.verify_state(cs, st.solve_state(cs))
    for argv, out in zip(argvs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_state_rows_build_no_bisection(monkeypatch):
    # the rows are read off word actions; a bisection is built only for a
    # certificate, and the state LP returns none
    def refuse(self, pres, pieces):
        raise AssertionError("the state LP built a bisection")

    monkeypatch.setattr(gpd.Bisection, "__init__", refuse)
    for spec, depth in (("cuntz:2", 3), ("rotation:3:table", 1)):
        cs = st.build_constraints(gpd.builtin(spec), depth)
        assert cs.equalities


def test_verify_state_rejects_a_vector_that_is_not_the_state():
    cs = st.build_constraints(ROT, 0)
    assert st.verify_state(cs, st.StateVector(0, (0, 1, 2), (1,) * 3, 3))
    for cells, values, den in [
        ((0, 1, 2), (100, 100, 101), 300),
        ((0, 1, 2), (1,) * 3, 1),  # invariant, but not of total 1
        ((0, 1, 2), (1,) * 2, 3),
        ((0, 1, 2), (1,) * 3 + (0,), 3),
        ((0, 1, 3), (1,) * 3, 3),
        ((0, 1, 2), (-1,) * 3, -3),  # each -1 / -3, but no positive denominator
    ]:
        assert not st.verify_state(cs, st.StateVector(0, cells, values, den))
    # of total 1 with no invariance row to break, but negative
    cs = st.build_constraints(gpd.trivial(2), 0)
    assert not st.verify_state(cs, st.StateVector(0, (0, 1), (2, -1), 1))


def test_verify_farkas_rejects_a_certificate_with_a_flipped_multiplier():
    cs = st.build_constraints(C2, 1)
    fc = st.solve_state(cs)
    assert st.verify_farkas(cs, fc)
    eq, norm, den = fc.equality_multipliers, fc.normalization_multiplier, fc.den
    assert not st.verify_farkas(cs, st.FarkasCertificate(eq, -norm, den))
    # the same numerators over a negative denominator are the negated vector
    assert not st.verify_farkas(cs, st.FarkasCertificate(eq, norm, -den))
    for i, v in enumerate(eq):
        if v:
            assert not st.verify_farkas(cs, st.FarkasCertificate(eq[:i] + (-v,) + eq[i + 1:], norm, den))


def test_rows_rhs_passes_the_rows_through():
    cs = st.build_constraints(C2, 3)
    rows, rhs, n = cs.rows_rhs()
    assert n == len(cs.cells)
    assert all(row is coeffs for row, coeffs in zip(rows, cs.equalities))
    assert (dense_row(rows[-1], n), rhs) == ((1,) * len(cs.cells), [0] * len(cs.equalities) + [1])


ROOT = pathlib.Path(__file__).resolve().parent.parent
# A fresh wrapper process runs one command and reports the peak RSS of its
# only child, so no earlier child of this process counts.
PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-m", "ample.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_deep_state_lp_stays_small():
    # the full system, 6,144 rows over 1,024 cells, would take 48 MiB as dense
    # rows of ints alone; its three generator rows settle it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", PEAK_RSS, "state", "cuntz:2", "--depth", "10"],
                         env=env, capture_output=True, text=True, check=True).stdout
    code, kib = map(int, out.split())
    assert code == 1  # no invariant state: a Farkas certificate
    assert kib < 64 * 1024, "peak RSS %.1f MiB" % (kib / 1024)


def _check_two_stages_against_the_full_solve(pres, depth, on=None):
    """`solve` against one solve of the full depth-d system, for the first
    feasible vertex or, given `on`, a vertex that maximizes mu(on): the
    same side, the same state, mu(on) the oracle's optimum, and a support
    certificate that verifies on the full system once zero-padded by its
    row sources."""
    full = st.build_constraints(pres, depth)
    if on is None:
        oracle = simplex.solve_feasibility(*full.rows_rhs())
    else:
        objective = [int(clopen(pres.space, [c]).subset_of(on)) for c in full.cells]
        oracle = simplex.maximize(*full.rows_rhs(), objective)
    cs, outcome = st.solve(pres, depth, on)
    assert isinstance(outcome, st.FarkasCertificate) == isinstance(oracle, simplex.Infeasible)
    if isinstance(outcome, st.StateVector):
        assert cs == full
        assert (outcome.values, outcome.den) == (oracle.x, oracle.den)
        if on is not None:
            num, den = oracle.value
            assert outcome.evaluate_clopen(on) * den == num * outcome.den
        return outcome
    rows = [i for i, v in enumerate(outcome.equality_multipliers) if v]
    support, notes = st.farkas_support(cs, outcome)
    assert notes == cs.notes(rows)
    row_of = {source: i for i, source in enumerate(full.sources)}
    y = [0] * len(full.equalities)
    for i, v in zip(rows, support.equality_multipliers):
        y[row_of[cs.sources[i]]] = v
    assert st.verify_farkas(full, st.FarkasCertificate(tuple(y), support.normalization_multiplier,
                                                       support.den))
    return outcome


def _cylinder(space, depth, pick):
    """The cylinder set of one cell of depth at most `depth`, by `pick`."""
    cells = space.cells_at_depth(pick.randint(0, depth))
    return clopen(space, [pick.choice(cells)])


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("alias", ["cuntz:2", "cuntz:3", "cuntz:4", "odometer", "odometer:5",
                                   "odometer:6", "rotation:3", "pair:5"])
def test_two_stages_agree_with_the_full_solve_on_the_builtins(alias, depth):
    pres = gpd.builtin(alias)
    cylinder = _cylinder(pres.space, depth, random.Random("%s/%d" % (alias, depth)))
    for on in (None, whole(pres.space), cylinder):
        outcome = _check_two_stages_against_the_full_solve(pres, depth, on)
        # cuntz:k is settled by its generator rows from depth 1 on
        assert isinstance(outcome, st.FarkasCertificate) == (alias.startswith("cuntz") and depth > 0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pres=_shift_presentations(), depth=hs.integers(0, 5), pick=hs.randoms(use_true_random=False))
def test_two_stages_agree_with_the_full_solve(pres, depth, pick):
    # drawn systems end at both stages, and some stage-2 systems are infeasible
    for on in (None, whole(pres.space), _cylinder(pres.space, depth, pick)):
        _check_two_stages_against_the_full_solve(pres, depth, on)


def test_the_state_lp_pivots_over_runs_of_equal_columns(monkeypatch):
    # at odometer:6 depth 7 the 128 cells form 44 runs of equal columns in
    # the stage-2 rows; the tableau has one column per run, the stats one
    # per cell
    tableaux = []

    class Tableau(simplex._Tableau):
        def __init__(self, rows, rhs, n):
            super().__init__(rows, rhs, n)
            tableaux.append(self)

    monkeypatch.setattr(simplex, "_Tableau", Tableau)
    cs, sv = st.solve(odometer(6), 7)
    assert len(tableaux) == 2  # stage 1, then stage 2
    assert (tableaux[-1].n, sv.stats.cols, len(cs.cells), len(sv.values)) == (44, 128, 128, 128)
