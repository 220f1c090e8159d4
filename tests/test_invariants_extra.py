"""Cross-module invariants that did not fit a single module's test file."""

import json
import random

import leq_chain
from ample import cli
from ample import convalg as ca
from ample import groupoid as gpd
from ample import paradox as px
from ample import states as st
from ample import stone
from ample import typesemigroup as ts
from ample.groupoid import builtin, cuntz, from_word, odometer, rotation
from ample.stone import UnitSpace, clopen, whole


def test_make_presentation_dispatch():
    assert builtin("cuntz:2") == cuntz(2)
    assert builtin("pair:3") == gpd.pair_groupoid(3)
    assert builtin("rotation:3:table") == rotation(3, with_table=True)
    assert gpd.Presentation(
        UnitSpace.finite(3), [gpd.PartialInjection(((0, 1),))]
    ).space == UnitSpace.finite(3)
    try:
        builtin("coarse:1")
        assert False
    except gpd.PresentationError:
        pass


def test_bisection_calculus_dispatch():
    pres = cuntz(2)
    u1 = from_word(pres, ((0, 1),))
    u2 = from_word(pres, ((1, 1),))
    half = clopen(pres.space, ["1"])
    assert u1.inverse() == from_word(pres, ((0, -1),))
    assert u1.compose(u2) == from_word(pres, ((0, 1), (1, 1)))
    assert u1.dom() == whole(pres.space)
    assert u1.ran() == half
    assert u1.restrict(half) == from_word(pres, ((0, 1),), domain=half)


def test_certificate_algebra_dispatch_fuzz():
    pres = cuntz(2)
    rng = random.Random(113)
    cells = pres.space.cells_at_depth(2)
    enum = gpd.enumerate_bisections(pres, 1).bisections
    verified = 0
    for _ in range(60):
        base = clopen(pres.space, [c for c in cells if rng.random() < 0.4])
        if base.is_empty:
            continue
        # push part of the set through a bisection: guaranteed equivalent
        b = rng.choice(enum)
        moved = b.apply(base.intersect(b.dom()))
        kept = base.difference(b.dom())
        f = ts.family_of(base)
        g = ts.normalize(pres.space, [(moved, 1), (kept, 2)])
        out = ts.search_equiv(pres, f, g, 1, budget=100000)
        if out.status != "found":
            continue
        cert = out.certificate
        back = ts.search_equiv(pres, g, f, 1, budget=100000)
        if back.status != "found":
            continue
        back = back.certificate
        assert ts.verify_equiv(pres, g, f, back).ok
        loop = leq_chain.transitive_cert(pres, f, g, f, cert, back)
        assert ts.verify_equiv(pres, f, f, loop).ok
        both = leq_chain.sum_cert(pres, f, g, g, f, cert, back)
        assert ts.verify_equiv(pres, ts.add(f, g), ts.add(g, f), both).ok
        refl = leq_chain.reflexive_cert(pres, f)
        assert ts.verify_equiv(pres, f, f, refl).ok
        verified += 1
    assert verified >= 20


def test_depth_projection_consistency():
    # a depth d+1 state projects onto a solution of the depth d system
    for pres in (odometer(), rotation(3)):
        for depth in range(3):
            fine = st.solve_state(st.build_constraints(pres, depth + 1))
            coarse_cs = st.build_constraints(pres, depth)
            assert isinstance(fine, st.StateVector)
            projected = []
            for cell in coarse_cs.cells:
                part = clopen(pres.space, [cell])
                projected.append(fine.evaluate_clopen(part))
            candidate = st.StateVector(depth, coarse_cs.cells, tuple(projected), fine.den)
            assert st.verify_state(coarse_cs, candidate)


def test_random_witnesses_always_yield_isometries():
    # every verifying (2,1) witness with disjoint rows passes the three checks
    rng = random.Random(127)
    pres = cuntz(2)
    built = 0
    for _ in range(50):
        alpha = "".join(rng.choice(pres.space.letters) for _ in range(rng.randint(0, 2)))
        a = clopen(pres.space, [alpha])
        rel = [alpha + u + v for u in pres.space.letters for v in pres.space.letters]
        t1, t2 = rng.sample(rel, 2)
        rows = []
        for target in (t1, t2):
            word = tuple((int(ch) - 1, 1) for ch in target) + tuple(
                (int(ch) - 1, -1) for ch in reversed(alpha)
            )
            rows.append(((from_word(pres, gpd.reduce_word(word), domain=a), 1),))
        w = px.ParadoxWitness(a, 2, 1, tuple(rows))
        assert px.verify_witness(pres, w).ok
        f, g, report = ca.isometries_from_witness(pres, w)
        assert all(report.values())
        built += 1
    assert built == 50


def test_budget_option_and_default(capsys):
    # the budget is --budget, else stone.DEFAULT_BUDGET, on the plain
    # parser and on argparse (an abbreviated flag goes to argparse)
    for argv, budget in [(["find-witness", "cuntz:2"], stone.DEFAULT_BUDGET),
                         (["find-witness", "cuntz:2", "--budget", "77"], 77),
                         (["find-witness", "cuntz:2", "--bud", "77"], 77),
                         (["find-witness", "cuntz:2", "--dep", "1"], stone.DEFAULT_BUDGET)]:
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["budget"] == budget
    assert stone.DEFAULT_BUDGET == 100000
