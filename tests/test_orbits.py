import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import ideal_oracle
from ample import groupoid as gpd
from ample import orbits as ob
from ample.groupoid import builtin, cuntz, finite_groupoid, pair_groupoid, rotation, trivial

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_rotation_single_orbit():
    part, quotient = ob.quasi_orbits(rotation(3))
    assert part.blocks == ((0, 1, 2),)
    assert quotient == (0, 0, 0)


def test_pair_plus_point_orbits():
    pres = finite_groupoid(3, [[(0, 1)]])
    part = ob.orbit_partition(pres)
    assert part.blocks == ((0, 1), (2,))


def test_trivial_groupoid_orbits():
    part = ob.orbit_partition(trivial(3))
    assert part.blocks == ((0,), (1,), (2,))


def test_invariant_lattice_sizes():
    assert ob.invariant_lattice(rotation(3)).size == 2
    assert ob.invariant_lattice(finite_groupoid(3, [[(0, 1)]])).size == 4
    assert ob.invariant_lattice(trivial(3)).size == 8


def test_principality_detection():
    assert ob.is_principal(pair_groupoid(3)) == "yes"
    assert ob.is_principal(trivial(2)) == "yes"
    assert ob.is_principal(rotation(3, with_table=True)) == "yes"
    assert ob.is_principal(rotation(3)) == "unknown"
    fixed = finite_groupoid(2, [[(0, 0), (1, 1)]], isotropy=gpd.FREE)
    assert ob.is_principal(fixed) == "no"
    with pytest.raises(ob.NotFiniteError):
        ob.orbit_partition(cuntz(2))


def test_ideal_check_pair_three():
    rep = ob.ideal_lattice_check(pair_groupoid(3))
    assert rep["passed"]
    assert rep["orbit_count"] == 1
    assert rep["ideal_count"] == 2
    assert rep["arrow_count"] == 9  # one 3x3 matrix summand
    assert rep["prime_count"] == 1


def test_ideal_check_two_blocks():
    pres = finite_groupoid(3, [[(0, 1)]])
    rep = ob.ideal_lattice_check(pres)
    assert rep["passed"]
    assert rep["ideal_count"] == 4
    assert rep["theta_xi_is_identity"]
    assert rep["prime_count"] == 2


def test_ideal_check_commutative_case():
    rep = ob.ideal_lattice_check(trivial(2))
    assert rep["passed"]
    assert rep["ideal_count"] == 4
    assert rep["arrow_count"] == 2


def test_ideal_check_refuses_unverified_isotropy():
    with pytest.raises(ob.PrincipalityError):
        ob.ideal_lattice_check(rotation(3))


def test_finite_algebra_products():
    alg = ob.build_finite_algebra(pair_groupoid(2))
    assert alg.arrows == ((0, 0), (0, 1), (1, 0), (1, 1))
    # (i, j) -> k: arrow j, then arrow i, is arrow k
    assert alg.products == {
        (0, 0): 0, (0, 2): 2, (1, 0): 1, (1, 2): 3,
        (2, 1): 0, (2, 3): 2, (3, 1): 1, (3, 3): 3,
    }


# keys of the oracle's report that hold for any sets, and are not reported
ALWAYS_TRUE = {"theta_monotone", "theta_respects_meets"}


def oracle_report(pres):
    report = ideal_oracle.ideal_lattice_check(pres)
    assert all(report.pop(key) for key in ALWAYS_TRUE)
    return report


def random_principal(rng, max_points):
    points = rng.randint(1, max_points)
    gens = []
    for _ in range(rng.randint(0, 3)):
        pairs = rng.randint(1, points)
        gens.append(list(zip(rng.sample(range(points), pairs), rng.sample(range(points), pairs))))
    return finite_groupoid(points, gens)


@pytest.mark.parametrize("spec", ["%s:%d" % (name, n) for name in ("trivial", "pair")
                                  for n in range(1, 9)])
def test_ideal_check_matches_the_oracle_on_builtins(spec):
    pres = builtin(spec)
    assert ob.ideal_lattice_check(pres) == oracle_report(pres)


def test_ideal_check_matches_the_oracle_on_random_principal_models():
    rng = random.Random(28)
    for _ in range(200):
        pres = random_principal(rng, 8)
        assert ob.ideal_lattice_check(pres) == oracle_report(pres), pres


def perturbed(alg, rng):
    """The algebra with 1-3 products added, redirected or dropped."""
    products = dict(alg.products)
    n = len(alg.arrows)
    for _ in range(rng.randint(1, 3)):
        keys = sorted(products)
        change = rng.choice(["add", "redirect", "drop"] if keys else ["add"])
        if change == "add":
            products[(rng.randrange(n), rng.randrange(n))] = rng.randrange(n)
        elif change == "redirect":
            products[rng.choice(keys)] = rng.randrange(n)
        else:
            del products[rng.choice(keys)]
    return ob.FiniteAlgebra(alg.arrows, products)


def test_ideal_check_matches_the_oracle_on_perturbed_tables(monkeypatch):
    # the check reads the table: it agrees with the oracle on tables that
    # are not the matrix-unit rule, and such tables fail both
    rng = random.Random(7)
    build = ob.build_finite_algebra
    verdicts = []
    for _ in range(200):
        pres = random_principal(rng, 6)
        alg = perturbed(build(pres), rng)
        for module in (ob, ideal_oracle):
            monkeypatch.setattr(module, "build_finite_algebra", lambda pres: alg)
        report = ob.ideal_lattice_check(pres)
        assert report == oracle_report(pres), (pres, alg)
        verdicts.append(report["passed"])
    assert 0 < verdicts.count(False) < len(verdicts)


def test_ideal_check_of_twelve_orbits_is_fast():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ample.cli", "ideal-check", "trivial:12"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] and report["orbit_count"] == 12 and report["prime_count"] == 12
