import pytest

from ample import groupoid as gpd
from ample import orbits as ob
from ample.groupoid import cuntz, finite_groupoid, pair_groupoid, rotation, trivial


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
