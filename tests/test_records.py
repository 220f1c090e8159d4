"""What the record classes guarantee and the code relies on: equality by
value within one class, hashing of the shared value types, stats kept out
of ==, immutability, the constructor rules of the record base, and
UnitSpace's validation."""

import pytest

from ample import orbits
from ample import paradox as px
from ample import simplex as sx
from ample import states as st
from ample import typesemigroup as ts
from ample.groupoid import (
    ArrowPiece, Enumeration, GroupElement, PartialInjection, PrefixMap, Table, cuntz,
    enumerate_bisections, from_word, pair_groupoid, rotation)
from ample.stone import Clopen, UnitSpace, clopen, whole

C2 = cuntz(2)
X = whole(C2.space)
A1 = clopen(C2.space, ["1"])
FX = ts.family_of(X)
# Two different records of the work a solve or a search did.
STATS = (sx.Stats(1, 1, 1, 0), sx.Stats(2, 1, 1, 3))
BUDGETS = (100, 1000)


def _found(search, *args):
    """Equal outcomes of one search under two budgets, so with other stats."""
    return lambda i: search(C2, *args, BUDGETS[i])


# name -> (make, other, hashed): make(0) and make(1) build equal values
# afresh (a stats-carrying class with different stats); `other` is a
# different value of the same class; a hashed value type is immutable too.
RECORDS = {
    "UnitSpace": (lambda i: UnitSpace("shift", 2), UnitSpace("shift", 3), True),
    "Clopen": (lambda i: clopen(C2.space, ["1", "21"]), A1, True),
    "PrefixMap": (lambda i: PrefixMap("", "1"), PrefixMap("1", ""), True),
    "PartialInjection": (lambda i: PartialInjection(((0, 1),)), PartialInjection(((1, 0),)), True),
    "GroupElement": (lambda i: GroupElement("b", (("1", "2"),)), GroupElement("c", (("1", "2"),)),
                     True),
    "Table": (lambda i: Table(((0, 1), (1, 0)), (1,)), Table(((0, 1), (1, 0)), (0,)), True),
    "ArrowPiece": (lambda i: from_word(C2, ((0, 1),)).arrow_pieces[0], ArrowPiece(((0, 1),), A1),
                   True),
    "LabeledFamily": (lambda i: ts.normalize(C2.space, [(X, 1), (A1, 2)]), ts.family_of(X), True),
    "Feasible": (lambda i: sx.Feasible((1,), 2, STATS[i]), sx.Feasible((1,), 3), False),
    "Infeasible": (lambda i: sx.Infeasible((1,), 1, STATS[i]), sx.Infeasible((-1,), 1), False),
    "Optimal": (lambda i: sx.Optimal((0,), 1, (0, 1), STATS[i]), sx.Optimal((0,), 1, (1, 1)),
                False),
    "Unbounded": (lambda i: sx.Unbounded(), None, False),
    "StateVector": (lambda i: st.StateVector(1, ("1", "2"), (1, 1), 2, STATS[i]),
                    st.StateVector(1, ("1", "2"), (1, 0), 1), False),
    "FarkasCertificate": (lambda i: st.FarkasCertificate((1,), -1, 1, STATS[i]),
                          st.FarkasCertificate((1,), 1, 1), False),
    "SearchOutcome-equiv": (_found(ts.search_equiv, ts.family_of(X), ts.family_of(X), 1),
                            ts.SearchOutcome(None, "exhausted"), False),
    "SearchOutcome-leq": (_found(ts.search_leq, ts.family_of(A1), ts.family_of(X), 1),
                          ts.SearchOutcome(None, "budget"), False),
    "SearchOutcome-witness": (_found(px.search_witness, X, 2, 1, 1),
                              ts.SearchOutcome(None, "budget"), False),
    "Enumeration": (lambda i: enumerate_bisections(C2, 1), Enumeration(()), False),
    "OrbitPartition": (lambda i: orbits.orbit_partition(rotation(3)),
                       orbits.OrbitPartition(((0,), (1, 2)), (0, 1, 1)), False),
    "InvariantLattice": (lambda i: orbits.invariant_lattice(rotation(3)),
                         orbits.invariant_lattice(pair_groupoid(2)), False),
    "FiniteAlgebra": (lambda i: orbits.build_finite_algebra(pair_groupoid(2)),
                      orbits.FiniteAlgebra((), {}), False),
    "ParadoxWitness": (lambda i: px.cuntz_witness(C2, ""), px.cuntz_witness(C2, "1"), False),
    "Stats": (lambda i: sx.Stats(1, 1, 1, 0), STATS[1], False),
    "ConstraintSystem": (lambda i: st.build_constraints(C2, 1), st.build_constraints(C2, 2), False),
    "TarskiReport": (lambda i: st.tarski_report(C2, A1, 1), st.TarskiReport("inconclusive", 1),
                     False),
    "ProbeReport": (lambda i: ts.ProbeReport(1, 0, (), None), ts.ProbeReport(1, 1, (), None), False),
    "EquivCertificate": (lambda i: ts.search_equiv(C2, FX, FX, 0).certificate,
                         ts.EquivCertificate(()), False),
    "VerifyResult": (lambda i: ts.VerifyResult(True), ts.VerifyResult(False, "no"), False),
    "LeqCertificate": (lambda i: ts.search_leq(C2, ts.family_of(A1), FX, 0).certificate,
                       ts.search_leq(C2, FX, FX, 0).certificate, False),
    "SearchStats": (lambda i: ts.SearchStats(1, 100, 1, 1, 0), ts.SearchStats(2, 100, 1, 1, 0),
                    False),
}


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, other, hashed = RECORDS[name]
    a, b = make(0), make(1)
    assert a is not b
    assert a == b and not a != b
    assert a != other
    # another class never compares equal, not even a tuple of the same fields
    assert a != _fields(a) and a != object()
    assert all(a != o for _, o, _ in RECORDS.values() if o is not None and type(o) is not type(a))
    assert a  # no record is falsy, the empty Unbounded included
    if "stats" in type(a)._uncompared:
        assert _fields(a.stats) != _fields(b.stats)
    if hashed:
        assert hash(a) == hash(b)
        for field in type(a).__slots__:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
        assert a == b


@pytest.mark.parametrize("kind, size", [("shift", 10), ("shift", 1), ("finite", 0), ("torus", 2)])
def test_unit_space_validates(kind, size):
    with pytest.raises(ValueError):
        UnitSpace(kind, size)


@pytest.mark.parametrize("name", RECORDS)
def test_records_take_their_constructor_from_the_base(name):
    # UnitSpace validates its input; Clopen sets its slots directly
    cls = type(RECORDS[name][0](0))
    assert ("__init__" in vars(cls)) == (cls in (UnitSpace, Clopen))


def test_keywords_and_defaults_fill_the_fields():
    assert ts.SearchStats(nodes=1, budget=2, cells=3, candidates=4, level=5) == \
        ts.SearchStats(1, 2, 3, 4, 5)
    assert sx.Optimal((1,), 1, value=(2, 1)) == sx.Optimal((1,), 1, (2, 1))
    assert PrefixMap(beta="1", alpha="") == PrefixMap("", "1")
    assert ts.VerifyResult(True).reason == ""
    assert sx.Feasible((), 1).stats is None and ts.SearchOutcome(None, "budget").stats is None
    report = st.TarskiReport("inconclusive", 2)
    assert (report.state, report.partial, report.note, report.stats) == (None, False, "", None)


@pytest.mark.parametrize("make", [
    lambda: ts.VerifyResult(),
    lambda: PrefixMap(""),
    lambda: ts.VerifyResult(True, "", None),
    lambda: PrefixMap("", "1", "2"),
    lambda: ts.VerifyResult(True, why=""),
    lambda: ts.VerifyResult(True, ok=False),
    lambda: PrefixMap("", alpha="1"),
], ids=["missing", "missing-frozen", "extra", "extra-frozen", "unknown", "repeated",
        "repeated-frozen"])
def test_bad_constructor_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()
