import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ample import convalg as ca
from ample import paradox as px
from ample import serialize as ser
from ample import states as st
from ample import typesemigroup as ts
from ample.groupoid import cuntz, from_word, odometer, pair_groupoid, rotation
from ample.stone import UnitSpace, clopen, whole


C2 = cuntz(2)


def _q(num, den=1):
    return {"num": str(num), "den": str(den)}


# No command reads state, Farkas or element files back, so their encoders
# are checked against golden JSON.


def test_rational_round_trip():
    # an int numerator over a positive den, written in lowest terms
    assert ser.encode_rational(-7, 12) == _q(-7, 12)
    assert ser.encode_rational(4, 2) == _q(2)
    assert ser.encode_rational(-6, 4) == _q(-3, 2)
    assert ser.encode_rational(0, 5) == _q(0)
    assert ser.encode_rational(3) == _q(3)


def test_space_and_clopen_round_trip():
    for space in (UnitSpace.shift(2), UnitSpace.finite(4)):
        assert ser.decode_space(ser.encode_space(space)) == space
    a = clopen(C2.space, ["12", "2"])
    assert ser.decode_clopen(ser.encode_clopen(a), "clopen", C2.space) == a
    with pytest.raises(ser.SchemaError):
        ser.decode_clopen({"space": {"kind": "cantor"}, "cells": []}, "clopen", C2.space)
    with pytest.raises(ser.SchemaError):
        ser.decode_clopen(ser.encode_clopen(a), "clopen", UnitSpace.finite(2))


def test_presentation_round_trip():
    for pres in (C2, pair_groupoid(3), rotation(3), rotation(3, with_table=True), odometer()):
        data = ser.encode_presentation(pres)
        again = ser.decode_presentation(data)
        assert again == pres
        assert ser.encode_presentation(again) == data


def test_presentation_rejects_overlapping_generator_domains():
    data = {
        "space": {"kind": "shift", "k": 2},
        "generators": [
            {"kind": "group_element", "label": "b", "pieces": [["1", "2"], ["12", "21"]]}
        ],
    }
    with pytest.raises(ser.SchemaError) as err:
        ser.decode_presentation(data)
    assert "overlapping" in str(err.value)


def test_word_and_bisection_round_trip():
    b = from_word(C2, ((0, 1), (1, -1)))
    data = ser.encode_bisection(b)
    assert ser.decode_bisection(data, C2) == b
    with pytest.raises(ser.SchemaError):
        ser.decode_word([["h1", 1]], C2)
    with pytest.raises(ser.SchemaError):
        ser.decode_word([["g3", 1]], C2)
    with pytest.raises(ser.SchemaError):
        ser.decode_word([["g1", 2]], C2)


def test_family_round_trip():
    fam = ts.normalize(
        C2.space, [(clopen(C2.space, ["1"]), 1), (clopen(C2.space, ["21"]), 2)]
    )
    assert ser.decode_family(ser.encode_family(fam), C2) == fam


def test_certificate_round_trips():
    fam = ts.family_of(whole(C2.space))
    leq = ts.search_leq(C2, ts.multiple(fam, 2), fam, 1).certificate
    data = ser.encode_leq_certificate(leq)
    again = ser.decode_certificate(data, C2)
    assert ts.verify_leq(C2, ts.multiple(fam, 2), ts.multiple(fam, 1), again).ok
    assert ser.encode_leq_certificate(again) == data

    eq = leq.equivalence
    data2 = ser.encode_equiv_certificate(eq)
    again2 = ser.decode_certificate(data2, C2)
    assert again2.triples == eq.triples


def test_witness_round_trip():
    w = px.cuntz_witness(C2, "1")
    data = ser.encode_witness(w)
    again = ser.decode_witness(data, C2)
    assert px.verify_witness(C2, again).ok
    assert ser.encode_witness(again) == data


def test_state_and_farkas_round_trip():
    sv = st.solve_state(st.build_constraints(rotation(3), 0))
    assert ser.encode_state(sv) == {
        "schema_version": 1, "kind": "state", "depth": 0,
        "values": [[0, _q(1, 3)], [1, _q(1, 3)], [2, _q(1, 3)]],
    }
    # each value is written in its own lowest terms
    half = st.StateVector(0, (0, 1, 2), (2, 1, 1), 4)
    assert ser.encode_state(half)["values"] == [[0, _q(1, 2)], [1, _q(1, 4)], [2, _q(1, 4)]]

    fc = st.solve_state(st.build_constraints(C2, 1))
    assert ser.encode_farkas(fc, 1, ["a", "b"]) == {
        "schema_version": 1, "kind": "farkas", "depth": 1,
        "equality_multipliers": [_q(-1), _q(-1)],
        "normalization_multiplier": _q(1),
        "constraints": ["a", "b"],
    }


def test_element_round_trip():
    elem = ca.from_terms(
        C2, [(((0, 1),), "1", 2), ((), "2", -1)]
    )
    assert ser.encode_element(elem) == {
        "schema_version": 1, "kind": "element",
        "terms": [
            {"word": [], "cell": "2", "coef": _q(-1)},
            {"word": [["g1", 1]], "cell": "1", "coef": _q(2)},
        ],
    }


def test_table_element_words_round_trip():
    rt = rotation(3, with_table=True)
    sq = ca.from_terms(rt, [(((0, 1), (0, 1)), 0, 1)])
    # the canonical representative of the squared rotation is stored
    terms = ser.encode_element(sq)["terms"]
    assert terms == [{"word": [["g1", -1]], "cell": 0, "coef": _q(1)}]
    assert ser.decode_word(terms[0]["word"], rt) == ((0, -1),)


def test_principal_element_round_trip():
    p3 = pair_groupoid(3)
    # an off-diagonal arrow: 0 -> 2 needs both transposition generators
    hop = ca.from_terms(p3, [(((1, 1), (0, 1)), 0, -3)])
    terms = ser.encode_element(hop)["terms"]
    assert terms == [{"word": [["g2", 1], ["g1", 1]], "cell": 0, "coef": _q(-3)}]
    assert ser.decode_word(terms[0]["word"], p3) == ((1, 1), (0, 1))


def test_builtin_arg_parsing(tmp_path):
    assert ser.parse_presentation_arg("cuntz:2") == C2
    path = tmp_path / "pres.json"
    path.write_text(ser.dumps(ser.encode_presentation(odometer())))
    assert ser.parse_presentation_arg(str(path)) == odometer()
    with pytest.raises(ser.SchemaError):
        ser.parse_presentation_arg(str(tmp_path / "missing.json"))


# Strings with non-ASCII characters, control characters, quotes and
# backslashes; ints past 2**64; the JSON constants; empty containers.
_TEXT = hs.text(hs.sampled_from('a\u00e9\u2028\U0001f600"\\/\n\t\x00\x1f\x7f '), max_size=6)
_VALUES = hs.recursive(
    _TEXT | hs.none() | hs.booleans() | hs.integers(-2**70, 2**70),
    lambda children: (hs.lists(children, max_size=4) | hs.lists(children, max_size=4).map(tuple)
                      | hs.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dumps_writes_what_json_writes(value):
    assert ser.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_writes_shared_values_as_json_does():
    # one dict met twice, at two depths, is no cycle
    shared = {"num": "1", "den": "2"}
    value = [shared, [shared], {"a": shared, "b": [[], {}, ()]}]
    assert ser.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_writes_values_deeper_than_the_recursion_limit():
    n = 5000  # json itself recurses, so the text is written out here
    deep = []
    for _ in range(n):
        deep = [deep]
    text = "".join("  " * i + "[\n" for i in range(n)) + "  " * n + "[]"
    text += "".join("\n" + "  " * i + "]" for i in reversed(range(n)))
    assert ser.dumps(deep) == text + "\n"


@pytest.mark.parametrize("value", [{1}, [b"x"], {"a": [object()]}, {(1,): 2}, {"a": 1, 2: 3},
                                   1.5, {"a": [0.0]}, {1: "a"}])
def test_dumps_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        ser.dumps(value)


def test_dumps_refuses_a_container_inside_itself():
    loop = [1]
    loop.append({"a": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        ser.dumps(loop)
