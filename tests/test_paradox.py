import importlib
import json
import pathlib
import random
from itertools import combinations

import pytest

import leq_chain
from ample import groupoid as gpd
from ample import stone
from ample import paradox as px
from ample import serialize as ser
from ample import typesemigroup as ts
from ample.groupoid import cuntz, finite_groupoid, from_word, odometer, pair_groupoid, rotation
from ample.stone import clopen, whole


ROOT = pathlib.Path(__file__).resolve().parent.parent
C2 = cuntz(2)
C3 = cuntz(3)
X2 = whole(C2.space)


def _rows_disjoint(w):
    """Whether the pieces of each row of the witness have disjoint domains."""
    return all(a.dom().disjoint_from(b.dom())
               for row in w.rows for (a, _), (b, _) in combinations(row, 2))


def test_cuntz_whole_space_witness_verifies():
    w = px.cuntz_witness(C2, "")
    assert (w.k, w.l) == (2, 1)
    assert px.verify_witness(C2, w).ok


def test_cuntz_cylinder_witness_verifies():
    w = px.cuntz_witness(C3, "2")
    assert px.verify_witness(C3, w).ok
    assert w.a.cells == ("2",)


def test_verify_rejects_row_gap():
    w = px.cuntz_witness(C2, "")
    broken = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], ()))
    res = px.verify_witness(C2, broken)
    assert not res.ok and "row 2" in res.reason


def test_verify_rejects_range_overlap():
    w = px.cuntz_witness(C2, "")
    bad = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], w.rows[0]))
    res = px.verify_witness(C2, bad)
    assert not res.ok and "overlap" in res.reason


def test_verify_rejects_range_escape():
    u1 = from_word(C2, ((0, 1),))
    u2 = from_word(C2, ((1, 1),))
    a = clopen(C2.space, ["1"])
    w = px.ParadoxWitness(a, 2, 1, (((u1.restrict(a), 1),), ((u2.restrict(a), 1),)))
    res = px.verify_witness(C2, w)
    assert not res.ok and "escapes" in res.reason


def test_verify_rejects_bad_shape():
    w = px.cuntz_witness(C2, "")
    assert not px.verify_witness(C2, px.ParadoxWitness(w.a, 1, 1, (w.rows[0],))).ok
    assert not px.verify_witness(C2, px.ParadoxWitness(clopen(C2.space, []), 2, 1, w.rows)).ok


def test_verify_rejects_a_set_over_the_wrong_space():
    w = px.cuntz_witness(C2, "")
    res = px.verify_witness(C2, px.ParadoxWitness(whole(C3.space), 2, 1, w.rows))
    assert (res.ok, res.reason) == (False, "witness set over the wrong space")


def test_verify_rejects_a_piece_over_another_presentation():
    w = px.cuntz_witness(C2, "")
    # the same space and the same first generator, but another presentation
    other = gpd.Presentation(C2.space, C2.generators[:1])
    foreign = from_word(other, ((0, 1),))
    for piece in (foreign, "not a bisection"):
        bad = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], ((piece, 1),)))
        res = px.verify_witness(C2, bad)
        assert (res.ok, res.reason) == (False, "row 2 has a piece over another presentation")


def test_rotation_admits_no_witness_by_exhaustion():
    rot = rotation(3)
    for k, l in ((2, 1), (3, 1), (3, 2)):
        out = px.search_witness(rot, whole(rot.space), k, l, 3, budget=500000)
        assert out.status == "exhausted"


def test_witness_to_leq_whole_space_has_empty_remainder():
    w = px.cuntz_witness(C2, "")
    cert = leq_chain.witness_to_leq(C2, w)
    assert cert.remainder.is_empty
    fam = ts.family_of(X2)
    assert ts.verify_leq(C2, ts.multiple(fam, 2), ts.multiple(fam, 1), cert).ok


def test_witness_to_leq_with_genuine_remainder():
    # rows prepend 11 and 12, so the ranges tile 1X and the leftover is 2X
    u11 = from_word(C2, ((0, 1), (0, 1)))
    u12 = from_word(C2, ((0, 1), (1, 1)))
    w = px.ParadoxWitness(X2, 2, 1, (((u11, 1),), ((u12, 1),)))
    assert px.verify_witness(C2, w).ok
    cert = leq_chain.witness_to_leq(C2, w)
    assert cert.remainder.entries == (clopen(C2.space, ["2"]),)
    fam = ts.family_of(X2)
    assert ts.verify_leq(C2, ts.multiple(fam, 2), ts.multiple(fam, 1), cert).ok


def test_leq_round_trip():
    w = px.cuntz_witness(C2, "")
    cert = leq_chain.witness_to_leq(C2, w)
    back = leq_chain.leq_to_witness(C2, w.a, 2, 1, cert)
    assert px.verify_witness(C2, back).ok
    again = leq_chain.witness_to_leq(C2, back)
    fam = ts.family_of(X2)
    assert ts.verify_leq(C2, ts.multiple(fam, 2), ts.multiple(fam, 1), again).ok


def test_independent_witnesses_merge_blockwise():
    wa = px.cuntz_witness(C2, "1")
    wb = px.cuntz_witness(C2, "2")
    ca = leq_chain.witness_to_leq(C2, wa)
    cb = leq_chain.witness_to_leq(C2, wb)
    fa, fb = ts.family_of(wa.a), ts.family_of(wb.a)
    combined = leq_chain.leq_add(
        C2, ts.multiple(fa, 2), ts.multiple(fa, 1), ca, ts.multiple(fb, 2), ts.multiple(fb, 1), cb
    )
    left = ts.add(ts.multiple(fa, 2), ts.multiple(fb, 2))
    right = ts.add(ts.multiple(fa, 1), ts.multiple(fb, 1))
    assert ts.verify_leq(C2, left, right, combined).ok


def test_weaken_to_three_two():
    w = px.cuntz_witness(C2, "")
    w32 = px.weaken(C2, w, 3, 2)
    assert (w32.k, w32.l) == (3, 2)
    assert px.verify_witness(C2, w32).ok


def test_weaken_reaches_larger_k_and_l():
    w = px.cuntz_witness(C2, "")
    for k2, l2 in ((4, 1), (5, 3), (3, 1)):
        out = px.weaken(C2, w, k2, l2)
        assert px.verify_witness(C2, out).ok
    with pytest.raises(px.WitnessError):
        px.weaken(C2, w, 2, 2)


def test_weaken_rejects_bad_shapes_and_witnesses():
    w = px.cuntz_witness(C2, "")
    for k2, l2 in ((2, 2), (3, 0), (1, 2)):
        with pytest.raises(px.WitnessError, match="invalid weakening targets"):
            px.weaken(C2, w, k2, l2)
    bad = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], w.rows[0]))
    with pytest.raises(px.WitnessError, match="does not verify: ranges overlap"):
        px.weaken(C2, bad, 3, 2)
    gap = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], ()))
    with pytest.raises(px.WitnessError, match="does not verify: row 2"):
        px.weaken(C2, gap, 5, 3)


def test_a_witness_that_fails_its_own_verifier_is_an_internal_error(monkeypatch):
    # not an input error: the caller's witness and set were fine
    w = px.cuntz_witness(C2, "")
    verify = px.verify_witness
    calls = []

    def reject_all_but_the_first(pres, witness):
        calls.append(witness)
        return verify(pres, witness) if len(calls) == 1 else ts.VerifyResult(False, "made up")

    monkeypatch.setattr(px, "verify_witness", reject_all_but_the_first)
    # weaken checks its input, accepted, and then its result
    with pytest.raises(stone.InternalError, match="^weakening produced a non-verifying witness: made up$"):
        px.weaken(C2, w, 3, 2)
    with pytest.raises(stone.InternalError, match="^search produced a non-verifying witness: made up$"):
        px.search_witness(C2, X2, 2, 1, 1)
    assert not issubclass(stone.InternalError, stone.InputError)


# The shapes the direct weakening is compared on with the certificate chain.
WEAK_SHAPES = ((3, 2), (5, 3), (8, 3), (4, 1), (3, 1), (6, 2), (15, 4), (7, 5), (9, 4), (4, 3))


def _certify_inputs(monkeypatch, tmp_path, seed):
    """The directory of the benchmark's certify inputs at seed."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    d = tmp_path / str(seed)
    d.mkdir()
    importlib.import_module("workloads").make_inputs("certify", seed, str(d))
    return d


def _weaken_agrees_with_the_chain(pres, w):
    for k2, l2 in WEAK_SHAPES:
        if l2 >= w.l:
            direct, chain = (ser.dumps(ser.encode_witness(weaken(pres, w, k2, l2)))
                             for weaken in (px.weaken, leq_chain.weaken))
            assert direct == chain, (k2, l2)


@pytest.mark.parametrize("seed", range(1, 21))
def test_weaken_matches_the_chain_on_certify_witnesses(monkeypatch, tmp_path, seed):
    d = _certify_inputs(monkeypatch, tmp_path, seed)
    w = ser.decode_witness(json.loads((d / "w3.json").read_text()), C2)
    _weaken_agrees_with_the_chain(C2, w)


@pytest.mark.parametrize("pres", (C2, C3), ids=("cuntz:2", "cuntz:3"))
def test_weaken_matches_the_chain_on_cuntz_witnesses(pres):
    _weaken_agrees_with_the_chain(pres, px.cuntz_witness(pres, ""))
    _weaken_agrees_with_the_chain(pres, px.cuntz_witness(pres, "1", pres.space.size))


@pytest.mark.parametrize("pres, depth", ((C2, 1), (C2, 2), (C2, 3), (C3, 1), (C3, 2)),
                         ids=("cuntz:2-1", "cuntz:2-2", "cuntz:2-3", "cuntz:3-1", "cuntz:3-2"))
def test_weaken_matches_the_chain_on_searched_witnesses(pres, depth):
    for k, l in ((2, 1), (3, 2)):
        out = px.search_witness(pres, whole(pres.space), k, l, depth, budget=20000)
        assert out.status == "found"
        _weaken_agrees_with_the_chain(pres, out.certificate)


def test_disjointify_is_identity_on_disjoint_rows():
    w = px.cuntz_witness(C2, "")
    assert _rows_disjoint(w)
    same = px.disjointify(C2, w)
    assert same.rows == w.rows


def test_disjointify_trims_overlaps_and_preserves_cover():
    u1 = from_word(C2, ((0, 1),))
    u1_half = from_word(C2, ((0, 1),), domain=clopen(C2.space, ["1"]))
    u2 = from_word(C2, ((1, 1),))
    row = ((u1, 1), (u1_half.compose(from_word(C2, ((0, -1),))), 1))
    # build an overlapping row artificially: both pieces start from X-parts
    over = px.ParadoxWitness(X2, 2, 1, (((u1, 1),), ((u2, 1),)))
    doubled = px.ParadoxWitness(X2, 2, 1, (((u1, 1), (u1, 1)), ((u2, 1),)))
    assert not _rows_disjoint(doubled)
    fixed = px.disjointify(C2, doubled)
    assert _rows_disjoint(fixed)
    assert len(fixed.rows[0]) == 1
    assert px.verify_witness(C2, fixed).ok
    assert px.verify_witness(C2, over).ok


def test_search_finds_cuntz_witnesses():
    for pres in (C2, C3):
        out = px.search_witness(pres, whole(pres.space), 2, 1, 1)
        assert out.status == "found"
        assert px.verify_witness(pres, out.certificate).ok


def test_search_finds_cylinder_witnesses_at_small_depth():
    for alpha in ("1", "2", "11", "21"):
        a = clopen(C2.space, [alpha])
        out = px.search_witness(C2, a, 2, 1, len(alpha) + 1)
        assert out.status == "found", alpha
        assert px.verify_witness(C2, out.certificate).ok


def test_search_deterministic():
    a = px.search_witness(C2, X2, 2, 1, 1).certificate
    b = px.search_witness(C2, X2, 2, 1, 1).certificate
    assert a.rows == b.rows


def test_odometer_has_no_witness_within_budget():
    # an invariant state exists at this depth (states module), so by the
    # Tarski consistency no witness can verify; the search comes back empty
    odo = odometer()
    out = px.search_witness(odo, whole(odo.space), 2, 1, 3, budget=60000)
    assert out.status in ("exhausted", "budget")
    assert out.certificate is None


def test_finite_spaces_never_verify_witnesses():
    # counting: domains total k|A|, ranges fit in l|A|, bijections preserve size
    rng = random.Random(41)
    for n in (2, 3, 4):
        pres = pair_groupoid(n)
        out = px.search_witness(pres, whole(pres.space), 2, 1, 2, budget=20000)
        assert out.status != "found"
    pres = finite_groupoid(4, [[(0, 1)], [(1, 2), (3, 0)]])
    out = px.search_witness(pres, whole(pres.space), 2, 1, 2, budget=20000)
    assert out.status != "found"


def _merge_rows(w):
    """Each row of a disjoint (2,1) witness as one bisection: a pseudo-pair."""
    return tuple(gpd.Bisection(C2, [(p.word, p.domain) for bis, _ in row for p in bis.arrow_pieces])
                 for row in w.rows)


def test_merge_to_pseudopair_cuntz():
    w = px.cuntz_witness(C2, "")
    s1, s2 = _merge_rows(w)
    assert s1 == from_word(C2, ((0, 1),))
    assert s2 == from_word(C2, ((1, 1),))
    assert s1.dom() == w.a and s2.dom() == w.a
    assert s1.ran().disjoint_from(s2.ran())


def test_merge_multi_piece_rows():
    # row one tiles X as 1X -> 11X and 2X -> 122X; row two prepends 21
    p11 = from_word(C2, ((0, 1),), domain=clopen(C2.space, ["1"]))
    p21 = from_word(C2, ((0, 1), (1, 1)), domain=clopen(C2.space, ["2"]))
    row1 = ((p11, 1), (p21, 1))
    row2 = ((from_word(C2, ((1, 1), (0, 1))), 1),)
    w = px.ParadoxWitness(X2, 2, 1, (row1, row2))
    assert px.verify_witness(C2, w).ok
    assert _rows_disjoint(w)
    s1, s2 = _merge_rows(w)
    assert s1.dom() == X2 and s2.dom() == X2
    assert s1.ran().disjoint_from(s2.ran())
    # splitting the merged pair back into pieces re-verifies
    rows = (
        tuple((gpd.Bisection(C2, [(p.word, p.domain)]), 1) for p in s1.arrow_pieces),
        tuple((gpd.Bisection(C2, [(p.word, p.domain)]), 1) for p in s2.arrow_pieces),
    )
    assert px.verify_witness(C2, px.ParadoxWitness(X2, 2, 1, rows)).ok
