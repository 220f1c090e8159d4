import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ample import convalg as ca
from ample import groupoid as gpd
from ample import paradox as px
from ample import states as st
from ample import stone
from ample.groupoid import cuntz, from_word, odometer, pair_groupoid, rotation
from ample.stone import clopen, whole


C2 = cuntz(2)
X = whole(C2.space)
U1 = from_word(C2, ((0, 1),))
U2 = from_word(C2, ((1, 1),))


def test_cuntz_isometry_relations():
    f = ca.bisection_indicator(C2, U1)
    one = ca.unit_indicator(C2, X)
    assert ca.conv(ca.star(f), f) == one
    assert ca.conv(f, ca.star(f)) == ca.unit_indicator(C2, clopen(C2.space, ["1"]))


def test_expectation_kills_off_unit_arrows():
    u12 = from_word(C2, ((0, 1), (1, -1)))
    assert not ca.expectation(ca.bisection_indicator(C2, u12)).terms
    one = ca.unit_indicator(C2, clopen(C2.space, ["12"]))
    assert ca.expectation(one) == one


def _random_element(pres, rng, words, max_cells=2, coef_range=3):
    terms = []
    for _ in range(rng.randint(0, max_cells)):
        w = rng.choice(words)
        dom = gpd.action_domain(pres.space, pres.word_action(w))
        if dom.is_empty:
            continue
        cell = rng.choice(dom.cells)
        coef = rng.randint(-coef_range, coef_range)
        terms.append((w, cell, coef))
    return ca.from_terms(pres, terms)


WORDS_C2 = [(), ((0, 1),), ((1, 1),), ((0, -1),), ((1, -1),), ((0, 1), (1, -1))]


def test_associativity_and_involution_random():
    rng = random.Random(59)
    rot = rotation(3)
    words_rot = [(), ((0, 1),), ((0, -1),), ((0, 1), (0, 1))]
    for _ in range(300):
        if rng.random() < 0.5:
            pres, words = C2, WORDS_C2
        else:
            pres, words = rot, words_rot
        a = _random_element(pres, rng, words)
        b = _random_element(pres, rng, words)
        c = _random_element(pres, rng, words)
        assert ca.conv(ca.conv(a, b), c) == ca.conv(a, ca.conv(b, c))
        assert ca.star(ca.conv(a, b)) == ca.conv(ca.star(b), ca.star(a))
        assert ca.star(ca.star(a)) == a


def test_expectation_positive_and_faithful():
    rng = random.Random(61)
    for _ in range(300):
        a = _random_element(C2, rng, WORDS_C2, max_cells=3)
        e = ca.expectation(ca.conv(ca.star(a), a))
        values = [v for _, _, v in e.items()]
        assert all(v >= 0 for v in values)
        assert bool(values) == bool(a.terms)


def test_conditional_expectation_bimodule_property():
    rng = random.Random(67)
    for _ in range(100):
        a = _random_element(C2, rng, WORDS_C2, max_cells=3)
        h1 = ca.unit_indicator(C2, clopen(C2.space, [c for c in C2.space.cells_at_depth(2) if rng.random() < 0.5]))
        h2 = ca.unit_indicator(C2, clopen(C2.space, [c for c in C2.space.cells_at_depth(2) if rng.random() < 0.5]))
        left = ca.expectation(ca.conv(h1, ca.conv(a, h2)))
        right = ca.conv(h1, ca.conv(ca.expectation(a), h2))
        assert left == right


def test_isometries_from_witness_cuntz():
    w = px.cuntz_witness(C2, "")
    f, g, report = ca.isometries_from_witness(C2, w)
    assert all(report.values())
    assert f == ca.bisection_indicator(C2, U1)
    assert g == ca.bisection_indicator(C2, U2)
    # the two range projections exactly tile the unit in this example
    total = ca.add(ca.conv(f, ca.star(f)), ca.conv(g, ca.star(g)))
    assert total == ca.unit_indicator(C2, X)


def test_isometries_on_proper_cylinder():
    w = px.cuntz_witness(C2, "1")
    f, g, report = ca.isometries_from_witness(C2, w)
    assert all(report.values())
    one_a = ca.unit_indicator(C2, clopen(C2.space, ["1"]))
    assert ca.conv(ca.star(f), f) == one_a
    assert ca.add(ca.conv(f, ca.star(f)), ca.conv(g, ca.star(g))) == one_a


def test_isometries_refuse_corrupted_witness():
    w = px.cuntz_witness(C2, "")
    bad = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], w.rows[0]))
    with pytest.raises(ca.AlgebraError):
        ca.isometries_from_witness(C2, bad)


def test_matrix_isometries_two_one():
    w = px.cuntz_witness(C2, "")
    mats, report = ca.matrix_isometries(C2, w)
    assert len(mats) == 2
    assert all(report.values())


def test_matrix_isometries_weakened_three_two():
    w32 = px.weaken(C2, px.cuntz_witness(C2, ""), 3, 2)
    mats, report = ca.matrix_isometries(C2, w32)
    assert all(report.values())


def test_sparse_matrix_algebra_matches_its_dense_definition():
    rng = random.Random(73)
    enum = gpd.enumerate_bisections(C2, 2).bisections
    zero = ca.zero(C2)
    n = 3

    def rand_mat():
        return {(i, j): ca.scale(ca.bisection_indicator(C2, rng.choice(enum)),
                                 rng.choice((-1, 1, 2)))
                for i in range(n) for j in range(n) if rng.random() < 0.5}

    def dense(x):
        return [[x.get((i, j), zero) for j in range(n)] for i in range(n)]

    def nonzero(rows):
        return {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row) if e.terms}

    for _ in range(30):
        x, y = rand_mat(), rand_mat()
        a, b = dense(x), dense(y)
        prod = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for t in range(n):
                    prod[i][j] = ca.add(prod[i][j], ca.conv(a[i][t], b[t][j]))
        assert ca._mat_conv(x, y) == nonzero(prod)
        assert ca._mat_star(x) == nonzero([[ca.star(a[j][i]) for j in range(n)] for i in range(n)])
        total = [[ca.add(a[i][j], b[i][j]) for j in range(n)] for i in range(n)]
        assert ca._mat_sum(list(x.items()) + list(y.items())) == nonzero(total)


def test_matrix_isometries_weakened_five_three():
    # the ranges sit in rows below l = 3, so rows 3 and 4 of their sum stay empty
    w53 = px.weaken(C2, px.cuntz_witness(C2, ""), 5, 3)
    mats, report = ca.matrix_isometries(C2, w53)
    assert all(report.values())
    assert len(mats) == sum(len(row) for row in px.disjointify(C2, w53).rows)
    assert all(len(x) == 1 for x in mats)


def test_matrix_isometries_reject_empty_row():
    w = px.cuntz_witness(C2, "")
    broken = px.ParadoxWitness(w.a, 2, 1, (w.rows[0], ()))
    with pytest.raises(ca.AlgebraError):
        ca.matrix_isometries(C2, broken)


# The regular representation at a point acts by left convolution on the
# arrows with source that point; a point's unit indicator picks them out.


def test_regular_rep_pair_groupoid():
    p2 = pair_groupoid(2)
    e0 = ca.unit_indicator(p2, clopen(p2.space, [0]))
    t = ca.bisection_indicator(p2, from_word(p2, ((0, 1),)))
    assert list(ca.conv(t, e0).items()) == [(("p", (0, 1)), 0, 1)]
    one = ca.unit_indicator(p2, whole(p2.space))
    assert ca.conv(one, e0) == e0 and ca.conv(one, t) == t


def test_regular_rep_rotation_table_cycle():
    rt = rotation(3, with_table=True)
    rho = ca.bisection_indicator(rt, from_word(rt, ((0, 1),)))
    one = ca.unit_indicator(rt, whole(rt.space))
    powers = [one, rho, ca.conv(rho, rho)]
    assert len(set(powers)) == 3
    assert ca.conv(powers[2], rho) == one


def _coefficient(a, key, point):
    """The value of `a` on the arrow with the given key and source point."""
    finite = a.pres.space.kind == stone.FINITE
    for cell, coef in a.terms.get(key, {}).items():
        if cell == point if finite else point.startswith(cell):
            return coef
    return 0


def test_regular_rep_diagonal_matches_expectation():
    rt = rotation(3, with_table=True)
    e0 = ca.unit_indicator(rt, clopen(rt.space, [0]))
    ((unit_key, _, _),) = e0.items()
    rho = ca.bisection_indicator(rt, from_word(rt, ((0, 1),)))
    x = ca.conv(rho, ca.star(rho))
    diag = _coefficient(ca.conv(x, e0), unit_key, 0)
    assert _coefficient(ca.expectation(x), unit_key, 0) == diag


def _trace(sv, a):
    """tau(a) = sum over cells of mu(cell) times E(a) on that cell, times sv.den."""
    space = a.pres.space
    return sum(v * sv.evaluate_clopen(clopen(space, [cell]))
               for _, cell, v in ca.expectation(a).items())


def test_trace_normalization_and_generator():
    sv = st.solve_state(st.build_constraints(odometer(), 3))
    odo = odometer()
    assert _trace(sv, ca.unit_indicator(odo, whole(odo.space))) == sv.den
    g = ca.bisection_indicator(odo, from_word(odo, ((0, 1),)))
    assert _trace(sv, g) == 0


def test_trace_on_rotation_conjugates():
    rot = rotation(3)
    sv = st.solve_state(st.build_constraints(rot, 0))
    rho = ca.bisection_indicator(rot, from_word(rot, ((0, 1),)))
    assert _trace(sv, ca.conv(rho, ca.star(rho))) == sv.den
    assert _trace(sv, ca.conv(ca.star(rho), rho)) == sv.den


def test_depth_cap_guards_products():
    deep = ca.bisection_indicator(C2, from_word(C2, ((0, -1),) * 7))
    assert deep.max_depth() == 7
    with pytest.raises(ca.DepthOverflow):
        ca.conv(deep, deep)


def test_convolution_matches_sum_over_factorizations():
    # independent oracle on finite models: evaluate the product arrow by
    # arrow as the sum of f1(h) f2(h^-1 g) over h composable with g
    rng = random.Random(131)
    for pres in (pair_groupoid(3), rotation(3, with_table=True), gpd.trivial(2)):
        enum = gpd.enumerate_bisections(pres, 2).bisections
        # every arrow lies in a bisection of a word of length at most 2
        arrows = sorted({(key, src) for b in enum
                         for key, src, _ in ca.bisection_indicator(pres, b).items()})

        def rand_elem():
            parts = ca.zero(pres)
            for _ in range(rng.randint(1, 2)):
                parts = ca.add(parts, ca.scale(ca.bisection_indicator(pres, rng.choice(enum)),
                                               rng.randint(-2, 2)))
            return parts

        for _ in range(40):
            a, b = rand_elem(), rand_elem()
            prod = ca.conv(a, b)
            for gkey, gsrc in arrows:
                gact = dict(pres.key_action(gkey))
                gtgt = gact[gsrc]
                total = 0
                for hkey, hsrc in arrows:
                    hact = dict(pres.key_action(hkey))
                    if hact[hsrc] != gtgt:
                        continue  # h runs over the arrows with r(h) = r(g)
                    coef1 = _coefficient(a, hkey, hsrc)
                    if coef1 == 0:
                        continue
                    inv_h = pres.key_inverse(hkey)
                    rest = pres.key_product(inv_h, gkey)
                    if rest is None:
                        continue
                    ract = dict(pres.key_action(rest))
                    if gsrc not in ract:
                        continue
                    total += coef1 * _coefficient(b, rest, gsrc)
                assert _coefficient(prod, gkey, gsrc) == total


# Reference product and star over clopens, a differential oracle: each
# pair of terms goes through `clopen`, `action_apply` and `intersect`, every
# key is canonicalised by `stone.sum_cells`, and the terms come out as
# {key: [(cell, coef), ...]}.


def _canonical_terms(pres, raw_terms):
    by_key = {}
    for key, cell, coef in raw_terms:
        if coef:
            by_key.setdefault(key, []).append((cell, coef))
    terms = {key: stone.sum_cells(pres.space, pairs) for key, pairs in by_key.items()}
    return {key: items for key, items in terms.items() if items}


def _clopen_conv(a, b):
    pres = a.pres
    space = pres.space
    terms = []
    for k1, c1, q1 in a.items():
        dom1 = clopen(space, [c1])
        for k2, c2, q2 in b.items():
            key = pres.key_product(k1, k2)
            if key is None:
                continue
            act2 = pres.key_action(k2)
            image = gpd.action_apply(space, act2, clopen(space, [c2])).intersect(dom1)
            if image.is_empty:
                continue
            dom = gpd.action_apply(space, gpd.invert_action(space, act2), image)
            for cell in dom.cells:
                terms.append((key, cell, q1 * q2))
    return _canonical_terms(pres, terms)


def _clopen_star(a):
    pres = a.pres
    space = pres.space
    terms = []
    for key, cell, coef in a.items():
        image = gpd.action_apply(space, pres.key_action(key), clopen(space, [cell]))
        ikey = pres.key_inverse(key)
        for icell in image.cells:
            terms.append((ikey, icell, coef))
    return _canonical_terms(pres, terms)


def _listed(elem):
    """An element's terms with each key's cells in their stored order."""
    return {key: list(cyl.items()) for key, cyl in elem.terms.items()}


ALIASES = ("cuntz:2", "odometer", "rotation:3", "rotation:3:table", "pair:4")
PRESENTATIONS = {alias: gpd.builtin(alias) for alias in ALIASES}
WORDS = {alias: [w for w, _ in gpd.word_table(pres, 2).entries]
         for alias, pres in PRESENTATIONS.items()}


@hs.composite
def _raw_terms(draw, alias):
    """(word, cell, coefficient) triples: each cell lies in its word's
    domain, and on the shift it may sit below a domain cell."""
    pres = PRESENTATIONS[alias]
    triples = []
    for _ in range(draw(hs.integers(0, 4))):
        word = draw(hs.sampled_from(WORDS[alias]))
        cell = draw(hs.sampled_from(gpd.action_domain(pres.space, pres.word_action(word)).cells))
        if pres.space.kind == stone.SHIFT:
            cell += draw(hs.text(alphabet="".join(pres.space.letters), max_size=2))
        triples.append((word, cell, draw(hs.integers(-2, 2))))
    return triples


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=hs.data())
def test_cylinder_word_algebra_matches_the_clopen_oracle(data):
    alias = data.draw(hs.sampled_from(ALIASES))
    pres = PRESENTATIONS[alias]
    raw_a, raw_b = data.draw(_raw_terms(alias)), data.draw(_raw_terms(alias))
    a, b = ca.from_terms(pres, raw_a), ca.from_terms(pres, raw_b)
    keyed = [(pres.piece_key(word, (cell, dict(pres.word_action(word)).get(cell))), cell, coef)
             for word, cell, coef in raw_a]
    assert _listed(a) == _canonical_terms(pres, keyed)
    assert _listed(ca.conv(a, b)) == _clopen_conv(a, b)
    assert _listed(ca.star(a)) == _clopen_star(a)
    assert _listed(ca.add(a, b)) == _canonical_terms(pres, list(a.items()) + list(b.items()))
    assert _listed(ca.scale(a, -2)) == _canonical_terms(pres, [(k, c, -2 * v) for k, c, v in a.items()])


@pytest.mark.parametrize("alias", ALIASES)
def test_products_and_stars_build_no_clopen(alias, monkeypatch):
    # the first pass builds each key's domain once, for the escape check;
    # after it, products and stars are prefix arithmetic on cylinder words
    pres = PRESENTATIONS[alias]
    elems = [ca.bisection_indicator(pres, bis) for bis in gpd.enumerate_bisections(pres, 2).bisections]
    elems.append(ca.add(elems[-1], ca.scale(elems[len(elems) // 2], 3)))

    def products():
        return [(ca.conv(x, y), ca.star(x)) for x in elems for y in elems]

    expected = products()

    def refuse(*args, **kwargs):
        raise AssertionError("a Clopen or an action image was built")

    monkeypatch.setattr(stone.Clopen, "__init__", refuse)
    monkeypatch.setattr(gpd, "action_apply", refuse)
    assert products() == expected
