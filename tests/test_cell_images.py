"""`groupoid.cell_images` against the image rules it replaced, and the laws
of the arrow-key algebra.

Only canonical sets are compared downstream, so the image lists are
compared as multisets; the clopens and families built from them are
compared as values.
"""

import random
from collections import Counter

import pytest

import image_oracle as oracle
from ample import convalg as ca
from ample import groupoid as gpd
from ample import typesemigroup as ts
from ample.groupoid import GroupElement, PrefixMap, Presentation, builtin
from ample.stone import FINITE, UnitSpace, clopen, whole


BUILTINS = ("cuntz:2", "cuntz:3", "odometer", "odometer:6", "rotation:3", "rotation:4:table",
            "pair:4", "trivial:3")


def _random_shift(rng):
    """Prefix maps and one group element over Shift(2) or Shift(3)."""
    space = UnitSpace.shift(rng.choice((2, 3)))
    words = [w for d in range(3) for w in space.cells_at_depth(d)]
    gens = [PrefixMap(*rng.sample(words, 2)) for _ in range(rng.randint(1, 2))]
    d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
    n = rng.randint(1, min(space.size ** d1, space.size ** d2))
    pieces = zip(rng.sample(space.cells_at_depth(d1), n), rng.sample(space.cells_at_depth(d2), n))
    return Presentation(space, gens + [GroupElement("b", tuple(pieces))])


def _random_finite(rng):
    n = rng.randint(1, 7)
    injections = []
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, n)
        injections.append(list(zip(rng.sample(range(n), k), rng.sample(range(n), k))))
    return gpd.finite_groupoid(n, injections, rng.choice((gpd.FREE, gpd.PRINCIPAL)))


def _presentations(seed):
    rng = random.Random(seed)
    return ([builtin(alias) for alias in BUILTINS] + [_random_shift(rng) for _ in range(12)]
            + [_random_finite(rng) for _ in range(12)])


def _random_clopen(space, rng, p=0.4):
    cells = (range(space.size) if space.kind == FINITE
             else space.cells_at_depth(rng.randint(0, 3)))
    return clopen(space, [c for c in cells if rng.random() < p])


@pytest.mark.parametrize("seed", range(3))
def test_cell_images_give_the_old_image_cells(seed):
    rng = random.Random(seed)
    for pres in _presentations(seed):
        space = pres.space
        for _, act in gpd.word_table(pres, 3).entries:
            # raw cell lists, overlapping and repeated cells included
            cells = (rng.choices(range(space.size), k=rng.randint(0, 6)) if space.kind == FINITE
                     else rng.choices([c for d in range(4) for c in space.cells_at_depth(d)],
                                      k=rng.randint(0, 6)))
            pairs = gpd.cell_images(space, act, cells)
            assert Counter(image for _, image in pairs) == Counter(
                oracle._image_cells(space, act, cells))
            if space.kind != FINITE:
                assert Counter(image for _, image in pairs) == Counter(
                    oracle.shift_image_words(act, cells))
            part = _random_clopen(space, rng)
            assert gpd.action_apply(space, act, part) == oracle.action_apply(space, act, part)


def _random_bisections(pres, rng):
    """Enumerated bisections, their restrictions, inverses and products,
    and joins of two restricted to complementary parts where the ranges
    stay disjoint, so that a piece's action reaches past its domain."""
    enum = list(gpd.enumerate_bisections(pres, 2).bisections)
    out = list(enum)
    for _ in range(10):
        a, b = rng.choice(enum), rng.choice(enum)
        out += [a.restrict(_random_clopen(pres.space, rng)), a.inverse(), a.compose(b)]
        part = _random_clopen(pres.space, rng, 0.5)
        pieces = [(p.word, p.domain) for p in a.restrict(part).arrow_pieces]
        pieces += [(p.word, p.domain) for p in b.restrict(whole(pres.space).difference(part)).arrow_pieces]
        try:
            out.append(gpd.Bisection(pres, pieces))
        except gpd.PresentationError:  # the two ranges overlap
            pass
    return out


@pytest.mark.parametrize("seed", range(3))
def test_bisection_sets_are_the_folds_of_unions(seed):
    rng = random.Random(100 + seed)
    for pres in _presentations(seed):
        for bis in _random_bisections(pres, rng):
            dom = bis.dom()
            assert dom == oracle.dom(bis)
            assert bis.ran() == oracle.ran(bis)
            for _ in range(2):
                part = dom.intersect(_random_clopen(pres.space, rng, 0.6))
                assert bis.apply(part) == oracle.apply(bis, part)
                assert bis.preimage(bis.apply(part)) == part


@pytest.mark.parametrize("seed", range(3))
def test_conv_images_are_the_old_images(seed):
    rng = random.Random(200 + seed)
    for pres in _presentations(seed):
        enum = gpd.enumerate_bisections(pres, 2).bisections
        for _ in range(10):
            elem = ca.zero(pres)
            for _ in range(rng.randint(1, 3)):
                bis = rng.choice(enum).restrict(_random_clopen(pres.space, rng, 0.7))
                elem = ca.add(elem, ca.scale(ca.bisection_indicator(pres, bis),
                                             rng.randint(-3, 3) * rng.randint(1, 2)))
            assert Counter(elem._images) == Counter(oracle.conv_images(elem))


@pytest.mark.parametrize("seed", range(3))
def test_normalized_families_are_the_folds_of_unions(seed):
    rng = random.Random(300 + seed)
    for pres in _presentations(seed):
        space = pres.space
        for _ in range(20):
            pairs = [(_random_clopen(space, rng, rng.choice((0.0, 0.3, 0.7))), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 6))]
            assert ts.normalize(space, pairs) == oracle.normalize_with_map(space, pairs)[0]


@pytest.mark.parametrize("alias", BUILTINS + ("rotation:3:table", "principal"))
def test_key_inverse_is_an_involution_and_inverts(alias):
    pres = (gpd.finite_groupoid(5, [[(0, 1), (1, 2)], [(3, 4), (2, 3)]])
            if alias == "principal" else builtin(alias))
    keys = {key for bis in gpd.enumerate_bisections(pres, 3).bisections for key, _, _ in bis.pieces}
    assert keys
    for key in keys:
        inverse = pres.key_inverse(key)
        assert pres.key_inverse(inverse) == key
        assert pres.is_unit_key(pres.key_product(key, inverse))
