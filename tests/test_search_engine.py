"""The one bit-mask tiling engine behind search_witness, search_leq and search_equiv."""

import random
import sys

import pytest

from ample import groupoid as gpd
from ample import paradox as px
from ample import typesemigroup as ts
from ample.stone import FINITE, UnitSpace, clopen, whole


PRESENTATIONS = ("cuntz:2", "cuntz:3", "pair:4", "rotation:3:table", "odometer:3", "trivial:3")
# one element with pieces 11->21 and 12->22: its canonical domain "1" is
# shallower than its strips
SPLIT = gpd.Presentation(UnitSpace.shift(2), [gpd.GroupElement("g", (("11", "21"), ("12", "22")))])
# principal, two generators on the arrow 0->1: the pieces of the word of the
# second carry different canonical words
TWO_WAYS = gpd.finite_groupoid(4, [((0, 1),), ((0, 1), (2, 3))])


def _random_clopen(rng, space):
    if space.kind == FINITE:
        pts = [x for x in range(space.size) if rng.random() < 0.5]
        return clopen(space, pts or [rng.randrange(space.size)])
    cells = space.cells_at_depth(rng.randint(1, 2))
    return clopen(space, [c for c in cells if rng.random() < 0.4] or [rng.choice(cells)])


def _random_family(rng, space):
    return ts.normalize(space, [(_random_clopen(rng, space), i + 1) for i in range(rng.randint(1, 2))])


def _decoder(space, leaves):
    """The clopen of a compiled mask: the union of the leaves of its bits."""
    def to_clopen(mask):
        words = []
        while mask:  # one step per set bit, lowest first
            low = mask & -mask
            words.append(leaves[low.bit_length() - 1])
            mask ^= low
        return clopen(space, words)
    return to_clopen


def _check_stats(out, budget):
    assert out.stats.budget == budget
    assert 0 <= out.stats.nodes <= budget
    if out.status == "budget":
        assert out.stats.nodes == budget and out.certificate is None


@pytest.mark.parametrize("alias", PRESENTATIONS)
def test_every_hit_verifies(alias):
    pres = gpd.builtin(alias)
    rng = random.Random(alias)
    budget = 2000
    hits = 0
    for _ in range(12):
        depth = rng.randint(1, 2)
        a = _random_clopen(rng, pres.space)
        k, l = rng.choice(((2, 1), (3, 2), (3, 1)))
        out = px.search_witness(pres, a, k, l, depth, budget)
        _check_stats(out, budget)
        if out.status == "found":
            assert px.verify_witness(pres, out.certificate).ok
            # a witness is the tiling of k[A] into l[A], read back as rows
            fam = ts.family_of(a)
            leq = ts.search_leq(pres, ts.multiple(fam, k), ts.multiple(fam, l), depth, budget)
            assert px.leq_to_witness(pres, a, k, l, leq.certificate).rows == out.certificate.rows
            hits += 1
        f1, f2 = _random_family(rng, pres.space), _random_family(rng, pres.space)
        out = ts.search_leq(pres, f1, f2, depth, budget)
        _check_stats(out, budget)
        if out.status == "found":
            assert ts.verify_leq(pres, f1, f2, out.certificate).ok
            hits += 1
        for left, right in ((f1, f2), (f1, f1)):
            out = ts.search_equiv(pres, left, right, depth, budget)
            _check_stats(out, budget)
            if out.status == "found":
                assert ts.verify_equiv(pres, left, right, out.certificate).ok
                hits += 1
    assert hits >= 12  # f ~ f is always found


@pytest.mark.parametrize("pres", [gpd.builtin(alias) for alias in PRESENTATIONS] + [SPLIT, TWO_WAYS],
                         ids=list(PRESENTATIONS) + ["split-domain", "two-ways"])
def test_compiled_images_match_the_bisection_calculus(pres):
    # the candidates of a cell are the bisections whose domain holds it, in
    # enumeration order, and each image mask is the image under `apply`
    space = pres.space
    enum = gpd.enumerate_bisections(pres, 2).bisections
    a = whole(space)
    cells = a.expand(ts._cell_depth(pres, [ts.family_of(a)], enum))
    target = clopen(space, cells[: len(cells) // 2 + 1])
    options, masks, leaves = ts._compile_pieces(pres, enum, cells, [a, target])
    to_clopen = _decoder(space, leaves)
    assert [to_clopen(m) for m in masks] == [a, target]
    for cell in cells:
        cc = clopen(space, [cell])
        assert [bi for bi, _, _ in options[cell]] == [
            bi for bi, b in enumerate(enum) if cc.subset_of(b.dom())
        ]
        for bi, word, image in options[cell]:
            assert to_clopen(image) == enum[bi].apply(cc)
            # the recorded piece is the bisection restricted to the cell
            assert gpd.Bisection(pres, [(word, cc)]) == enum[bi].restrict(cc)


def test_chosen_pieces_are_restricted_to_their_cell():
    c2 = gpd.cuntz(2)
    out = px.search_witness(c2, whole(c2.space), 2, 1, 3)
    cells = c2.space.cells_at_depth(3)
    for row in out.certificate.rows:
        assert [bis.dom() for bis, _ in row] == [clopen(c2.space, [c]) for c in cells]
    x = whole(c2.space)
    f1 = ts.normalize(c2.space, [(x, 1), (x, 2)])
    f2 = ts.family_of(x)
    out = ts.search_equiv(c2, f1, f2, 1)
    assert [(bis.dom(), n) for bis, n, _ in out.certificate.triples] == [
        (clopen(c2.space, [c]), n) for n in (1, 2) for c in ("1", "2")
    ]


def test_masks_grow_with_the_words_met_not_with_depth():
    # one bit per leaf of the prefix trie of the words the search meets,
    # which here is at most k bits per distinct word
    c9 = gpd.cuntz(9)
    a = whole(c9.space)
    out = px.search_witness(c9, a, 2, 1, 2)
    assert out.status == "found"
    assert px.verify_witness(c9, out.certificate).ok
    enum = gpd.enumerate_bisections(c9, 2).bisections
    cells = a.expand(ts._cell_depth(c9, [ts.family_of(a)], enum))
    options, masks, leaves = ts._compile_pieces(c9, enum, cells, [a])
    to_clopen = _decoder(c9.space, leaves)
    images = [m for found in options.values() for _, _, m in found]
    words = {w for m in images for w in to_clopen(m).cells}
    words.update(a.cells)
    assert max(m.bit_length() for m in images + masks) <= 9 * len(words)


def test_a_slot_with_no_fitting_candidate_costs_no_nodes():
    # point 1 has only the identity piece, whose image misses the target {0}
    pres = gpd.trivial(2)
    f1 = ts.family_of(whole(pres.space))
    f2 = ts.family_of(clopen(pres.space, [0]))
    for search in (ts.search_leq, ts.search_equiv):
        out = search(pres, f1, f2, 1)
        assert out.status == "exhausted"
        assert out.stats.nodes == 0


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_pair_routed_through_one_generator_needs_no_backtracking(seed):
    # as the type-eq pairs of the benchmark: two labels of three depth-3
    # cylinders each, and their images under one prepend generator
    c2 = gpd.cuntz(2)
    space = c2.space
    rng = random.Random(seed)
    gen = rng.choice("12")
    sets = [sorted(rng.sample(space.cells_at_depth(3), 3)) for _ in range(2)]
    f1 = ts.normalize(space, [(clopen(space, s), i + 1) for i, s in enumerate(sets)])
    f2 = ts.normalize(space, [(clopen(space, [gen + c for c in s]), i + 1)
                              for i, s in enumerate(sets)])
    out = ts.search_equiv(c2, f1, f2, 1)
    assert out.status == "found"
    assert ts.verify_equiv(c2, f1, f2, out.certificate).ok
    assert out.stats.nodes == out.stats.cells


def test_slot_count_is_not_capped_by_the_recursion_limit():
    pres = gpd.trivial(300)
    f = ts.family_of(whole(pres.space))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        out = ts.search_equiv(pres, f, f, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "found"
    assert out.stats.nodes == out.stats.cells == 300


@pytest.mark.parametrize("alias", ("trivial:300", "pair:5", "cuntz:2"))
def test_found_tilings_restrict_no_bisection(alias, monkeypatch):
    # each chosen triple is built from the one piece that holds its cell;
    # restricting the whole bisection to a point of trivial:300 would
    # intersect all 300 of its pieces
    def refuse(self, dom_part):
        raise AssertionError("Bisection.restrict called")

    monkeypatch.setattr(gpd.Bisection, "restrict", refuse)
    pres = gpd.builtin(alias)
    a = whole(pres.space)
    f = ts.family_of(a)
    out = ts.search_equiv(pres, f, f, 1)
    assert out.status == "found"
    assert ts.verify_equiv(pres, f, f, out.certificate).ok
    if pres.space.kind == FINITE:
        a = clopen(pres.space, range(pres.space.size - 1))
    found = px.search_witness(pres, a, 2, 1, 2, budget=2000)
    assert found.status in ("found", "exhausted", "budget")
    if found.status == "found":
        assert px.verify_witness(pres, found.certificate).ok
