"""The one bit-mask tiling engine behind search_witness, search_leq and search_equiv."""

import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import leq_chain
import recount_search
from ample import groupoid as gpd
from ample import paradox as px
from ample import serialize as ser
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
            back = leq_chain.leq_to_witness(pres, a, k, l, leq.certificate)
            assert back.rows == out.certificate.rows
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


def _check_against_the_bisection_calculus(pres, depth):
    """Compile the words up to depth and compare each cell's candidates with
    the oracle: the enumerated bisections whose domain holds the cell, in
    order (each first-wins representative of its arrows), restricted to
    the cell, with their image under `apply`."""
    space = pres.space
    pieces, deepest = gpd.WordTable(pres, depth).pieces
    enum = gpd.enumerate_bisections(pres, depth).bisections
    a = whole(space)
    cell_depth = ts._cell_depth(pres, [ts.family_of(a)], deepest)
    if space.kind != FINITE:
        assert cell_depth == max(b.dom().max_depth() for b in enum)
    cells = a.expand(cell_depth)
    targets = [a, clopen(space, cells[: len(cells) // 2 + 1])]
    options, masks, leaves = ts._compile_pieces(pres, pieces, cells, targets, {})
    to_clopen = _decoder(space, leaves)
    assert [to_clopen(m) for m in masks] == targets
    for cell in cells:
        cc = clopen(space, [cell])
        expected = []
        for b in enum:
            if cc.subset_of(b.dom()):
                (piece,) = b.restrict(cc).arrow_pieces
                expected.append((piece.word, b.apply(cc)))
        assert [(word, to_clopen(image)) for word, image in options[cell]] == expected
    return options, masks, leaves


@pytest.mark.parametrize("pres", [gpd.builtin(alias) for alias in PRESENTATIONS] + [SPLIT, TWO_WAYS],
                         ids=list(PRESENTATIONS) + ["split-domain", "two-ways"])
def test_compiled_images_match_the_bisection_calculus(pres):
    # the candidates of a cell are the words acting there, one per
    # enumerated bisection, with the piece's canonical word and its image
    _check_against_the_bisection_calculus(pres, 2)


def _random_injection(rng, n, shift=None):
    """Random pairs on n points; with `shift`, each sends x to x + shift mod n."""
    srcs = rng.sample(range(n), rng.randint(1, n))
    if shift is not None:
        return tuple((x, (x + shift) % n) for x in srcs)
    return tuple(zip(srcs, rng.sample(range(n), len(srcs))))


def _random_finite(rng):
    """A random presentation on Finite(n) in the free, principal or table model.

    The table model is Z_n acting by rotation: each generator is a rotation
    restricted to random points, so the join closure never conflicts.
    """
    n = rng.randint(2, 5)
    model = rng.choice(("free", "principal", "table"))
    count = rng.randint(1, 2)
    if model == "table":
        steps = [rng.randrange(n) for _ in range(count)]
        table = gpd.Table(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)), tuple(steps))
        return gpd.finite_groupoid(n, [_random_injection(rng, n, s) for s in steps], table)
    isotropy = gpd.FREE if model == "free" else gpd.PRINCIPAL
    return gpd.finite_groupoid(n, [_random_injection(rng, n) for _ in range(count)], isotropy)


def _random_shift(rng):
    """A random presentation on the shift by group elements with disjoint
    cylinder pieces."""
    space = UnitSpace.shift(rng.randint(2, 3))
    gens = []
    for g in range(rng.randint(1, 2)):
        strips = space.cells_at_depth(rng.randint(0, 2))
        adds = space.cells_at_depth(rng.randint(0, 2))
        count = rng.randint(1, min(len(strips), len(adds), 3))
        gens.append(gpd.GroupElement("g%d" % g, tuple(zip(rng.sample(strips, count),
                                                          rng.sample(adds, count)))))
    return gpd.Presentation(space, gens)


# g^-1 and g^2 act alike, so they share arrows: the later word is dropped
SHARED_ARROWS = {"rotation:3:table": gpd.rotation(3, with_table=True),
                 "principal-3-cycle": gpd.finite_groupoid(3, [((0, 1), (1, 2), (2, 0))])}


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("name", list(SHARED_ARROWS) + ["finite-%d" % s for s in range(12)]
                         + ["shift-%d" % s for s in range(8)])
def test_word_actions_give_the_first_wins_candidates(name, depth):
    rng = random.Random(name)
    if name in SHARED_ARROWS:
        pres = SHARED_ARROWS[name]
    elif name.startswith("finite"):
        pres = _random_finite(rng)
    else:
        pres = _random_shift(rng)
    options, _, _ = _check_against_the_bisection_calculus(pres, depth)
    if name in SHARED_ARROWS and depth:
        # the identity, g and g^-1: g^2, g^-2 and longer words repeat them
        assert all(len(found) == 3 for found in options.values())


def test_a_table_word_names_its_element_on_the_whole_element_domain():
    # in Z_4 the generator 0->2 and its inverse 2->0 are one element, which
    # acts on {0, 2}, while its canonical word g acts only on 0
    table = gpd.Table(tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4)), (2,))
    pres = gpd.finite_groupoid(4, [((0, 2),)], table)
    back = gpd.from_word(pres, ((0, -1),))
    assert back.arrow_pieces[0].word == ((0, 1),)
    assert back.restrict(back.dom()) == back
    assert ser.decode_bisection(ser.encode_bisection(back), pres) == back
    f1, f2 = (ts.family_of(clopen(pres.space, [x])) for x in (2, 0))
    out = ts.search_equiv(pres, f1, f2, 1)
    assert out.status == "found"
    assert ts.verify_equiv(pres, f1, f2, out.certificate).ok


def test_the_search_builds_no_bisection_per_word(monkeypatch):
    # candidates come from the word actions; only the chosen pieces become
    # bisections, built directly
    def refuse(*args, **kwargs):
        raise AssertionError("a word went through the bisection calculus")

    monkeypatch.setattr(gpd, "enumerate_bisections", refuse)
    monkeypatch.setattr(gpd, "from_word", refuse)
    monkeypatch.setattr(px, "from_word", refuse)
    for alias in ("cuntz:2", "odometer:3", "pair:4", "rotation:3:table"):
        pres = gpd.builtin(alias)
        a = whole(pres.space)
        f = ts.family_of(a)
        found = px.search_witness(pres, a, 2, 1, 2, budget=2000)
        assert found.status == ("found" if alias == "cuntz:2" else "exhausted")
        assert ts.search_leq(pres, f, f, 2).status == "found"
        assert ts.search_equiv(pres, f, f, 2).status == "found"


def test_chosen_pieces_are_restricted_to_their_cell():
    # A's own cells reach depth 2, the finest level at depth 2, so its
    # cylinder 1 is tiled as 11 and 12
    c2 = gpd.cuntz(2)
    a = clopen(c2.space, ["1", "21"])
    out = px.search_witness(c2, a, 2, 1, 2)
    assert out.stats.level == 2
    for row in out.certificate.rows:
        assert [bis.dom() for bis, _ in row] == [clopen(c2.space, [c]) for c in ("11", "12", "21")]
    # one piece on the whole space cannot fill both labels of 1 + 2, so the
    # search refines to level 1, where the identity acts on each half
    x = whole(c2.space)
    f1 = ts.family_of(x)
    f2 = ts.normalize(c2.space, [(clopen(c2.space, ["1"]), 1), (clopen(c2.space, ["2"]), 2)])
    out = ts.search_equiv(c2, f1, f2, 1)
    assert out.stats.level == 1
    assert [(bis.dom(), n, m) for bis, n, m in out.certificate.triples] == [
        (clopen(c2.space, [c]), 1, m) for m, c in ((1, "1"), (2, "2"))
    ]
    assert all(bis == gpd.identity_bisection(c2, bis.dom())
               for bis, _, _ in out.certificate.triples)


def test_masks_grow_with_the_words_met_not_with_depth():
    # one bit per leaf of the prefix trie of the words the search meets,
    # which here is at most k bits per distinct word
    c9 = gpd.cuntz(9)
    a = whole(c9.space)
    out = px.search_witness(c9, a, 2, 1, 2)
    assert out.status == "found"
    assert px.verify_witness(c9, out.certificate).ok
    pieces, deepest = gpd.WordTable(c9, 2).pieces
    cells = a.expand(ts._cell_depth(c9, [ts.family_of(a)], deepest))
    options, masks, leaves = ts._compile_pieces(c9, pieces, cells, [a], {})
    to_clopen = _decoder(c9.space, leaves)
    images = [m for found in options.values() for _, m in found]
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


def _tiling(search, pres, f1, f2, depth, budget, exact):
    """Everything a tiling search returns: outcome, stats and leftovers."""
    outcome, left = search(pres, f1, f2, depth, budget, exact)
    return outcome, outcome.stats, left


def _witness_families(rng, pres):
    fam = ts.family_of(_random_clopen(rng, pres.space))
    k, l = rng.choice(((2, 1), (3, 2), (3, 1)))
    return ts.multiple(fam, k), ts.multiple(fam, l)


ORACLE_PRESENTATIONS = ("cuntz:2", "cuntz:3", "odometer", "rotation:3", "rotation:3:table")


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS) + ["finite-%d" % s for s in range(8)])
def test_the_engine_matches_the_recounting_search(name):
    # one presentation for every search, so the memo carries over between
    # depths; small budgets stop some searches mid-way
    rng = random.Random("oracle:" + name)
    pres = _random_finite(rng) if name.startswith("finite") else gpd.builtin(name)
    statuses = set()
    for _ in range(32):
        if pres.space.kind == FINITE:
            depth = rng.randint(1, 3)
        else:
            depth = rng.randint(0, 2 if name == "cuntz:2" else 1)
        budget = rng.choice((0, 1, 3, 10, 50, 2000))
        exact = rng.random() < 0.5
        shape = rng.choice(("witness", "pair", "same"))
        if shape == "witness":
            f1, f2 = _witness_families(rng, pres)
        else:
            f1, f2 = _random_family(rng, pres.space), _random_family(rng, pres.space)
            if shape == "same":
                f2 = f1
        got = _tiling(ts._search_tiling, pres, f1, f2, depth, budget, exact)
        assert got == _tiling(recount_search.search_tiling, pres, f1, f2, depth, budget, exact)
        statuses.add(got[0].status)
    assert {"found", "budget"} <= statuses


def _sets(pres, *specs):
    return [whole(pres.space) if spec == "whole" else clopen(pres.space, spec) for spec in specs]


# searches that backtrack through thousands of nodes: (alias, left, right,
# depth, budget, exact), each family as its entries.  Each has room for its
# slots, so the capacity bound does not cut it short; the exact searches
# fail only because a full tiling leaves capacity over
DEEP_SEARCHES = [
    ("rotation:3", ["whole"] * 2, ["whole"] * 3, 3, 5000, True),
    ("rotation:3", [[0, 1]] * 2, ["whole", "whole", [0]], 2, 100000, True),
    ("odometer", [["1"]], ["whole"], 3, 3000, True),
    ("cuntz:3", ["whole"], [["1"], ["2"]], 2, 3000, True),
    ("cuntz:2", ["whole"] * 5, [["1"]] * 3, 2, 3000, False),
]
# searches with more slots than the target has room for at every level,
# which once backtracked through thousands of nodes
OVERFULL_SEARCHES = [
    ("rotation:3", ["whole"] * 3, ["whole"] * 2, 3, 5000, False),
    ("rotation:3", ["whole"] * 3, ["whole"] * 2, 2, 100000, False),
    ("odometer", ["whole"] * 2, ["whole"], 3, 3000, False),
    ("cuntz:2", ["whole"] * 5, [["1"]] * 2, 2, 3000, False),
]


@pytest.mark.parametrize("case", DEEP_SEARCHES,
                         ids=lambda case: "%s-%d-%d" % (case[0], case[3], case[4]))
def test_deep_searches_match_the_recounting_search(case):
    alias, left, right, depth, budget, exact = case
    pres = gpd.builtin(alias)
    f1, f2 = (ts.normalize(pres.space, [(c, i + 1) for i, c in enumerate(_sets(pres, *specs))])
              for specs in (left, right))
    got = _tiling(ts._search_tiling, pres, f1, f2, depth, budget, exact)
    assert got == _tiling(recount_search.search_tiling, pres, f1, f2, depth, budget, exact)
    assert got[1].nodes > 10 * got[1].cells


@pytest.mark.parametrize("case", OVERFULL_SEARCHES,
                         ids=lambda case: "%s-%d-%d" % (case[0], case[3], case[4]))
def test_overfull_searches_end_at_the_root(case):
    # every image is a nonempty mask, so neither search tries a candidate:
    # the slots outnumber the target's bits at the root of every level
    alias, left, right, depth, budget, exact = case
    pres = gpd.builtin(alias)
    f1, f2 = (ts.normalize(pres.space, [(c, i + 1) for i, c in enumerate(_sets(pres, *specs))])
              for specs in (left, right))
    got = _tiling(ts._search_tiling, pres, f1, f2, depth, budget, exact)
    assert got == _tiling(recount_search.search_tiling, pres, f1, f2, depth, budget, exact)
    assert (got[0].status, got[1].nodes) == ("exhausted", 0)


@pytest.mark.parametrize("alias", ("cuntz:2", "rotation:3:table", "odometer"))
def test_one_presentation_searched_at_many_depths_answers_as_fresh_ones(alias):
    pres = gpd.builtin(alias)
    rng = random.Random("depths:" + alias)
    a = whole(pres.space)
    cases = [(ts.multiple(ts.family_of(a), 2), ts.family_of(a))]
    cases += [(_random_family(rng, pres.space), _random_family(rng, pres.space)) for _ in range(3)]
    for depth in (3, 1, 4, 1):
        for f1, f2 in cases:
            for exact in (True, False):
                got = _tiling(ts._search_tiling, pres, f1, f2, depth, 2000, exact)
                fresh = gpd.builtin(alias)
                assert got == _tiling(ts._search_tiling, fresh, f1, f2, depth, 2000, exact)
    assert sorted(pres._word_tables) == [1, 3, 4]


def test_a_memoised_bisection_equals_a_fresh_one():
    # the witness of A settles at the finest level, on A's cells at depth 2
    pres = gpd.cuntz(2)
    a = clopen(pres.space, ["1", "21"])
    first = px.search_witness(pres, a, 2, 1, 2).certificate
    memo = pres._word_tables[2].bisections
    assert len(memo) == 2 * len(a.expand(2))
    for (word, cell), bis in memo.items():
        assert bis.pres is pres
        assert bis == gpd.Bisection(gpd.cuntz(2), [(word, clopen(pres.space, [cell]))])
    # a second search hands out the memo's objects, which nothing changed
    again = px.search_witness(pres, a, 2, 1, 2).certificate
    assert again == first
    assert all(b is c for row, again_row in zip(first.rows, again.rows)
               for (b, _), (c, _) in zip(row, again_row))
    assert px.verify_witness(pres, again).ok


def test_equal_presentations_keep_their_own_memos():
    p1, p2 = gpd.cuntz(2), gpd.cuntz(2)
    assert p1 == p2 and p1 is not p2
    px.search_witness(p1, whole(p1.space), 2, 1, 2)
    assert list(p1._word_tables) == [2] and not p2._word_tables
    out = px.search_witness(p2, whole(p2.space), 2, 1, 2)
    assert p2._word_tables[2] is not p1._word_tables[2]
    assert all(bis.pres is p2 for row in out.certificate.rows for bis, _ in row)


@hs.composite
def _shift2_searches(draw):
    """A presentation on shift(2) by prefix maps and group elements of
    disjoint cylinder pieces, and the families of one search on it: a
    witness k[A] into l[A], or two random families."""
    space = UnitSpace.shift(2)
    words = [c for d in range(3) for c in space.cells_at_depth(d)]
    gens = []
    for g in range(draw(hs.integers(1, 2))):
        if draw(hs.booleans()):
            gens.append(gpd.PrefixMap(draw(hs.sampled_from(words)), draw(hs.sampled_from(words))))
            continue
        strips = space.cells_at_depth(draw(hs.integers(0, 2)))
        adds = space.cells_at_depth(draw(hs.integers(0, 2)))
        count = draw(hs.integers(1, min(len(strips), len(adds), 3)))
        pieces = zip(draw(hs.permutations(strips))[:count], draw(hs.permutations(adds))[:count])
        gens.append(gpd.GroupElement("g%d" % g, tuple(pieces)))

    def family(labels):
        sets = [draw(hs.lists(hs.sampled_from(words[1:]), min_size=1, max_size=2))
                for _ in range(labels)]
        return ts.normalize(space, [(clopen(space, s), i + 1) for i, s in enumerate(sets)])

    if draw(hs.booleans()):
        a = family(1)
        k = draw(hs.integers(2, 3))
        l = draw(hs.integers(1, k - 1))
        f1, f2, exact = ts.multiple(a, k), ts.multiple(a, l), False
    else:
        f1, f2 = family(draw(hs.integers(1, 2))), family(draw(hs.integers(1, 2)))
        exact = draw(hs.booleans())
    return gpd.Presentation(space, gens), f1, f2, exact


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(search=_shift2_searches(), depth=hs.integers(0, 3))
def test_the_levels_find_exactly_when_the_finest_level_does(search, depth):
    # a tiling at a coarse level refines to one at the finest by the same
    # words, and the finest is the last level tried; an exhaustive search
    # can take exponentially many nodes, and one that ends on the budget
    # decides nothing, so it is left out
    pres, f1, f2, exact = search
    budget = 20000
    finest, _ = recount_search.search_finest(pres, f1, f2, depth, budget, exact)
    if exact:
        out = ts.search_equiv(pres, f1, f2, depth, budget)
        ok = out.status == "found" and ts.verify_equiv(pres, f1, f2, out.certificate).ok
    else:
        out = ts.search_leq(pres, f1, f2, depth, budget)
        ok = out.status == "found" and ts.verify_leq(pres, f1, f2, out.certificate).ok
    assume("budget" not in (out.status, finest.status))
    assert out.status == finest.status
    assert ok == (out.status == "found")
