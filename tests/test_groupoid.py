import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ample import groupoid as gpd
from ample import states
from ample.orbits import orbit_partition
from ample.groupoid import (
    GroupElement,
    PartialInjection,
    PrefixMap,
    Presentation,
    builtin,
    cuntz,
    enumerate_bisections,
    from_word,
    identity_bisection,
    is_minimal,
    odometer,
    pair_groupoid,
    rotation,
    saturate,
    trivial,
)
from ample.stone import FINITE, UnitSpace, clopen, whole


ROOT = pathlib.Path(__file__).resolve().parent.parent

G1 = ((0, 1),)
G2 = ((1, 1),)


def test_cuntz_presentation_shape():
    pres = cuntz(2)
    assert pres.space == UnitSpace.shift(2)
    assert len(pres.generators) == 2
    u1 = from_word(pres, G1)
    assert u1.dom() == whole(pres.space)
    assert u1.ran().cells == ("1",)


def test_pair_groupoid_degenerate():
    pres = pair_groupoid(1)
    assert pres.space == UnitSpace.finite(1)
    assert len(pres.generators) == 0
    enum = enumerate_bisections(pres, 5)
    assert len(enum.bisections) == 1  # identity only


def test_rotation_is_a_total_injection():
    pres = rotation(3)
    rho = from_word(pres, G1)
    assert rho.dom() == rho.ran() == whole(pres.space)


def test_generator_validation():
    with pytest.raises(gpd.PresentationError):
        Presentation(UnitSpace.finite(3), [PartialInjection(((0, 1), (0, 2)))])
    with pytest.raises(gpd.PresentationError):
        Presentation(
            UnitSpace.shift(2), [GroupElement("b", (("1", "2"), ("12", "1")))]
        )
    with pytest.raises(gpd.PresentationError):
        Presentation(UnitSpace.shift(2), [PrefixMap("", "1")], gpd.PRINCIPAL)
    with pytest.raises(gpd.PresentationError):
        cuntz(1)


def test_compose_prefix_maps():
    pres = cuntz(2)
    u1 = from_word(pres, G1)
    c = u1.compose(u1)
    assert len(c.pieces) == 1
    assert c.arrow_pieces[0].word == ((0, 1), (0, 1))
    assert c.dom() == whole(pres.space)
    assert c.ran().cells == ("11",)


def test_inverse_swaps_dom_and_ran():
    pres = cuntz(2)
    u1 = from_word(pres, G1)
    inv = u1.inverse()
    assert inv.dom().cells == ("1",)
    assert inv.ran() == whole(pres.space)
    assert inv.inverse() == u1


def test_rotation_isotropy_retained_under_free_words():
    pres = rotation(3)
    rho = from_word(pres, G1)
    cubed = rho.compose(rho).compose(rho)
    # pointwise the identity, but the word witnesses nontrivial isotropy
    for x in range(3):
        cell = clopen(pres.space, [x])
        assert cubed.apply(cell) == cell
    assert cubed != identity_bisection(pres)
    assert cubed.arrow_pieces[0].word == ((0, 1),) * 3


def test_rotation_table_collapses_isotropy():
    pres = rotation(3, with_table=True)
    rho = from_word(pres, G1)
    assert rho.compose(rho).compose(rho) == identity_bisection(pres)


def test_apply_clopen_examples():
    pres = cuntz(2)
    u1 = from_word(pres, G1)
    assert u1.apply(whole(pres.space)).cells == ("1",)
    assert u1.apply(clopen(pres.space, [])).is_empty
    rot = rotation(3)
    rho = from_word(rot, G1)
    assert rho.apply(clopen(rot.space, [0, 1])).cells == (1, 2)
    with pytest.raises(ValueError):
        u1.inverse().apply(whole(pres.space))


def test_apply_round_trips_through_inverse():
    pres = cuntz(2)
    rng = random.Random(2)
    enum = enumerate_bisections(pres, 2).bisections
    for _ in range(100):
        s = rng.choice(enum)
        dom_cells = s.dom().cells
        if not dom_cells:
            continue
        part = clopen(pres.space, [c for c in dom_cells if rng.random() < 0.7])
        assert s.inverse().apply(s.apply(part)) == part


def test_enumerate_depth_one_cuntz():
    pres = cuntz(2)
    enum = enumerate_bisections(pres, 1)
    words = [b.arrow_pieces[0].word for b in enum.bisections]
    assert words == [(), ((0, 1),), ((1, 1),), ((0, -1),), ((1, -1),)]


def test_enumerate_contains_u12_at_depth_two():
    pres = cuntz(2)
    enum = enumerate_bisections(pres, 2).bisections
    u12 = from_word(pres, ((0, 1), (1, -1)))
    assert u12 in enum
    assert u12.dom().cells == ("2",)
    assert u12.ran().cells == ("1",)


def test_enumerated_pieces_are_prefix_pairs_up_to_depth():
    # brute-force arrow comparison for the alphabet-2 groupoid at depth 2:
    # the enumerated words act as strip/add pairs with total length <= 2,
    # no common last letter, and every such pair occurs exactly once
    pres = cuntz(2)
    seen = set()
    for b in enumerate_bisections(pres, 2).bisections:
        act = pres.word_action(b.arrow_pieces[0].word)
        assert len(act) == 1
        strip, add = act[0]
        assert len(strip) + len(add) <= 2
        assert not (strip and add and strip[-1] == add[-1])
        seen.add((strip, add))
    words2 = ["", "1", "2", "11", "12", "21", "22"]
    expected = {
        (a, b)
        for a in words2
        for b in words2
        if len(a) + len(b) <= 2 and not (a and b and a[-1] == b[-1])
    }
    assert seen == expected


def test_restricting_realizes_deeper_prefix_pairs():
    # U_{11,1} is the restriction of the length-one word to the 1-cylinder
    pres = cuntz(2)
    u = from_word(pres, G1, domain=clopen(pres.space, ["1"]))
    assert u.dom().cells == ("1",)
    assert u.ran().cells == ("11",)


def test_compose_associative_random():
    pres = cuntz(2)
    enum = enumerate_bisections(pres, 2).bisections
    rng = random.Random(13)
    for _ in range(200):
        s, t, u = (rng.choice(enum) for _ in range(3))
        assert s.compose(t).compose(u) == s.compose(t.compose(u))


def test_calculus_identities_random():
    for pres in (cuntz(2), pair_groupoid(3), rotation(3)):
        enum = enumerate_bisections(pres, 2).bisections
        rng = random.Random(17)
        for _ in range(100):
            s, t = rng.choice(enum), rng.choice(enum)
            st = s.compose(t)
            assert st.inverse() == t.inverse().compose(s.inverse())
            assert st.dom().subset_of(t.dom())
            assert st.ran().subset_of(s.ran())
            assert s.restrict(s.dom()) == s


def test_apply_respects_boolean_structure():
    pres = cuntz(2)
    enum = enumerate_bisections(pres, 2).bisections
    rng = random.Random(19)
    for _ in range(150):
        s = rng.choice(enum)
        dom = s.dom()
        cells = dom.expand(max(dom.max_depth(), 2))
        a = clopen(pres.space, [c for c in cells if rng.random() < 0.5])
        b = clopen(pres.space, [c for c in cells if rng.random() < 0.5])
        assert s.apply(a.union(b)) == s.apply(a).union(s.apply(b))
        assert s.apply(a.intersect(b)) == s.apply(a).intersect(s.apply(b))


def test_saturate_and_minimality():
    c2 = cuntz(2)
    assert saturate(c2, clopen(c2.space, ["1"]), 2) == whole(c2.space)
    assert is_minimal(c2, 2) == "yes"

    rot = rotation(3)
    assert saturate(rot, clopen(rot.space, [0]), 3) == whole(rot.space)
    assert is_minimal(rot, 3) == "yes"

    # pair(2) next to a fixed point: two orbits, so not minimal
    mix = gpd.finite_groupoid(3, [[(0, 1)]])
    assert saturate(mix, clopen(mix.space, [0]), 3).cells == (0, 1)
    assert is_minimal(mix, 3) == "no"


def test_minimality_is_never_yes_without_proof():
    # 2w -> 1w: the orbit of 1^oo is {1^oo}, not dense, yet at depths 0
    # and 1 every depth-d cylinder saturates to the whole space within words
    # of length d; the truncated odometer sends no cylinder to a shorter one
    stuck = Presentation(UnitSpace.shift(2), [PrefixMap("2", "1")])
    for pres in (stuck, odometer()):
        for depth in range(4):
            assert is_minimal(pres, depth) == "unknown"


def test_saturate_monotone_in_depth():
    pres = odometer()
    a = clopen(pres.space, ["11"])
    prev = a
    for depth in range(4):
        cur = saturate(pres, a, depth)
        assert prev.subset_of(cur)
        prev = cur


def fold_saturate(pres, part, depth):
    """`saturate` as one clopen union per word, its oracle."""
    out = part
    for w in _enumeration_trying_every_letter(pres, depth):
        out = out.union(gpd.action_apply(pres.space, pres.word_action(w), part))
    return out


def random_shift_presentation(rng):
    words = ["", "1", "2", "11", "12", "21", "22", "3", "13", "31"]
    k = rng.choice([2, 3])
    words = [w for w in words if all(int(ch) <= k for ch in w)]
    return Presentation(UnitSpace.shift(k), [PrefixMap(*rng.sample(words, 2))
                                             for _ in range(rng.randint(1, 3))])


def test_saturate_matches_the_fold_of_unions():
    rng = random.Random(5)
    finite = [gpd.finite_groupoid(n, [list(zip(rng.sample(range(n), 2), rng.sample(range(n), 2)))])
              for n in (3, 5, 8)]
    shifts = [random_shift_presentation(rng) for _ in range(30)]
    for pres in [cuntz(2), cuntz(3), odometer(), rotation(3), pair_groupoid(4), *finite, *shifts]:
        for depth in range(4):
            cells = (range(pres.space.size) if pres.space.kind == FINITE
                     else pres.space.cells_at_depth(rng.randint(0, 3)))
            for _ in range(3):
                part = clopen(pres.space, [c for c in cells if rng.random() < 0.4])
                assert saturate(pres, part, depth) == fold_saturate(pres, part, depth)
            if pres.space.kind != FINITE:
                for cell in pres.space.cells_at_depth(depth):
                    part = clopen(pres.space, [cell])
                    assert saturate(pres, part, depth) == fold_saturate(pres, part, depth)


def test_minimality_of_cuntz_three_at_depth_five_is_fast():
    # the fold of one clopen union per word took about 100 s
    code = "from ample.groupoid import cuntz, is_minimal; print(is_minimal(cuntz(3), 5))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.stdout == "yes\n"


def _minimal_enumerating_per_cell(pres, depth):
    """`is_minimal` as it was before the word table, its oracle: each
    depth-d cylinder is saturated under a fresh enumeration of the words."""
    space = pres.space
    if space.kind == FINITE:
        return "yes" if orbit_partition(pres).count == 1 else "no"
    pieces = [p for act in pres.gen_actions for s, a in act for p in ((s, a), (a, s))]
    for w in space.cells_at_depth(depth + 1):
        if not any(w.startswith(s) and len(a) + len(w) - len(s) <= depth for s, a in pieces):
            return "unknown"
    for cell in space.cells_at_depth(depth):
        images = [image for w in _enumeration_trying_every_letter(pres, depth)
                  for _, image in gpd.cell_images(space, pres.word_action(w), [cell])]
        if clopen(space, images) != whole(space):
            return "unknown"
    return "yes"


# cuntz:3 stops at depth 5: at depth 6 the oracle alone takes about 20 s
@pytest.mark.parametrize("alias, depth", [
    (alias, depth) for alias in ("cuntz:2", "cuntz:3", "odometer", "odometer:6", "rotation:3",
                                 "rotation:3:table", "pair:4", "trivial:3")
    for depth in range(6 if alias == "cuntz:3" else 7)])
def test_minimality_keeps_the_verdicts_of_enumerating_per_cell(alias, depth):
    assert is_minimal(builtin(alias), depth) == _minimal_enumerating_per_cell(builtin(alias), depth)


def test_builtin_aliases():
    assert builtin("cuntz:3").space == UnitSpace.shift(3)
    assert builtin("pair:3").isotropy == gpd.PRINCIPAL
    assert builtin("rotation:3").isotropy == gpd.FREE
    assert isinstance(builtin("rotation:3:table").isotropy, gpd.Table)
    assert builtin("odometer").space == UnitSpace.shift(2)
    assert len(builtin("trivial:2").generators) == 0
    with pytest.raises(gpd.PresentationError):
        builtin("nonsense:1")


def test_odometer_generator_pieces():
    pres = odometer()
    g = from_word(pres, G1)
    act = pres.word_action(G1)
    assert act == (("1", "2"), ("21", "12"), ("221", "112"))
    assert g.dom().cells == ("1", "21", "221")
    assert g.ran().cells == ("112", "12", "2")


def test_presentation_mismatch_rejected():
    a = cuntz(2)
    b = cuntz(3)
    with pytest.raises(gpd.PresentationMismatch):
        from_word(a, G1).compose(from_word(b, G1))


def test_trivial_groupoid_minimality():
    assert is_minimal(trivial(1), 2) == "yes"
    assert is_minimal(trivial(3), 2) == "no"


def test_principal_arrows_are_canonical_across_words():
    # two generators with the same action: different words, the same arrow
    pres = gpd.finite_groupoid(2, [[(0, 1)], [(0, 1)]])
    via_first = from_word(pres, ((0, 1),))
    via_second = from_word(pres, ((1, 1),))
    assert via_first == via_second
    assert via_first.arrow_pieces == via_second.arrow_pieces
    # the serialized word is the breadth-first least one
    assert via_second.arrow_pieces[0].word == ((0, 1),)


def test_bisection_check_applies_each_piece_once(monkeypatch):
    # under principal isotropy the identity on Finite(n) has n pieces; the
    # range check must not recompute ranges per pair of pieces
    pres = trivial(200)
    calls = []
    real = gpd.action_apply

    def counted(space, act, dom):
        calls.append(dom)
        return real(space, act, dom)

    monkeypatch.setattr(gpd, "action_apply", counted)
    ident = identity_bisection(pres)
    assert len(ident.pieces) == 200
    assert len(calls) <= len(ident.pieces)


def _pieces(pres, spec):
    return [(word, clopen(pres.space, cells)) for word, cells in spec]


G1G1 = ((0, 1), (0, 1))


@pytest.mark.parametrize("pres, spec, which", [
    # the shift: a cell against itself and against a cell below it
    (cuntz(2), [(G1, ["1"]), (G2, ["1"])], "domains"),
    (cuntz(2), [(G1, ["1"]), (G2, ["12"])], "domains"),
    (cuntz(2), [(G1, ["11", "2"]), (G2, ["12"]), (G1G1, ["122"])], "domains"),
    (cuntz(2), [(G1, ["1"]), (G1G1, ["2"])], "ranges"),
    (cuntz(2), [(((0, -1),), ["11"]), (G2, ["12"]), (G1, ["2"])], "ranges"),
    # finite spaces, principal and free isotropy
    (pair_groupoid(3), [((), [0]), (G1, [0])], "domains"),
    (pair_groupoid(3), [((), [1]), (G1, [0])], "ranges"),
    (rotation(3), [((), [0, 2]), (G1, [1, 2])], "domains"),
    (rotation(3), [((), [1]), (G1, [0, 2])], "ranges"),
])
def test_overlapping_pieces_are_rejected(pres, spec, which):
    with pytest.raises(gpd.PresentationError, match="overlapping " + which):
        gpd.Bisection(pres, _pieces(pres, spec))


@pytest.mark.parametrize("pres, spec", [
    (cuntz(2), [(G1, ["11", "2"]), (G2, ["12"])]),
    (pair_groupoid(3), [((), [2]), (G1, [0])]),
    (rotation(3), [((), [0]), (G1, [1])]),
])
def test_disjoint_pieces_are_accepted(pres, spec):
    assert len(gpd.Bisection(pres, _pieces(pres, spec)).pieces) >= 2


def _principal_word_search(pres, src, tgt):
    """The reference: one breadth-first search for this (src, tgt) alone."""
    if src == tgt:
        return ()
    syms = []
    for gi in range(len(pres.generators)):
        syms.append(((gi, 1), pres.gen_actions[gi]))
        syms.append(((gi, -1), gpd.invert_action(pres.space, pres.gen_actions[gi])))
    syms.sort(key=lambda p: gpd._symbol_key(p[0]))
    frontier = [(src, ())]
    seen = {src}
    while frontier:
        nxt = []
        for x, w in frontier:
            for sym, act in syms:
                y = dict(act).get(x)
                if y is None or y in seen:
                    continue
                w2 = (sym,) + w
                if y == tgt:
                    return w2
                seen.add(y)
                nxt.append((y, w2))
        frontier = nxt
    return None


def _seeded_finite(seed, points=30, injections=3, pairs=10):
    rng = random.Random(seed)
    gens = [list(zip(rng.sample(range(points), pairs), rng.sample(range(points), pairs)))
            for _ in range(injections)]
    return gpd.finite_groupoid(points, gens)


@pytest.mark.parametrize("pres", [pair_groupoid(40), _seeded_finite(1), _seeded_finite(2),
                                  _seeded_finite(3, points=12, injections=2, pairs=5)])
def test_principal_words_match_a_search_per_pair(pres):
    unreachable = 0
    for src in range(pres.space.size):
        for tgt in range(pres.space.size):
            expected = _principal_word_search(pres, src, tgt)
            if expected is None:
                unreachable += 1
                with pytest.raises(gpd.PresentationError, match="no word connects"):
                    pres.principal_word(src, tgt)
            else:
                assert pres.principal_word(src, tgt) == expected
    assert (unreachable == 0) == (pres.space.size == 40)


def _words_from_per_symbol(pres, src):
    """The search `_words_from` made before it kept an adjacency: one
    {point: image} dict per symbol, rebuilt for each source and probed at
    every point."""
    syms = []
    for gi, act in enumerate(pres.gen_actions):
        syms.append(((gi, 1), dict(act)))
        syms.append(((gi, -1), {t: s for s, t in act}))
    syms.sort(key=lambda p: gpd._symbol_key(p[0]))
    frontier = [(src, ())]
    words = {src: ()}
    while frontier:
        nxt = []
        for x, w in frontier:
            for sym, amap in syms:
                y = amap.get(x)
                if y is None or y in words:
                    continue
                words[y] = w2 = (sym,) + w
                nxt.append((y, w2))
        frontier = nxt
    return words


@pytest.mark.parametrize("pres", [pair_groupoid(2), pair_groupoid(7), pair_groupoid(40),
                                  rotation(3), rotation(8), trivial(3)]
                         + [_seeded_finite(seed) for seed in range(1, 6)]
                         + [_seeded_finite(seed, points=12, injections=4, pairs=6)
                            for seed in range(6, 11)])
def test_words_from_keeps_the_per_symbol_search(pres):
    # the same words, discovered in the same order, from every source
    for src in range(pres.space.size):
        assert list(pres._words_from(src).items()) == list(_words_from_per_symbol(pres, src).items())


def _nonempty_words(pres, depth):
    """Reference: every freely reduced word of length at most depth, in
    (length, symbols) order, walked without pruning and kept when the
    composite of its letters' actions is nonempty."""
    letters = sorted(((g, e) for g in range(len(pres.generators)) for e in (1, -1)),
                     key=lambda s: (s[1] == -1, s[0]))
    acts = {(g, 1): act for g, act in enumerate(pres.gen_actions)}
    acts.update({(g, -1): gpd.invert_action(pres.space, act) for g, act in enumerate(pres.gen_actions)})
    level = [((), gpd.identity_action(pres.space))]
    out = []
    for length in range(depth + 1):
        out += [w for w, act in level if act]
        if length < depth:
            level = [(w + (s,), gpd.compose_actions(pres.space, act, acts[s]))
                     for w, act in level for s in letters if not w or w[-1] != (s[0], -s[1])]
    return out


@pytest.mark.parametrize(
    "spec, depth",
    [("cuntz:2", d) for d in range(9)]
    + [("cuntz:3", d) for d in range(5)]
    + [(spec, d) for spec in ("odometer:6", "rotation:4:table", "pair:5", "finite") for d in range(5)],
)
def test_enumerated_words_are_the_nonempty_ones_in_order(spec, depth):
    pres = _seeded_finite(4, points=12, injections=3, pairs=4) if spec == "finite" else builtin(spec)
    expected = _nonempty_words(pres, depth)
    assert _table_words(pres, depth) == expected


def _table_words(pres, depth):
    return [w for w, _ in gpd.word_table(pres, depth).entries]


def _fresh(pres):
    """An equal presentation with none of the caches of `pres`."""
    return Presentation(pres.space, pres.generators, pres.isotropy)


@pytest.mark.parametrize("spec, depth", [("cuntz:2", 6), ("cuntz:3", 4), ("odometer:6", 5),
                                         ("rotation:4:table", 4), ("pair:5", 3), ("finite", 4)])
def test_enumeration_caches_the_actions_word_action_computes(spec, depth):
    pres = _seeded_finite(4, points=12, injections=3, pairs=4) if spec == "finite" else builtin(spec)
    entries = gpd.word_table(pres, depth).entries
    fresh = _fresh(pres)
    # a fresh presentation composes each word letter by letter
    assert [act for _, act in entries] == [fresh.word_action(w) for w, _ in entries]
    # the table holds the actions, the action cache none of them
    assert pres._action_cache == {(): gpd.identity_action(pres.space)}


def test_enumeration_skips_the_words_with_empty_actions():
    # 12,287 of the 118,097 freely reduced words of length <= 10 act nonemptily
    assert len(gpd.word_table(cuntz(2), 10).entries) == 12287


def _enumeration_trying_every_letter(pres, depth):
    """The reference enumeration: every word of the last level is extended
    by every letter, and kept when its action is nonempty."""
    syms = sorted([(g, e) for g in range(len(pres.generators)) for e in (1, -1)],
                  key=lambda s: (s[1] == -1, s[0]))
    level = [()] if pres.word_action(()) else []
    out = list(level)
    for _ in range(depth):
        level = [w + (s,) for w in level for s in syms
                 if not (w and w[-1] == (s[0], -s[1])) and pres.word_action(w + (s,))]
        out += level
    return out


@hs.composite
def _finite_presentations(draw):
    n = draw(hs.integers(1, 7))
    injections = []
    for _ in range(draw(hs.integers(0, 3))):
        srcs = draw(hs.lists(hs.integers(0, n - 1), unique=True, max_size=n))
        tgts = draw(hs.permutations(range(n)))[:len(srcs)]
        injections.append(list(zip(srcs, tgts)))
    return gpd.finite_groupoid(n, injections, draw(hs.sampled_from((gpd.FREE, gpd.PRINCIPAL))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pres=_finite_presentations(), depth=hs.integers(0, 4))
def test_finite_enumeration_tries_only_letters_into_the_domain(pres, depth):
    assert _table_words(pres, depth) == _enumeration_trying_every_letter(pres, depth)


@hs.composite
def _shift_presentations(draw):
    """Prefix maps and group elements of disjoint cylinder pieces on the shift."""
    space = UnitSpace.shift(draw(hs.integers(2, 3)))
    words = [c for d in range(3) for c in space.cells_at_depth(d)]
    gens = []
    for g in range(draw(hs.integers(1, 3))):
        if draw(hs.booleans()):
            gens.append(PrefixMap(draw(hs.sampled_from(words)), draw(hs.sampled_from(words))))
            continue
        strips = space.cells_at_depth(draw(hs.integers(0, 2)))
        adds = space.cells_at_depth(draw(hs.integers(0, 2)))
        count = draw(hs.integers(1, min(len(strips), len(adds), 3)))
        pieces = zip(draw(hs.permutations(strips))[:count], draw(hs.permutations(adds))[:count])
        gens.append(GroupElement("g%d" % g, tuple(pieces)))
    return Presentation(space, gens)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pres=hs.one_of(_shift_presentations(), _finite_presentations()), depth=hs.integers(0, 4))
def test_word_table_lists_the_nonempty_words_with_their_letter_folds(pres, depth):
    table = gpd.word_table(pres, depth)
    fresh = _fresh(pres)
    assert [w for w, _ in table.entries] == _enumeration_trying_every_letter(fresh, depth)
    assert [act for _, act in table.entries] == [_letter_fold(fresh, w) for w, _ in table.entries]
    # the search's pieces add the canonical domain on the shift
    shift = pres.space.kind != FINITE
    pieces, deepest = table.pieces
    assert pieces == [(w, act, fresh.key_domain(fresh.piece_key(w)) if shift else None)
                      for w, act in table.entries]
    assert deepest == max((len(c) for _, _, dom in pieces if shift for c in dom.cells), default=0)


def test_the_word_table_is_built_once_per_depth_without_word_action(monkeypatch):
    # each action is composed from its parent's, never through word_action
    # or the action cache, and every reader shares the one table
    def refuse(*args, **kwargs):
        raise AssertionError("an enumerated word went through word_action")

    monkeypatch.setattr(Presentation, "word_action", refuse)
    for alias in ("cuntz:2", "odometer:6", "pair:5", "rotation:4:table"):
        pres = builtin(alias)
        pres._action_cache = None  # any lookup fails
        table = gpd.word_table(pres, 4)
        assert gpd.word_table(pres, 4) is table
        is_minimal(pres, 4)
        saturate(pres, whole(pres.space), 4)
        states.build_constraints(pres, 4)
        assert list(pres._word_tables) == [4] and pres._word_tables[4] is table


@pytest.mark.parametrize("space, pieces, which", [
    (UnitSpace.shift(2), (("1", "2"), ("12", "21")), "domains"),
    (UnitSpace.shift(2), (("1", "2"), ("2", "21")), "ranges"),
    # ranges overlap on the first pair, domains only on the last: domains win
    (UnitSpace.shift(2), (("1", "1"), ("2", "11"), ("21", "2")), "domains"),
    (UnitSpace.finite(3), ((0, 1), (0, 2)), "domains"),
    (UnitSpace.finite(3), ((0, 1), (2, 1)), "ranges"),
])
def test_overlapping_group_element_pieces_are_rejected(space, pieces, which):
    with pytest.raises(gpd.PresentationError, match="overlapping %s in generator 'b'" % which):
        Presentation(space, [GroupElement("b", pieces)])


def _letter_fold(pres, word):
    """The action of a word composed letter by letter, rightmost acting first."""
    act = gpd.identity_action(pres.space)
    for g, e in word:
        letter = pres.gen_actions[g]
        act = gpd.compose_actions(pres.space, act, letter if e == 1 else gpd.invert_action(pres.space, letter))
    return act


@pytest.mark.parametrize("alias", ["cuntz:2", "odometer", "rotation:3", "pair:4"])
def test_word_action_is_the_fold_of_its_letters_with_or_without_cached_prefixes(alias):
    rng = random.Random(alias)
    for _ in range(20):
        n = len(builtin(alias).generators)
        word = tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(1, 8)))
        cold, warm = builtin(alias), builtin(alias)
        for k in range(len(word)):
            warm.word_action(word[:k])
        assert cold.word_action(word) == warm.word_action(word) == _letter_fold(cold, word)


def test_a_long_word_action_needs_no_recursion_and_caches_only_the_word():
    pres = cuntz(2)
    cached = len(pres._action_cache)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        act = pres.word_action(G1 * 3000)
        longer = pres.word_action(G1 * 3000 + G2)
    finally:
        sys.setrecursionlimit(limit)
    assert act == (("", "1" * 3000),)
    assert longer == (("", "1" * 3000 + "2"),)  # the last letter acts first
    assert len(pres._action_cache) == cached + 2
