import random
import sys
from fractions import Fraction

import pytest

from ample import stone
from ample.stone import UnitSpace, clopen, whole

S2 = UnitSpace.shift(2)
S3 = UnitSpace.shift(3)
F3 = UnitSpace.finite(3)
F4 = UnitSpace.finite(4)


def test_canonicalize_merges_full_sibling_sets():
    assert clopen(S2, ["1", "2"]).cells == ("",)


def test_canonicalize_absorbs_subcylinders():
    assert clopen(S2, ["11", "12", "1"]).cells == ("1",)


def test_canonicalize_finite_dedups_and_sorts():
    assert clopen(F4, [2, 0, 2]).cells == (0, 2)


def _assert_canonical_items(space, items):
    """Disjoint cells, nonzero values, and no k siblings sharing a value."""
    cells = [c for c, _ in items]
    assert cells == sorted(set(cells))
    assert all(v for _, v in items)
    if space.kind == stone.FINITE:
        return
    vals = dict(items)
    for i, a in enumerate(cells):
        assert not any(b.startswith(a) for b in cells[i + 1:])
    for p in {c[:-1] for c in cells if c}:
        kids = [vals.get(p + a) for a in space.letters]
        assert None in kids or len(set(kids)) > 1


def test_canonicalize_idempotent_random():
    rng = random.Random(7)
    for space in (S2, S3):
        for _ in range(300):
            cells = []
            for _ in range(rng.randint(0, 6)):
                depth = rng.randint(0, 4)
                cells.append("".join(rng.choice(space.letters) for _ in range(depth)))
            a = clopen(space, cells)
            assert clopen(space, list(a.cells)).cells == a.cells
            _assert_canonical_items(space, [(c, True) for c in a.cells])
    for _ in range(100):
        pts = [rng.randrange(4) for _ in range(rng.randint(0, 6))]
        a = clopen(F4, pts)
        assert clopen(F4, list(a.cells)).cells == a.cells


def test_intersect_prefix_containment():
    assert clopen(S2, ["1"]).intersect(clopen(S2, ["12"])).cells == ("12",)


def test_complement_of_cylinder():
    assert whole(S2).difference(clopen(S2, ["1"])).cells == ("2",)


def test_difference_finite():
    a = clopen(F4, [0, 1, 2])
    b = clopen(F4, [2, 3])
    assert a.difference(b).cells == (0, 1)


def test_boolean_dispatch_and_errors():
    a = clopen(S2, ["1"])
    assert a.union(whole(S2).difference(a)) == whole(S2)
    with pytest.raises(TypeError):
        a.difference()
    with pytest.raises(stone.SpaceMismatch):
        a.union(clopen(S3, ["1"]))
    with pytest.raises(stone.CellError):
        clopen(S2, ["13"])
    with pytest.raises(stone.CellError):
        clopen(F3, [3])


def test_shift_cells_name_their_first_bad_letter():
    rng = random.Random(5)
    chars = "0123456789a\u0661"
    for _ in range(400):
        space = UnitSpace.shift(rng.randint(2, 9))
        word = "".join(rng.choice(chars) for _ in range(rng.randint(0, 4)))
        bad = [ch for ch in word if not "1" <= ch <= str(space.size)]
        if not bad:
            assert space.check_cell(word) == word
            continue
        with pytest.raises(stone.CellError) as err:
            space.check_cell(word)
        assert str(err.value) == "letter %r out of range for Shift(%d)" % (bad[0], space.size)


def _random_clopen(rng, space):
    if space.kind == stone.FINITE:
        return clopen(space, [p for p in range(space.size) if rng.random() < 0.5])
    cells = []
    for _ in range(rng.randint(0, 5)):
        depth = rng.randint(0, 3)
        cells.append("".join(rng.choice(space.letters) for _ in range(depth)))
    return clopen(space, cells)


@pytest.mark.parametrize("space", [S2, S3, F4])
def test_boolean_laws_random(space):
    rng = random.Random(11)
    x = whole(space)
    for _ in range(500):
        a = _random_clopen(rng, space)
        b = _random_clopen(rng, space)
        c = _random_clopen(rng, space)
        assert a.union(b) == b.union(a)
        assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
        assert x.difference(x.difference(a)) == a
        assert a.difference(b) == a.intersect(x.difference(b))
        assert a.union(x.difference(a)) == x


def test_membership_agrees_with_bruteforce_expansion():
    rng = random.Random(3)
    for _ in range(60):
        a = _random_clopen(rng, S2)
        for depth in range(1, 5):
            deep = max(depth, a.max_depth())
            leaves = set(a.expand(deep)) if not a.is_empty else set()
            for word in S2.cells_at_depth(depth):
                # the cylinder of `word` sits inside A exactly when every
                # depth-`deep` extension of `word` is a leaf of A
                extensions = [word + tail for tail in S2.cells_at_depth(deep - depth)]
                brute = all(x in leaves for x in extensions)
                assert a.contains_cell(word) == brute


def _random_cell(rng, space, depth):
    if space.kind == stone.FINITE:
        return rng.randrange(space.size)
    return "".join(rng.choice(space.letters) for _ in range(rng.randint(0, depth)))


def _redecompose(rng, space, pairs):
    """Another list of pairs with the same sum: split values and cells."""
    out = []
    for c, v in pairs:
        if rng.random() < 0.5:
            part = rng.randint(-2, 2)
            out += [(c, part), (c, v - part)]
        elif space.kind == stone.SHIFT and rng.random() < 0.5:
            out += [(c + a, v) for a in space.letters]
        else:
            out.append((c, v))
    rng.shuffle(out)
    return out


def test_sum_cells_random():
    rng = random.Random(11)
    for space in (S2, S3, F4):
        for _ in range(150):
            pairs = [
                (_random_cell(rng, space, 3), rng.choice([-1, 1, 1, 2]))
                for _ in range(rng.randint(0, 7))
            ]
            items = stone.sum_cells(space, pairs)
            _assert_canonical_items(space, items)
            depth = 0
            if space.kind == stone.SHIFT:
                depth = max((len(c) for c, _ in pairs), default=0)
                assert all(len(c) <= depth for c, _ in items)
            for w in space.cells_at_depth(depth):
                if space.kind == stone.FINITE:
                    want = sum(v for c, v in pairs if c == w)
                    got = dict(items).get(w, 0)
                else:
                    want = sum(v for c, v in pairs if w.startswith(c))
                    got = sum(v for c, v in items if w.startswith(c))
                assert got == want
            assert stone.sum_cells(space, _redecompose(rng, space, pairs)) == items


# -- the cell universe ---------------------------------------------------------


def _index_span(space, cell, depth):
    """[start, end) of the depth cells inside `cell` by index arithmetic: in
    `cells_at_depth` order a word w of length L is the base-k numeral of its
    letters minus one and covers [idx(w) k^(d-L), (idx(w) + 1) k^(d-L))."""
    k = space.size
    idx = 0
    for ch in cell:
        idx = idx * k + int(ch) - 1
    width = k ** (depth - len(cell))
    return idx * width, (idx + 1) * width


def _random_words(rng, space):
    return [
        "".join(rng.choice(space.letters) for _ in range(rng.randint(0, 5)))
        for _ in range(rng.randint(0, 8))
    ]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_leaf_spans_partition_the_shift_random(k):
    space = UnitSpace.shift(k)
    rng = random.Random(k)
    for _ in range(150):
        words = _random_words(rng, space)
        leaves, span = stone.leaf_spans(space, words)
        assert leaves == sorted(leaves)
        # pairwise disjoint cylinders whose measures add up to the whole
        for i, a in enumerate(leaves):
            assert not any(b.startswith(a) or a.startswith(b) for b in leaves[i + 1:])
        assert sum(Fraction(1, k ** len(w)) for w in leaves) == 1
        # every word and each of its prefixes is a node of the trie
        assert {w[:i] for w in words for i in range(len(w) + 1)} <= set(span)
        for node, (start, end) in span.items():
            assert [i for i, w in enumerate(leaves) if w.startswith(node)] == list(range(start, end))
            if end - start > 1:  # an inner node has all k children
                assert all(node + a in span for a in space.letters)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_leaf_spans_of_the_depth_cells_are_the_index_ranges(k):
    space = UnitSpace.shift(k)
    for d in range(7):
        cells = space.cells_at_depth(d)
        leaves, span = stone.leaf_spans(space, cells)
        assert leaves == cells
        words = [w for n in range(d + 1) for w in space.cells_at_depth(n)]
        assert sorted(span) == sorted(words)
        for w in words:
            assert span[w] == _index_span(space, w, d)


def test_leaf_spans_of_a_finite_space_are_its_points():
    for n in (1, 3, 7):
        space = UnitSpace.finite(n)
        for words in ([], [0], list(range(n))):
            leaves, span = stone.leaf_spans(space, words)
            assert leaves == list(range(n))
            assert span == {x: (x, x + 1) for x in range(n)}


def test_difference_thousands_of_levels_deep_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        rest = clopen(S2, [""]).difference(clopen(S2, ["1" * 3000]))
    finally:
        sys.setrecursionlimit(limit)
    assert rest.cells == tuple(sorted("1" * i + "2" for i in range(3000)))
