import random

import pytest

from ample import stone
from ample.stone import UnitSpace, clopen

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
    assert clopen(S2, ["1"]).complement().cells == ("2",)


def test_difference_finite():
    a = clopen(F4, [0, 1, 2])
    b = clopen(F4, [2, 3])
    assert a.difference(b).cells == (0, 1)


def test_boolean_dispatch_and_errors():
    a = clopen(S2, ["1"])
    assert a.union(a.complement()).is_whole
    with pytest.raises(TypeError):
        a.complement(a)
    with pytest.raises(stone.SpaceMismatch):
        a.union(clopen(S3, ["1"]))
    with pytest.raises(stone.CellError):
        clopen(S2, ["13"])
    with pytest.raises(stone.CellError):
        clopen(F3, [3])


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
    for _ in range(500):
        a = _random_clopen(rng, space)
        b = _random_clopen(rng, space)
        c = _random_clopen(rng, space)
        assert a.union(b) == b.union(a)
        assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
        assert a.complement().complement() == a
        assert a.difference(b) == a.intersect(b.complement())
        assert a.union(a.complement()).is_whole


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
