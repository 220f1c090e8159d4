"""The clopen algebra as a dict-and-parents canonicaliser, kept as an oracle.

`stone` canonicalises in one pass over sorted cells and builds the results
of `intersect` and `difference` canonical as they stand.  This module keeps
the earlier way: every result goes through `clopen`, which absorbs
subcylinders and then merges sibling sets bottom up with `merge_siblings`,
level by level, through a map of the parents of each length.  Values are
the cells of a canonical clopen, as a tuple; `sum_cells` gives items.
"""

from ample import stone


def merge_siblings(vals, letters):
    """The sorted items of a cylinder map in its canonical form.

    `vals` maps pairwise disjoint words to values.  Bottom up, every k
    siblings p+a (a in `letters`) that share one value are replaced by their
    parent p with that value.
    """
    vals = dict(vals)
    # the parents of the words of each length; a merge adds its own parent
    # one level up, which is visited later
    parents = {}
    for w in vals:
        if w:
            parents.setdefault(len(w), set()).add(w[:-1])
    for n in range(max(parents, default=0), 0, -1):
        for p in parents.get(n, ()):
            kids = [p + a for a in letters]
            if all(kid in vals for kid in kids) and len({vals[kid] for kid in kids}) == 1:
                vals[p] = vals[kids[0]]
                for kid in kids:
                    del vals[kid]
                if p:
                    parents.setdefault(n - 1, set()).add(p[:-1])
    return sorted(vals.items())


def clopen(space, cells):
    """The canonical cells of the union of the cells."""
    cells = [space.check_cell(c) for c in cells]
    if space.kind == stone.FINITE:
        return tuple(sorted(set(cells)))
    kept = []
    for w in sorted(cells):
        if not (kept and w.startswith(kept[-1])):
            kept.append(w)
    return tuple(w for w, _ in merge_siblings(dict.fromkeys(kept, True), space.letters))


def _cell_minus(word, cells, letters):
    """cylinder(word) minus the union of `cells`, as a list of words."""
    if any(word.startswith(c) for c in cells):
        return []
    below = [c for c in cells if c.startswith(word)]
    if not below:
        return [word]
    return [w for a in letters for w in _cell_minus(word + a, below, letters)]


def union(space, a, b):
    return clopen(space, list(a) + list(b))


def intersect(space, a, b):
    if space.kind == stone.FINITE:
        return clopen(space, set(a) & set(b))
    return clopen(space, [v if v.startswith(u) else u
                          for u in a for v in b if v.startswith(u) or u.startswith(v)])


def difference(space, a, b):
    if space.kind == stone.FINITE:
        return clopen(space, set(a) - set(b))
    return clopen(space, [w for u in a for w in _cell_minus(u, b, space.letters)])


def subset_of(space, a, b):
    return not difference(space, a, b)


def disjoint_from(space, a, b):
    return not intersect(space, a, b)


def sum_cells(space, pairs):
    """The canonical items of the sum of (cell, value) pairs, zeros dropped."""
    vals = {}
    for c, v in pairs:
        vals[c] = vals.get(c, 0) + v
    if space.kind == stone.FINITE:
        return sorted((c, v) for c, v in vals.items() if v)
    leaves, span = stone.leaf_spans(space, vals)
    total = [0] * len(leaves)
    for c, v in vals.items():
        start, end = span[c]
        for i in range(start, end):
            total[i] += v
    return merge_siblings({w: t for w, t in zip(leaves, total) if t}, space.letters)
