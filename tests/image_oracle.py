"""The image rules as they were before `groupoid.cell_images` held them all.

`groupoid` kept the image words of shift cells (`shift_image_words`) and
the image cells of either space (`_image_cells`); `convalg` kept its own
copy of the rule in `ConvElement._images`; `Bisection.dom`, `ran` and
`apply` and `typesemigroup.normalize_with_map`, whose family
`typesemigroup.normalize` now returns alone, folded one clopen union per
piece or pair.  This module keeps each verbatim, the methods as functions
of the object they were called on and `action_apply` over the old image
cells, so the tests can compare the one rule against all of them.
"""

from ample import stone
from ample.stone import clopen, empty
from ample.typesemigroup import FamilyError, LabeledFamily


def shift_image_words(act, cells):
    """The image words, uncanonicalized, of shift cells under a (strip, add)
    action: a cell c below a strip s gives add+rest, a cell above it all of
    cylinder(add)."""
    return [a + c[len(s):] if c.startswith(s) else a
            for s, a in act for c in cells if c.startswith(s) or s.startswith(c)]


def _image_cells(space, act, cells):
    """The image cells, uncanonicalized, of (cells intersect action domain)."""
    if space.kind == stone.FINITE:
        amap = dict(act)
        return [amap[x] for x in cells if x in amap]
    return shift_image_words(act, cells)


def action_apply(space, act, part):
    """Image of (part intersect action domain) under the action."""
    return clopen(space, _image_cells(space, act, part.cells))


def conv_images(elem):
    """(key, part, image, coef) for each term and each piece of its
    key's action that meets its cell: the piece sends `part`, a
    cylinder (or point) inside the cell, onto the cylinder (or point)
    `image`, prefix for prefix."""
    finite = elem.pres.space.kind == stone.FINITE
    out = []
    for key, cyl in elem.terms.items():
        act = elem.pres.key_action(key)
        for cell, coef in cyl.items():
            for s, t in act:
                if finite:
                    if s == cell:
                        out.append((key, cell, t, coef))
                elif cell.startswith(s):
                    out.append((key, cell, t + cell[len(s):], coef))
                elif s.startswith(cell):
                    out.append((key, s, t, coef))
    return out


def dom(bis):
    out = empty(bis.pres.space)
    for _, piece, _ in bis.pieces:
        out = out.union(piece.domain)
    return out


def ran(bis):
    out = empty(bis.pres.space)
    for _, piece, act in bis.pieces:
        out = out.union(action_apply(bis.pres.space, act, piece.domain))
    return out


def apply(bis, part):
    """The image of a clopen contained in the domain."""
    if not part.subset_of(dom(bis)):
        raise ValueError("clopen is not contained in the domain of the bisection")
    space = bis.pres.space
    out = empty(space)
    for _, piece, act in bis.pieces:
        out = out.union(action_apply(space, act, part.intersect(piece.domain)))
    return out


def normalize_with_map(space, pairs):
    """Canonicalize (clopen, label) pairs; also return original->new labels."""
    by_label = {}
    order = []
    for c, label in pairs:
        if c.space != space:
            raise stone.SpaceMismatch("family entry over the wrong space")
        if not isinstance(label, int) or label < 1:
            raise FamilyError("labels must be positive integers, got %r" % (label,))
        if label not in by_label:
            by_label[label] = empty(space)
            order.append(label)
        by_label[label] = by_label[label].union(c)
    entries = []
    label_map = {}
    for label in order:
        if by_label[label].is_empty:
            continue
        entries.append(by_label[label])
        label_map[label] = len(entries)
    return LabeledFamily(space, tuple(entries)), label_map
