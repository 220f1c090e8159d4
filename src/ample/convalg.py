"""The integral convolution algebra of a presentation.

An element is a finite rational combination of canonical arrow terms: an
arrow key (reduced word, table element, or source-target pair, depending
on the isotropy model) together with a single cell of the key's domain.
Convolution multiplies arrows pairwise, by the presentation's
`key_product`; the star swaps an arrow for its `key_inverse`; the
conditional expectation keeps the terms whose arrows are units.
Coefficients are ints: the program builds elements only from indicators,
coefficient 1, and their products, sums, differences and integer
multiples, so every identity checked here is exact and involution needs
no conjugation.

Products and stars work on cylinder words.  A term is one cylinder (or
point) c of its key's domain, and `groupoid.cell_images` sends, per piece
of the key's action, one part of c onto one image cylinder, so the part
of c that lands in another term's cell is one cylinder or nothing,
decided by prefix tests alone.  No clopen is built per pair of terms.
Sums re-canonicalise only the keys that more than one summand carries.

Indicator elements of bisections multiply like the bisections themselves,
which is what makes the isometry constructions purely combinatorial.
"""

from __future__ import annotations

from functools import cached_property

from . import stone
from .groupoid import cell_images
from . import paradox as px


DEPTH_CAP = 12


class DepthOverflow(ValueError):
    """A product would need cells deeper than the configured cap."""


class AlgebraError(stone.InputError):
    pass


class ConvElement:
    """Canonical form: per arrow key, its terms summed by `stone.sum_cells`."""

    def __init__(self, pres, raw_terms):
        self.pres = pres
        by_key = {}
        for key, cell, coef in raw_terms:
            if not coef:
                continue
            by_key.setdefault(key, []).append((cell, coef))
        terms = {}
        for key, pairs in by_key.items():
            # a single nonzero term is already canonical
            cyl = dict(pairs) if len(pairs) == 1 else dict(stone.sum_cells(pres.space, pairs))
            act_dom = pres.key_domain(key)
            for cell in cyl:
                if not act_dom.contains_cell(cell):
                    raise AlgebraError("term cell %r escapes the arrow domain" % (cell,))
            if cyl:
                terms[key] = cyl
        self.terms = terms

    @classmethod
    def _canonical(cls, pres, terms):
        """The element whose terms are already canonical and inside their domains."""
        elem = cls.__new__(cls)
        elem.pres = pres
        elem.terms = terms
        return elem

    @cached_property
    def _images(self):
        """(key, part, image, coef) for each term and each piece of its
        key's action that meets its cell: the piece sends `part`, a
        cylinder (or point) inside the cell, onto the cylinder (or point)
        `image`, prefix for prefix.  Built once, as elements do not change."""
        pres = self.pres
        return [(key, part, image, coef) for key, cyl in self.terms.items() for cell, coef in cyl.items()
                for part, image in cell_images(pres.space, pres.key_action(key), (cell,))]

    def items(self):
        for key in sorted(self.terms):
            for cell, coef in self.terms[key].items():
                yield key, cell, coef

    def max_depth(self):
        if self.pres.space.kind == stone.FINITE:
            return 0
        return max((len(c) for cyl in self.terms.values() for c in cyl), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, ConvElement)
            and self.pres == other.pres
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(tuple((k, tuple(v.items())) for k, v in sorted(self.terms.items())))

    def __repr__(self):
        bits = ["%s.1[%s|%s]" % (coef, key, cell) for key, cell, coef in self.items()]
        return " + ".join(bits) if bits else "0"


def zero(pres):
    return ConvElement(pres, [])


def unit_indicator(pres, clop):
    """The characteristic function of a clopen subset of the unit space."""
    return ConvElement(pres, [(pres.piece_key((), (cell, cell)), cell, 1) for cell in clop.cells])


def bisection_indicator(pres, bis):
    terms = []
    for key, piece, _ in bis.pieces:
        for cell in piece.domain.cells:
            terms.append((key, cell, 1))
    return ConvElement(pres, terms)


def from_terms(pres, triples):
    """Build an element from (word, cell, coefficient) triples."""
    return ConvElement(pres, [(pres.piece_key(word, (cell, dict(pres.word_action(word)).get(cell))),
                               cell, coef) for word, cell, coef in triples])


def _sum(pres, elems):
    """The sum of elements over one presentation.

    A key that only one summand carries keeps that summand's canonical
    cells; only the keys that several carry are summed again.
    """
    if any(elem.pres != pres for elem in elems):
        raise AlgebraError("elements over different presentations")
    by_key = {}
    for elem in elems:
        for key, cyl in elem.terms.items():
            by_key.setdefault(key, []).append(cyl)
    terms = {}
    for key, cyls in by_key.items():
        if len(cyls) == 1:
            terms[key] = cyls[0]
            continue
        cyl = dict(stone.sum_cells(pres.space, [pair for c in cyls for pair in c.items()]))
        if cyl:
            terms[key] = cyl
    return ConvElement._canonical(pres, terms)


def add(a, b):
    return _sum(a.pres, (a, b))


def scale(a, q):
    """q times a, q an int."""
    return ConvElement(a.pres, [(k, c, q * v) for k, c, v in a.items()])


def sub(a, b):
    return add(a, scale(b, -1))


def conv(a, b):
    """The convolution product: arrows compose pairwise, t acting first.

    A term (k2, c2) of b meets a term (k1, c1) of a on the part of c2
    that k2's action sends into c1: per piece of the action, the whole
    part, the cylinder of it that lands in c1, or nothing.
    """
    if a.pres != b.pres:
        raise AlgebraError("elements over different presentations")
    pres = a.pres
    space = pres.space
    finite = space.kind == stone.FINITE
    left = a.terms.items()
    terms = []
    for k2, part, image, q2 in b._images:
        for k1, cyl1 in left:
            for c1, q1 in cyl1.items():
                if finite:
                    if image != c1:
                        continue
                    dom = part
                elif image.startswith(c1):
                    dom = part
                elif c1.startswith(image):
                    dom = part + c1[len(image):]
                else:
                    continue
                key = pres.key_product(k1, k2)
                if key is not None:
                    terms.append((key, dom, q1 * q2))
    if not terms:
        return ConvElement._canonical(pres, {})
    out = ConvElement(pres, terms)
    if not finite and out.max_depth() > DEPTH_CAP:
        raise DepthOverflow("product needs cells deeper than %d" % DEPTH_CAP)
    return out


def star(a):
    """The involution: each arrow is replaced by its inverse."""
    pres = a.pres
    return ConvElement(pres, [(pres.key_inverse(key), image, coef)
                              for key, _, image, coef in a._images])


def expectation(a):
    """Restriction to the unit arrows, as a unit-supported element."""
    pres = a.pres
    return ConvElement(pres, [(k, c, v) for k, c, v in a.items() if pres.is_unit_key(k)])


def unit_proj_leq(p, q):
    """p <= q for commuting unit projections: q - p is {0,1}-valued on units."""
    diff = sub(q, p)
    return all(diff.pres.is_unit_key(k) and v == 1 for k, _, v in diff.items())


# ---------------------------------------------------------------------------
# isometries from paradoxical witnesses


def isometries_from_witness(pres, witness):
    """The pair f, g with f*f = g*g = 1_A and ff* + gg* <= 1_A, checked exactly.

    The witness is verified as given, then its rows are made disjoint.
    """
    res = px.verify_witness(pres, witness)
    if not res:
        raise AlgebraError("witness does not verify: %s" % res.reason)
    if (witness.k, witness.l) != (2, 1):
        raise AlgebraError("the two-isometry construction needs a (2,1) witness")
    w = px.disjointify(pres, witness)
    one_a = unit_indicator(pres, w.a)
    elems = []
    for row in w.rows:
        f = zero(pres)
        for bis, _ in row:
            f = add(f, bisection_indicator(pres, bis))
        elems.append(f)
    f, g = elems
    report = {
        "f_star_f_is_unit": conv(star(f), f) == one_a,
        "g_star_g_is_unit": conv(star(g), g) == one_a,
        "range_projections_dominated": unit_proj_leq(
            add(conv(f, star(f)), conv(g, star(g))), one_a
        ),
    }
    return f, g, report


def _mat_sum(terms):
    """The entrywise sum of ((i, j), element) terms, zero entries dropped."""
    entries = {}
    for ij, elem in terms:
        if elem.terms:
            entries.setdefault(ij, []).append(elem)
    out = {}
    for ij, elems in entries.items():
        elem = elems[0] if len(elems) == 1 else _sum(elems[0].pres, elems)
        if elem.terms:
            out[ij] = elem
    return out


def _mat_conv(x, y):
    """The matrix product, formed only where the inner indices match."""
    return _mat_sum(((i, j), conv(a, b))
                    for (i, t), a in x.items() for (u, j), b in y.items() if t == u)


def _mat_star(x):
    """The transpose with each entry starred."""
    return {(j, i): star(elem) for (i, j), elem in x.items()}


def matrix_isometries(pres, witness):
    """The matrix partial isometries of a (k,l) witness, verified exactly.

    Builds one matrix per witness piece, with the piece indicator in row
    m and column i, and checks that the domain projections tile the full
    k-fold diagonal while the range projections stay under the l-fold one.
    A matrix is the dict {(i, j): element} of its nonzero entries only.
    """
    res = px.verify_witness(pres, witness)
    if not res:
        raise AlgebraError("witness does not verify: %s" % res.reason)
    w = px.disjointify(pres, witness)
    mats = [{(m - 1, i): bisection_indicator(pres, bis)}
            for i, row in enumerate(w.rows) for bis, m in row]
    stars = [_mat_star(x) for x in mats]
    # every product of two pieces is formed, so any of them may raise DepthOverflow
    prods = [[_mat_conv(sx, y) for y in mats] for sx in stars]
    sum_dom = _mat_sum(t for p, row in enumerate(prods) for t in row[p].items())
    sum_ran = _mat_sum(t for x, sx in zip(mats, stars) for t in _mat_conv(x, sx).items())
    one_a = unit_indicator(pres, w.a)
    report = {
        "pairwise_orthogonal": not any(
            prod for p, row in enumerate(prods) for q, prod in enumerate(row) if p != q
        ),
        "domains_tile_full_diagonal": sum_dom == _mat_sum(((i, i), one_a) for i in range(w.k)),
        "ranges_under_l_diagonal": all(
            i == j < w.l and unit_proj_leq(elem, one_a) for (i, j), elem in sum_ran.items()
        ),
    }
    return mats, report
