"""Groupoid presentations by generating compact open bisections.

A presentation is a unit space, a list of generators (prefix maps on the
shift, partial injections on finite spaces, or labeled group elements),
and an isotropy model that fixes when two words name the same arrow:

  free       arrows are (freely reduced word, source point)
  table      arrows are (group element resolved through a multiplication
             table, source point); finite spaces only
  principal  arrows are (source, target) pairs, so all isotropy collapses;
             finite spaces only

A bisection is a finite list of arrow pieces (word, clopen domain) with
pairwise disjoint domains and pairwise disjoint ranges.  On finite spaces
canonical pieces carry singleton domains; on the shift a canonical piece
carries the merged maximal domain per word.
"""

from __future__ import annotations

from . import stone
from .stone import Frozen, Record, UnitSpace, clopen, whole


class PresentationError(stone.InputError):
    """Malformed generator or inconsistent presentation data."""


class PresentationMismatch(stone.InputError):
    """Operands built over different presentations."""


# ---------------------------------------------------------------------------
# partial actions
#
# A shift action is a tuple of (strip, add) pieces: x = strip+y maps to
# add+y.  A finite action is a tuple of (src, tgt) pairs.  Both kinds are
# partial bijections; domains of distinct pieces are disjoint, as are the
# ranges.


def identity_action(space):
    if space.kind == stone.FINITE:
        return tuple((i, i) for i in range(space.size))
    return (("", ""),)


def invert_action(space, act):
    return tuple(sorted((t, s) for s, t in act))


def compose_actions(space, f, g):
    """The composite f after g, as a partial action."""
    if space.kind == stone.FINITE:
        gmap = dict(g)
        fmap = dict(f)
        return tuple(sorted((x, fmap[gmap[x]]) for x in gmap if gmap[x] in fmap))
    out = []
    for s_g, a_g in g:
        for s_f, a_f in f:
            if a_g.startswith(s_f):
                out.append((s_g, a_f + a_g[len(s_f):]))
            elif s_f.startswith(a_g):
                out.append((s_g + s_f[len(a_g):], a_f))
    return tuple(sorted(out))


def action_domain(space, act):
    return clopen(space, [s for s, _ in act])


def cell_images(space, act, cells):
    """(part, image) for each piece of the action and each cell it meets,
    uncanonicalized: the piece sends `part`, inside the cell, onto `image`.

    On Finite(n) part is a point among the cells and image its image.  On
    the shift a piece (s, a) sends a cell c below s, as c = s+rest, onto
    a+rest, and of a cell c above s the part cylinder(s) onto cylinder(a).
    """
    if space.kind == stone.FINITE:
        amap = dict(act)
        return [(x, amap[x]) for x in cells if x in amap]
    return [(c, a + c[len(s):]) if c.startswith(s) else (s, a)
            for s, a in act for c in cells if c.startswith(s) or s.startswith(c)]


def action_apply(space, act, part):
    """Image of (part intersect action domain) under the action."""
    return clopen(space, [image for _, image in cell_images(space, act, part.cells)])


def _join_actions(acts):
    """Union of compatible partial actions on a finite space; None on
    conflict.  Only table closure joins, and tables are finite only."""
    srcs = {}
    tgts = {}
    for act in acts:
        for s, t in act:
            if srcs.get(s, t) != t or tgts.get(t, s) != s:
                return None
            srcs[s] = t
            tgts[t] = s
    return tuple(sorted(srcs.items()))


# ---------------------------------------------------------------------------
# generators


class PrefixMap(Frozen):
    """Sends alpha+w to beta+w; domain the cylinder of alpha."""

    __slots__ = ("alpha", "beta")


class PartialInjection(Frozen):
    # pairs: ((src, tgt), ...)
    __slots__ = ("pairs",)


class GroupElement(Frozen):
    """A labeled generator acting by finitely many disjoint pieces."""

    # pieces: (strip, add) pairs on the shift, (src, tgt) on finite
    __slots__ = ("label", "pieces")


def generator_action(gen, space):
    """The partial action of one generator on the space; checks its cells."""
    if isinstance(gen, PrefixMap):
        if space.kind != stone.SHIFT:
            raise PresentationError("prefix map generator on a finite space")
        for ch in gen.alpha + gen.beta:
            space.check_cell(ch)
        return ((gen.alpha, gen.beta),)
    if isinstance(gen, PartialInjection):
        if space.kind != stone.FINITE:
            raise PresentationError("partial injection generator on the shift")
        srcs = [s for s, _ in gen.pairs]
        tgts = [t for _, t in gen.pairs]
        for x in srcs + tgts:
            space.check_cell(x)
        if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
            raise PresentationError("partial injection with repeated source or target")
        return tuple(sorted(gen.pairs))
    if isinstance(gen, GroupElement):
        pieces = tuple(gen.pieces)
        # clopen() checks that both cells of each piece belong to the space
        doms = [clopen(space, [s]) for s, _ in pieces]
        rans = [clopen(space, [t]) for _, t in pieces]
        for side, parts in (("domains", doms), ("ranges", rans)):
            if _cells_overlap(space, parts):
                raise PresentationError("overlapping %s in generator %r" % (side, gen.label))
        return tuple(sorted(pieces))
    raise PresentationError("unknown generator %r" % (gen,))


# ---------------------------------------------------------------------------
# isotropy models


FREE = "free"
PRINCIPAL = "principal"


class Table(Frozen):
    """A finite group multiplication table plus the generator images.

    products[a][b] is the element acting like a-after-b; gen_elements maps
    each generator index to its element.
    """

    __slots__ = ("products", "gen_elements")

    @property
    def size(self):
        return len(self.products)

    def identity(self):
        for e in range(self.size):
            if all(self.products[e][x] == x == self.products[x][e] for x in range(self.size)):
                return e
        raise PresentationError("multiplication table has no identity")

    def inverse(self, e):
        ident = self.identity()
        for j in range(self.size):
            if self.products[e][j] == ident and self.products[j][e] == ident:
                return j
        raise PresentationError("element %d has no inverse in the table" % e)

    def validate(self):
        """Square over 0..m-1, associative (checked on all m^3 triples),
        with an identity and inverses, and generator images in range."""
        m = self.size
        prod = self.products
        for row in prod:
            if len(row) != m or any(not 0 <= x < m for x in row):
                raise PresentationError("multiplication table is not square over 0..%d" % (m - 1))
        if any(not 0 <= g < m for g in self.gen_elements):
            raise PresentationError("generator element out of range 0..%d" % (m - 1))
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if prod[prod[a][b]][c] != prod[a][prod[b][c]]:
                        raise PresentationError("multiplication table is not associative")
        self.identity()
        for e in range(m):
            self.inverse(e)


# ---------------------------------------------------------------------------
# words: tuples of (generator index, +1 or -1), applied rightmost first


def reduce_word(word):
    out = []
    for sym in word:
        if out and out[-1][0] == sym[0] and out[-1][1] == -sym[1]:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def word_str(word):
    """The word as text, g1*g2^-1 say; the empty word is 1."""
    if not word:
        return "1"
    return "*".join(["g%d" % (g + 1) if e == 1 else "g%d^-1" % (g + 1) for g, e in word])


def _symbol_key(sym):
    g, e = sym
    return (0 if e == 1 else 1, g)


# ---------------------------------------------------------------------------
# presentation


class Presentation:
    def __init__(self, space, generators, isotropy=FREE):
        self.space = space
        self.generators = tuple(generators)
        self.isotropy = isotropy
        self.gen_actions = tuple(generator_action(g, space) for g in self.generators)
        self._letter_actions = {}  # (g, +-1) -> the action of that one letter
        for g, act in enumerate(self.gen_actions):
            self._letter_actions[g, 1] = act
            self._letter_actions[g, -1] = invert_action(space, act)
        if isotropy == PRINCIPAL or isinstance(isotropy, Table):
            if space.kind != stone.FINITE:
                raise PresentationError(
                    "the %s isotropy model is only supported on finite spaces"
                    % ("principal" if isotropy == PRINCIPAL else "table",)
                )
        if isinstance(isotropy, Table):
            isotropy.validate()
            if len(isotropy.gen_elements) != len(self.generators):
                raise PresentationError("table must assign an element to every generator")
            self._element_actions, self._element_words = self._close_table(isotropy)
        self._action_cache = {(): identity_action(space)}  # words built outside the word tables
        self._word_tables = {}  # depth -> its WordTable
        self._principal_words = {}  # src -> {tgt: principal_word(src, tgt)}
        self._steps = None  # the one-letter steps `_words_from` walks, finite spaces
        self._key_domains = {}  # arrow key -> action_domain of key_action(key)

    def _defining_data(self):
        return (self.space, self.generators, self.isotropy)

    def __eq__(self, other):
        # the algebra mostly compares a presentation with itself
        if self is other:
            return True
        return isinstance(other, Presentation) and self._defining_data() == other._defining_data()

    def __hash__(self):
        return hash(self._defining_data())

    def __repr__(self):
        return "Presentation(%r, %d generators, %s)" % (
            self.space,
            len(self.generators),
            "table" if isinstance(self.isotropy, Table) else self.isotropy,
        )

    def _close_table(self, table):
        """Element actions as the join closure of all generator words."""
        ident = table.identity()
        actions = {ident: identity_action(self.space)}
        words = {ident: ()}
        frontier = [ident]
        steps = [(table.gen_elements[i], self.gen_actions[i], ((i, 1),)) for i in range(len(self.generators))]
        steps += [
            (table.inverse(table.gen_elements[i]), self._letter_actions[i, -1], ((i, -1),))
            for i in range(len(self.generators))
        ]
        while frontier:
            e = frontier.pop(0)
            for ge, gact, gword in steps:
                p = table.products[ge][e]
                new = compose_actions(self.space, gact, actions[e])
                if p in actions:
                    joined = _join_actions([actions[p], new])
                    if joined is None:
                        raise PresentationError("table products conflict with generator actions")
                    if joined != actions[p]:
                        actions[p] = joined
                        frontier.append(p)
                else:
                    actions[p] = new
                    words[p] = gword + words[e]
                    frontier.append(p)
        return actions, words

    # -- word machinery ----------------------------------------------------

    def word_action(self, word):
        """The composite partial action of a word (rightmost applied first),
        composed letter by letter from the identity and cached.  The words
        of the enumeration keep their actions in the word tables instead."""
        word = tuple(word)
        act = self._action_cache.get(word)
        if act is None:
            act = self._action_cache[()]
            for sym in word:
                act = compose_actions(self.space, act, self._letter_actions[sym])
            self._action_cache[word] = act
        return act

    def table_element(self, word):
        table = self.isotropy
        e = table.identity()
        for g, exp in word:
            ge = table.gen_elements[g] if exp == 1 else table.inverse(table.gen_elements[g])
            e = table.products[ge][e]
        return e

    def element_action(self, e):
        return self._element_actions[e]

    def piece_key(self, word, pair=None):
        """Arrow identity key of a word under the isotropy model; in the
        principal model, of its piece that acts by the (source, target)
        pair, which is then the key."""
        if self.isotropy == FREE:
            return ("w", reduce_word(word))
        if isinstance(self.isotropy, Table):
            return ("e", self.table_element(word))
        return ("p", pair)

    def key_action(self, key):
        """The partial action the canonical piece acts by."""
        if key[0] == "w":
            return self.word_action(key[1])
        if key[0] == "e":
            return self.element_action(key[1])
        src, tgt = key[1]
        return ((src, tgt),)

    def key_domain(self, key):
        """The domain of the key's action as a clopen, built once per key."""
        dom = self._key_domains.get(key)
        if dom is None:
            dom = self._key_domains[key] = action_domain(self.space, self.key_action(key))
        return dom

    def is_unit_key(self, key):
        if key[0] == "w":
            return key[1] == ()
        if key[0] == "e":
            return key[1] == self.isotropy.identity()
        return key[1][0] == key[1][1]

    def key_product(self, k1, k2):
        """The key of the arrow k1 after k2, or None if k2 ends where k1 does not start."""
        if k1[0] == "w":
            return ("w", reduce_word(tuple(k1[1]) + tuple(k2[1])))
        if k1[0] == "e":
            return ("e", self.isotropy.products[k1[1]][k2[1]])
        (s1, t1), (s2, t2) = k1[1], k2[1]
        if t2 != s1:
            return None
        return ("p", (s2, t1))

    def key_inverse(self, key):
        if key[0] == "w":
            return ("w", invert_word(key[1]))
        if key[0] == "e":
            return ("e", self.isotropy.inverse(key[1]))
        s, t = key[1]
        return ("p", (t, s))

    def principal_word(self, src, tgt):
        """The breadth-first least word whose action sends src to tgt."""
        if src == tgt:
            return ()
        words = self._principal_words.get(src)
        if words is None:
            words = self._principal_words[src] = self._words_from(src)
        word = words.get(tgt)
        if word is None:
            raise PresentationError("no word connects %r to %r" % (src, tgt))
        return word

    def _words_from(self, src):
        """{tgt: least word sending src to tgt} over every point reached by a
        breadth-first search from src: each point keeps the word of its
        first discovery, symbols tried in `_symbol_key` order."""
        steps = self._steps
        if steps is None:
            steps = self._steps = {}  # point -> [(symbol, image)] in `_symbol_key` order
            for sym in sorted(self._letter_actions, key=_symbol_key):
                for x, y in self._letter_actions[sym]:
                    steps.setdefault(x, []).append((sym, y))
        frontier = [(src, ())]
        words = {src: ()}
        while frontier:
            nxt = []
            for x, w in frontier:
                for sym, y in steps.get(x, ()):
                    if y not in words:
                        words[y] = w2 = (sym,) + w  # the new step applies last
                        nxt.append((y, w2))
            frontier = nxt
        return words

    def canonical_word(self, key):
        """A deterministic word representing the arrow key in serialized form."""
        if key[0] == "w":
            return key[1]
        if key[0] == "e":
            return self._element_words[key[1]]
        src, tgt = key[1]
        return self.principal_word(src, tgt)


def _check_same(a, b):
    if a != b:
        raise PresentationMismatch("operands over different presentations")


# ---------------------------------------------------------------------------
# bisections


class ArrowPiece(Frozen):
    # domain: a Clopen
    __slots__ = ("word", "domain")


def _cells_overlap(space, clopens):
    """Whether two of the clopens, each canonical, meet.

    One sorted scan of all their cells: on a finite space a point repeats,
    on the shift a cell is a prefix of some later cell exactly when it is a
    prefix of the next one, since every word between u and uv in sorted
    order starts with u.
    """
    cells = sorted(c for clop in clopens for c in clop.cells)
    if space.kind == stone.FINITE:
        return any(a == b for a, b in zip(cells, cells[1:]))
    return any(b.startswith(a) for a, b in zip(cells, cells[1:]))


class Bisection:
    """A compact open bisection: disjoint arrow pieces with disjoint ranges."""

    def __init__(self, pres, pieces):
        self.pres = pres
        self.pieces = self._canonicalize(pres, pieces)

    @staticmethod
    def _canonicalize(pres, pieces):
        space = pres.space
        merged = {}  # piece key -> the domain cells of its pieces
        for word, dom in pieces:
            word = tuple(word)
            if dom.space != space:
                raise PresentationMismatch("piece domain over the wrong space")
            if dom.is_empty:
                continue
            if isinstance(pres.isotropy, Table):
                # a word names its element, which acts wherever any word naming it does
                act = ()
                word_dom = pres.key_domain(pres.piece_key(word))
            else:
                act = pres.word_action(word)
                word_dom = action_domain(space, act)
            if not dom.subset_of(word_dom):
                raise PresentationError(
                    "piece domain %r escapes the partial map of its word" % (list(dom.cells),)
                )
            if space.kind == stone.FINITE:
                image = dict(act)
                for x in dom.cells:
                    merged.setdefault(pres.piece_key(word, (x, image.get(x))), []).append(x)
            else:
                merged.setdefault(pres.piece_key(word), []).extend(dom.cells)
        out = []
        for key, cells in merged.items():
            piece = ArrowPiece(pres.canonical_word(key), clopen(space, cells))
            out.append((key, piece, pres.key_action(key)))
        out.sort(key=lambda t: (t[0], t[1].domain.cells))
        # bisection invariants: disjoint domains, disjoint ranges; one piece's
        # cells are canonical, so disjoint, and need no check
        if len(out) > 1:
            if _cells_overlap(space, [piece.domain for _, piece, _ in out]):
                raise PresentationError("bisection pieces with overlapping domains")
            if _cells_overlap(space, [action_apply(space, act, piece.domain) for _, piece, act in out]):
                raise PresentationError("bisection pieces with overlapping ranges")
        return tuple(out)

    # -- structure ----------------------------------------------------------

    def identity_key(self):
        return tuple((key, piece.domain.cells) for key, piece, _ in self.pieces)

    def __eq__(self, other):
        return (
            isinstance(other, Bisection)
            and self.pres == other.pres
            and self.identity_key() == other.identity_key()
        )

    def __hash__(self):
        return hash(self.identity_key())

    def __repr__(self):
        bits = [
            "%s on %s" % (word_str(piece.word), list(piece.domain.cells))
            for _, piece, _ in self.pieces
        ]
        return "Bisection[%s]" % "; ".join(bits) if bits else "Bisection[empty]"

    @property
    def arrow_pieces(self):
        return tuple(piece for _, piece, _ in self.pieces)

    @property
    def is_empty(self):
        return not self.pieces

    # -- calculus -----------------------------------------------------------

    def dom(self):
        return clopen(self.pres.space, [c for _, piece, _ in self.pieces for c in piece.domain.cells])

    def ran(self):
        space = self.pres.space
        return clopen(space, [image for _, piece, act in self.pieces
                              for _, image in cell_images(space, act, piece.domain.cells)])

    def inverse(self):
        space = self.pres.space
        return Bisection(self.pres, [(invert_word(piece.word), action_apply(space, act, piece.domain))
                                     for _, piece, act in self.pieces])

    def compose(self, other):
        """All products st with s from self and t from other (t acts first)."""
        _check_same(self.pres, other.pres)
        space = self.pres.space
        pieces = []
        for _, ps, _ in self.pieces:
            for _, pt, act_t in other.pieces:
                image = action_apply(space, act_t, pt.domain).intersect(ps.domain)
                if image.is_empty:
                    continue
                dom = action_apply(space, invert_action(space, act_t), image)
                pieces.append((tuple(ps.word) + tuple(pt.word), dom))
        return Bisection(self.pres, pieces)

    def restrict(self, dom_part):
        return Bisection(self.pres, [(piece.word, piece.domain.intersect(dom_part))
                                     for _, piece, _ in self.pieces])

    def restrict_range(self, ran_part):
        return self.inverse().restrict(ran_part).inverse()

    def apply(self, part):
        """The image of a clopen contained in the domain."""
        if not part.subset_of(self.dom()):
            raise ValueError("clopen is not contained in the domain of the bisection")
        space = self.pres.space
        return clopen(space, [image for _, piece, act in self.pieces for _, image
                              in cell_images(space, act, part.intersect(piece.domain).cells)])

    def preimage(self, part):
        return self.inverse().apply(part)


def identity_bisection(pres, dom=None):
    if dom is None:
        dom = whole(pres.space)
    return Bisection(pres, [((), dom)])


def from_word(pres, word, domain=None):
    """The single-piece bisection of a word on its maximal (or given) domain."""
    if domain is None:
        domain = action_domain(pres.space, pres.word_action(word))
    return Bisection(pres, [(tuple(word), domain)])


# ---------------------------------------------------------------------------
# the word table: enumeration and saturation


class Enumeration(Record):
    __slots__ = ("bisections",)


class WordTable:
    """The words of one presentation up to one depth, each with its action.

    entries: (word, action) for each freely reduced word of length at most
    the depth whose action is nonempty, by (length, symbols).  images,
    bisections and levels are the tiling search's memos: shift cell -> its
    (word, `cell_images`) list; (word, cell) -> the Bisection of the word
    on that cell, and ((), clopen) -> the identity on that clopen; and
    (cells, target clopens) -> a compiled cell level of the search.

    Each action is composed once, from its parent's: the appended letter
    acts first, so every extension of a word with an empty action has an
    empty action too, and such a word is neither listed nor extended.  On
    Finite(n) a word w extended by a letter s acts nonemptily exactly when
    the range of s meets the domain of w, so only the letters whose range
    holds a point of that domain are tried.
    """

    __slots__ = ("space", "entries", "_pieces", "images", "bisections", "levels")

    def __init__(self, pres, depth):
        self.space = space = pres.space
        letters = pres._letter_actions
        syms = sorted(letters, key=_symbol_key)
        if space.kind == stone.FINITE:
            by_point = {}  # point -> the ranks in syms of the letters whose range holds it
            for rank, s in enumerate(syms):
                for _, t in letters[s]:
                    by_point.setdefault(t, []).append(rank)

            def candidates(act):
                ranks = {r for x, _ in act for r in by_point.get(x, ())}
                return [syms[r] for r in sorted(ranks)]
        else:
            def candidates(act):
                return syms
        unit = identity_action(space)
        level = [((), unit)] if unit else []
        found = list(level)
        for _ in range(depth):
            nxt = []
            for w, act in level:
                for s in candidates(act):
                    if w and w[-1][0] == s[0] and w[-1][1] == -s[1]:
                        continue
                    v_act = compose_actions(space, act, letters[s])
                    if v_act:
                        nxt.append((w + (s,), v_act))
            found += nxt
            level = nxt
        self.entries = found
        self._pieces = None
        self.images = {}
        self.bisections = {}
        self.levels = {}

    @property
    def pieces(self):
        """(word, action, domain) of each entry, and the depth of the deepest
        domain, built on first use: on the shift, which takes only free
        isotropy, the domain is the word's canonical domain
        `action_domain(action)`; on Finite(n) it is None, and the depth 0."""
        if self._pieces is None:
            shift = self.space.kind == stone.SHIFT
            pieces = [(w, act, action_domain(self.space, act) if shift else None)
                      for w, act in self.entries]
            self._pieces = pieces, max((dom.max_depth() for _, _, dom in pieces if shift), default=0)
        return self._pieces


def word_table(pres, depth):
    """The presentation's WordTable at this depth, built on first use."""
    table = pres._word_tables.get(depth)
    if table is None:
        table = pres._word_tables[depth] = WordTable(pres, depth)
    return table


def enumerate_bisections(pres, depth):
    """All nonempty single-piece bisections of words up to the depth.

    Deterministic and duplicate-free; the empty word contributes the
    identity.
    """
    seen = set()
    out = []
    for w, act in word_table(pres, depth).entries:
        b = from_word(pres, w, action_domain(pres.space, act))
        ident = b.identity_key()
        if ident in seen:
            continue
        seen.add(ident)
        out.append(b)
    return Enumeration(tuple(out))


def saturate(pres, part, depth):
    """The union of all word images of the clopen, over words up to depth,
    canonicalized once.  The empty word acts as the identity, so the clopen
    is one of its images."""
    space = pres.space
    return clopen(space, [image for _, act in word_table(pres, depth).entries
                          for _, image in cell_images(space, act, part.cells)])


def is_minimal(pres, depth):
    """Whether every orbit is dense: "yes" and "no" are proofs, "unknown" is not.

    On Finite(n) the answer is exact and ignores depth: "yes" when the
    space is one orbit, otherwise "no".  On the shift it is "yes" when
    every depth-`depth` cylinder saturates to the whole space under words
    up to `depth`, and every depth-(depth+1) cylinder w starts with the
    strip word s of a generator or inverse piece (s, a) that sends it to a
    cylinder of length |a| + |w| - |s| <= depth.  A cylinder longer than
    `depth` is then sent by one piece onto a strictly shorter one, so by
    induction on length every cylinder saturates to the whole space.
    Otherwise it is "unknown".
    """
    space = pres.space
    if space.kind == stone.FINITE:
        from .orbits import orbit_partition  # orbits imports this module

        return "yes" if orbit_partition(pres).count == 1 else "no"
    pieces = [p for act in pres.gen_actions for s, a in act for p in ((s, a), (a, s))]
    for w in space.cells_at_depth(depth + 1):
        if not any(w.startswith(s) and len(a) + len(w) - len(s) <= depth for s, a in pieces):
            return "unknown"
    full = whole(space)
    for cell in space.cells_at_depth(depth):
        if saturate(pres, clopen(space, [cell]), depth) != full:
            return "unknown"
    return "yes"


# ---------------------------------------------------------------------------
# builtin presentations


def cuntz(n):
    if n < 2:
        raise PresentationError("the Cuntz groupoid needs an alphabet of size at least 2")
    space = UnitSpace.shift(n)
    gens = [PrefixMap("", str(i)) for i in range(1, n + 1)]
    return Presentation(space, gens, FREE)


def pair_groupoid(n):
    space = UnitSpace.finite(n)
    gens = [PartialInjection(((i, i + 1),)) for i in range(n - 1)]
    return Presentation(space, gens, PRINCIPAL)


def rotation(n, with_table=False):
    space = UnitSpace.finite(n)
    gen = PartialInjection(tuple((i, (i + 1) % n) for i in range(n)))
    if with_table:
        table = Table(
            products=tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
            gen_elements=(1 % n,),
        )
        return Presentation(space, [gen], table)
    return Presentation(space, [gen], FREE)


def odometer(carries=3):
    """The binary adding machine truncated to finitely many carry pieces.

    Piece j sends 2^j 1 w to 1^j 2 w; with three pieces these are 1->2,
    21->12 and 221->112.
    """
    if carries < 1:
        raise PresentationError("need at least one carry piece")
    pieces = tuple(("2" * j + "1", "1" * j + "2") for j in range(carries))
    gen = GroupElement("odo", pieces)
    return Presentation(UnitSpace.shift(2), [gen], FREE)


def finite_groupoid(n, injections, isotropy=PRINCIPAL):
    space = UnitSpace.finite(n)
    gens = [PartialInjection(tuple(p)) for p in injections]
    return Presentation(space, gens, isotropy)


def trivial(n):
    return Presentation(UnitSpace.finite(n), [], PRINCIPAL)


# the names of the builtin aliases, each with its constructor
BUILTINS = {"cuntz": cuntz, "pair": pair_groupoid, "rotation": rotation, "odometer": odometer,
            "trivial": trivial}


def builtin(alias):
    """Resolve aliases like cuntz:2, pair:3, rotation:3, rotation:3:table,
    odometer, trivial:2.  A part the alias does not take is an error."""
    name, *args = alias.split(":")
    make = BUILTINS.get(name)
    if make is None:
        raise PresentationError("unknown builtin alias %r" % alias)
    table = name == "rotation" and args[1:] == ["table"]
    sizes = args[:1] if table else args
    if len(sizes) != 1 and not (name == "odometer" and not sizes):
        raise PresentationError("bad builtin alias %r: expected %s:n%s"
                                % (alias, name, " or rotation:n:table" if name == "rotation" else ""))
    try:
        sizes = [int(a) for a in sizes]
        return rotation(*sizes, with_table=True) if table else make(*sizes)
    except ValueError as exc:
        raise PresentationError("bad builtin alias %r: %s" % (alias, exc)) from exc
