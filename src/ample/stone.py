"""Boolean algebra of compact open subsets of the two supported unit spaces.

A unit space is either a finite discrete set {0, ..., n-1} or the full
one-sided shift over the alphabet {1, ..., k}.  A compact open subset
("clopen") of the shift is a finite union of cylinder sets, stored as a
prefix antichain that is maximally merged: no stored word is a prefix of
another, and never are all k one-letter extensions of a common word stored
(they merge into the word itself).  With cells sorted, equal sets have
identical representations, so equality is structural: the cells are the
maximal cylinders inside the set.

`clopen` alone validates cells.  It and `union` canonicalise in one pass
over the sorted cells (`_merged`), which also serves the coefficient maps
of the convolution algebra, the items of `sum_cells`.  `intersect` and
`difference` are canonical as built, and `subset_of`, `disjoint_from` and
`contains_cell` build no clopen.

All values are immutable; every operation is a pure function.

`Record` is the base of the package's records and `Frozen` that of its
hashed values: each derives construction, == and hashing from its
`__slots__`.
"""

from __future__ import annotations

from operator import attrgetter


FINITE = "finite"
SHIFT = "shift"

# serialization writes shift letters as single digits, which caps k at 9
MAX_ALPHABET = 9
# the longest shift word an input may hold: `leaf_spans` builds every
# prefix of every word, so a word of n letters costs time and memory ~ n^2
# (a type-eq of one cell took 52 MiB at 5,000 letters, 162 MiB at 10,000,
# and ran past 120 s at 100,000)
MAX_WORD_LENGTH = 4000
# the most letters the shift words of one input file may hold together:
# at most two words at the cap, so the cells of one file cost at most
# twice what one cell at the cap costs
MAX_INPUT_LETTERS = 2 * MAX_WORD_LENGTH
# nodes a search may try unless told otherwise
DEFAULT_BUDGET = 100000


class InputError(ValueError):
    """Base of the errors a malformed input raises: the CLI reports each
    as an input error and exits 3."""


class InternalError(Exception):
    """A fault of the program, not of its input: a search whose certificate
    fails its own verifier, say.  The CLI reports it and exits 4."""


class SpaceMismatch(InputError):
    """Operands live over different unit spaces."""


class CellError(InputError):
    """A cell does not belong to the given unit space."""


class Record:
    """Base of the records: fields from `__slots__`, == by value.

    A subclass lists its fields in `__slots__`.  They are passed by position
    in that order or by keyword; a field left out takes its value from the
    class's `_defaults`, and a missing, unknown, repeated or extra argument
    raises TypeError.  Two records are equal when they are of the same
    class and equal on every field not in `_uncompared`; a record of
    another class gives NotImplemented.  A record is unhashable unless it
    is `Frozen`.
    """

    __slots__ = ()
    _defaults = {}
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        # a slot's own setter gets past Frozen.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        compared = tuple(name for name in fields if name not in cls._uncompared)
        # the tuple of the compared fields; attrgetter gives one only for two or more
        cls._key = staticmethod(attrgetter(*compared) if len(compared) > 1 else
                                lambda record: tuple([getattr(record, name) for name in compared]))

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in slot order, from positions, keywords and defaults."""
        fields = cls.__slots__
        name = cls.__name__
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields, got %d" % (name, len(fields), len(args)))
        rest = fields[len(args):]
        for field in kwargs:
            if field not in rest:
                raise TypeError("%s got %s field %r" % (
                    name, "a repeated" if field in fields else "an unknown", field))
        values = list(args)
        for field in rest:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError("%s is missing field %r" % (name, field))
        return values

    def __eq__(self, other):
        # the searches mostly compare a shared UnitSpace with itself
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)


class Frozen(Record):
    """Base of the immutable records, which are hashed and shared.

    Their fields are set once, by the constructor; assigning or deleting a
    field later raises AttributeError.  The hash is that of the compared
    fields as a tuple.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __hash__(self):
        return hash(self._key(self))


class UnitSpace(Frozen):
    # letters: the alphabet of the shift as single-character strings, () on
    # Finite(n); it follows from the size, so it is not compared
    __slots__ = ("kind", "size", "letters")
    _uncompared = ("letters",)

    def __init__(self, kind, size):
        if kind == FINITE:
            if size < 1:
                raise ValueError("finite space needs at least one point")
        elif kind == SHIFT:
            if not 2 <= size <= MAX_ALPHABET:
                raise ValueError(
                    "shift alphabet size must be between 2 and %d" % MAX_ALPHABET
                )
        else:
            raise ValueError("unknown space kind %r" % (kind,))
        super().__init__(kind, size, tuple("123456789"[:size]) if kind == SHIFT else ())

    def __repr__(self):
        return "UnitSpace(kind=%r, size=%r)" % (self.kind, self.size)

    @classmethod
    def finite(cls, n):
        return cls(FINITE, n)

    @classmethod
    def shift(cls, k):
        return cls(SHIFT, k)

    def check_cell(self, cell):
        if self.kind == FINITE:
            if not isinstance(cell, int) or isinstance(cell, bool):
                raise CellError("finite cell must be an int, got %r" % (cell,))
            if not 0 <= cell < self.size:
                raise CellError("point %d out of range for Finite(%d)" % (cell, self.size))
        else:
            if not isinstance(cell, str):
                raise CellError("shift cell must be a word string, got %r" % (cell,))
            rest = cell.lstrip("123456789"[:self.size])  # from the first bad letter on
            if rest:
                raise CellError("letter %r out of range for Shift(%d)" % (rest[0], self.size))
        return cell

    def cells_at_depth(self, depth):
        """All cells of the given depth, sorted.

        For a finite space the depth is irrelevant and the points are
        returned; for the shift these are the k^depth words of that length.
        """
        if self.kind == FINITE:
            return list(range(self.size))
        words = [""]
        for _ in range(depth):
            words = [w + a for w in words for a in self.letters]
        return words


def leaf_spans(space, words):
    """The cell universe of a set of cylinder words, as (leaves, span).

    On the shift the leaves are those of the prefix trie of `words`, which
    holds every prefix of every word and all k children of each inner
    node, so they partition the space; they are sorted, and the leaves
    below a trie node (the root "", each word, each prefix) are
    consecutive, so span[node] is the range [start, end) of their indices.
    On the full list of depth-d words the leaves are `cells_at_depth(d)`.
    On Finite(n) the leaves are the points and span[x] = (x, x + 1).
    """
    if space.kind == FINITE:
        leaves = list(range(space.size))
        return leaves, {x: (x, x + 1) for x in leaves}
    inner = {w[:i] for w in words for i in range(len(w))}
    letters = space.letters
    leaves = sorted({p + a for p in inner for a in letters} - inner) if inner else [""]
    span = {w: (i, i + 1) for i, w in enumerate(leaves)}
    first, last = letters[0], letters[-1]
    for p in sorted(inner, key=len, reverse=True):
        span[p] = (span[p + first][0], span[p + last][1])
    return leaves, span


def _merged(cells, values, letters):
    """The canonical cells and values of sorted cells, by one stack pass.

    `values` runs beside `cells`.  A cell inside a kept cell u is dropped;
    u is on top of the stack, since every word between u and uv in sorted
    order starts with u.  So the stack is a sorted antichain, and when p+a
    for the last letter a arrives, its k - 1 other siblings are on top if
    they are kept at all; with its value, they give way to p, which may
    complete its own siblings in turn.
    """
    head, last, k = letters[:-1], letters[-1], len(letters)
    out, vals = [], []
    for w, v in zip(cells, values):
        if out and w.startswith(out[-1]):
            continue
        while w and w[-1] == last and len(out) >= k - 1:
            i, p = len(out) - k + 1, w[:-1]
            if out[i:] != [p + a for a in head] or vals[i:].count(v) != k - 1:
                break
            del out[i:], vals[i:]
            w = p
        out.append(w)
        vals.append(v)
    return out, vals


def _canonical(space, cells):
    """The Clopen of valid cells."""
    if space.kind == FINITE:
        return Clopen(space, tuple(sorted(set(cells))))
    if len(cells) > 1:
        cells = _merged(sorted(cells), [True] * len(cells), space.letters)[0]
    return Clopen(space, tuple(cells))


def sum_cells(space, pairs):
    """The canonical items of the sum of (cell, value) pairs, zeros dropped.

    The cells may overlap.  On the shift the sum is refined to the leaves
    of `leaf_spans` over the cells, each the sum of the values of the cells
    above it, and the sorted nonzero leaves are merged by `_merged`.
    """
    vals = {}
    for c, v in pairs:
        vals[c] = vals.get(c, 0) + v
    if space.kind == FINITE:
        return sorted((c, v) for c, v in vals.items() if v)
    leaves, span = leaf_spans(space, vals)
    total = [0] * len(leaves)
    for c, v in vals.items():
        start, end = span[c]
        for i in range(start, end):
            total[i] += v
    cells, values = _merged([w for w, t in zip(leaves, total) if t], [t for t in total if t],
                            space.letters)
    return list(zip(cells, values))


class Clopen(Frozen):
    """A canonical compact open subset of a unit space."""

    __slots__ = ("space", "cells")

    def __init__(self, space, cells):
        _set_space(self, space)
        _set_cells(self, cells)

    # -- basic predicates -------------------------------------------------

    @property
    def is_empty(self):
        return not self.cells

    def max_depth(self):
        if self.space.kind == FINITE or not self.cells:
            return 0
        return max(len(w) for w in self.cells)

    def contains_cell(self, cell):
        """Whether the cylinder (or point) `cell` is contained in this set."""
        self.space.check_cell(cell)
        if self.space.kind == FINITE:
            return cell in self.cells
        return cell.startswith(self.cells)

    # -- boolean operations ------------------------------------------------

    def union(self, other):
        _same_space(self, other)
        return _canonical(self.space, self.cells + other.cells)

    def intersect(self, other):
        _same_space(self, other)
        if self.space.kind == FINITE:
            return _canonical(self.space, set(self.cells) & set(other.cells))
        # the deeper cell of each nested pair, a maximal cylinder of the meet
        out = []
        for a in self.cells:
            for b in other.cells:
                if b.startswith(a):
                    out.append(b)
                elif a.startswith(b):
                    out.append(a)
        return Clopen(self.space, tuple(out))

    def difference(self, other):
        _same_space(self, other)
        if self.space.kind == FINITE:
            return _canonical(self.space, set(self.cells) - set(other.cells))
        # each piece is maximal: any larger cylinder inside the cell holds
        # a cell of other, or the piece would not have been split off
        out = []
        for a in self.cells:
            out.extend(_cell_minus(a, other.cells, self.space.letters))
        return Clopen(self.space, tuple(out))

    def subset_of(self, other):
        _same_space(self, other)
        if self.space.kind == FINITE:
            return set(self.cells).issubset(other.cells)
        return all(a.startswith(other.cells) for a in self.cells)

    def disjoint_from(self, other):
        _same_space(self, other)
        if self.space.kind == FINITE:
            return set(self.cells).isdisjoint(other.cells)
        return not any(a.startswith(other.cells) for a in self.cells) and \
            not any(b.startswith(self.cells) for b in other.cells)

    def expand(self, depth):
        """The cells of this set refined to uniform `depth` (shift only).

        Finite spaces ignore the depth and return the points.
        """
        if self.space.kind == FINITE:
            return list(self.cells)
        out = []
        for c in self.cells:
            if len(c) > depth:
                raise ValueError("cell %r deeper than %d" % (c, depth))
            out.extend(c + t for t in self.space.cells_at_depth(depth - len(c)))
        return sorted(out)

    def __repr__(self):
        return "Clopen(%s)" % (list(self.cells),)


# The searches build Clopens in bulk, past Record's generic constructor.
_set_space, _set_cells = Clopen._setters


def _same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch("operands over different spaces: %s vs %s" % (a.space, b.space))


def _cell_minus(word, cells, letters):
    """cylinder(word) minus the union of `cells`, as a list of words."""
    out = []
    stack = [(word, cells)]  # cylinders still to split, the next one last
    while stack:
        word, cells = stack.pop()
        below = []
        for c in cells:
            if word.startswith(c):  # c covers the cylinder
                break
            if c.startswith(word):
                below.append(c)
        else:
            if below:
                stack += [(word + a, below) for a in reversed(letters)]
            else:
                out.append(word)
    return out


def clopen(space, cells):
    """Canonicalize a list of cells into a Clopen. Idempotent.

    The one place that validates cells: `empty` and `whole`, the only other
    public constructors, build valid cells, and the Boolean operations
    build theirs from the valid cells of their operands.
    """
    return _canonical(space, [space.check_cell(c) for c in cells])


def empty(space):
    return Clopen(space, ())


def whole(space):
    if space.kind == FINITE:
        return Clopen(space, tuple(range(space.size)))
    return Clopen(space, ("",))
