"""JSON encoding of presentations, certificates, witnesses, and states.

Every file carries a schema_version tag.  Decoders validate as they walk
the data and report the JSON path of the first offending field, so a CLI
error names the exact location.  Encoders always emit canonical forms;
parse-serialize-parse is the identity on the files the CLI reads:
presentations, families, certificates and witnesses.  State, Farkas and
element files are only written.

Rationals are int numerators over a positive int denominator, written in
lowest terms as {"num": "...", "den": "..."} decimal strings to keep
arbitrary precision out of JSON number territory; `rational_texts` writes
them for the JSON reports and the prose alike.  Importing this module
does not import fractions, nor json, nor the search layers, which only
the family, certificate and witness decoders need: `dumps` writes with
json's C string encoder, and `load_json` reads with json's C scanner.
"""

from __future__ import annotations

import os
from _json import encode_basestring_ascii as _quote, make_scanner

from . import stone
from .stone import UnitSpace, clopen
from . import groupoid as gpd
from .groupoid import (
    Bisection,
    GroupElement,
    PartialInjection,
    PrefixMap,
    Presentation,
    Table,
)

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


def _need(data, key, path):
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    if key not in data:
        raise SchemaError(path, "missing field %r" % key)
    return data[key]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _need_int(data, key, path):
    value = _need(data, key, path)
    if not _is_int(value):
        raise SchemaError("%s.%s" % (path, key), "expected an integer, got %r" % (value,))
    return value


def _need_list(data, key, path):
    value = _need(data, key, path)
    if not isinstance(value, list):
        raise SchemaError("%s.%s" % (path, key), "expected a list, got %r" % (value,))
    return value


def _need_str(data, key, path):
    value = _need(data, key, path)
    if not isinstance(value, str):
        raise SchemaError("%s.%s" % (path, key), "expected a string, got %r" % (value,))
    return value


def _int_list(value, path):
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list, got %r" % (value,))
    for i, x in enumerate(value):
        if not _is_int(x):
            raise SchemaError("%s[%d]" % (path, i), "expected an integer, got %r" % (x,))
    return tuple(value)


def _check_version(data, path):
    """A file is an object; one without a tag is read as the current version."""
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if not _is_int(version):
        # true and 1.0 are == 1 in Python, but not the version integer
        raise SchemaError(path + ".schema_version", "expected an integer, got %r" % (version,))
    if version != SCHEMA_VERSION:
        raise SchemaError(
            path + ".schema_version",
            "unsupported schema version %r, expected %d" % (version, SCHEMA_VERSION),
        )


# -- rationals ---------------------------------------------------------------


def rational_texts(nums, den=1):
    """num / den for each int num, over the int den > 0, in lowest terms:
    the decimal strings of its numerator and denominator."""
    if den == 1:
        return [(str(num), "1") for num in nums]
    # only commands that solve an LP write a den other than 1, and simplex
    # has loaded math by then
    from math import gcd

    texts = []
    for num in nums:
        g = gcd(num, den)
        texts.append((str(num // g), str(den // g)))
    return texts


def encode_rationals(nums, den=1):
    return [{"num": n, "den": d} for n, d in rational_texts(nums, den)]


def encode_rational(num, den=1):
    return encode_rationals((num,), den)[0]


# -- spaces and clopens -------------------------------------------------------


def encode_space(space):
    if space.kind == stone.FINITE:
        return {"kind": "finite", "n": space.size}
    return {"kind": "shift", "k": space.size}


def decode_space(data, path="space"):
    kind = _need(data, "kind", path)
    size_key = "n" if kind == "finite" else "k" if kind == "shift" else None
    if size_key is None:
        raise SchemaError(path, "unknown space kind %r" % kind)
    size = _need(data, size_key, path)
    where = "%s.%s" % (path, size_key)
    if not _is_int(size):
        raise SchemaError(where, "expected an integer, got %r" % (size,))
    try:
        return UnitSpace(kind, size)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from exc


def encode_clopen(clop):
    return {"space": encode_space(clop.space), "cells": list(clop.cells)}


# the letters of the shift words read so far from the file being decoded,
# or None outside the decoding of a file
_letters = None


def _one_file(decode):
    """decode, counting the letters of the shift words of one file against
    `stone.MAX_INPUT_LETTERS`; nested in another such decoder, it counts
    on in that decoder's file."""
    def decode_file(*args, **kwargs):
        global _letters
        if _letters is not None:
            return decode(*args, **kwargs)
        _letters = 0
        try:
            return decode(*args, **kwargs)
        finally:
            _letters = None

    decode_file.__name__ = decode.__name__
    decode_file.__doc__ = decode.__doc__
    return decode_file


def check_word(word, path):
    """Reject a shift word longer than `stone.MAX_WORD_LENGTH`, or one that
    takes the file being decoded past `stone.MAX_INPUT_LETTERS` letters."""
    global _letters
    if isinstance(word, str):
        if len(word) > stone.MAX_WORD_LENGTH:
            raise SchemaError(path, "word of %d letters; at most %d are accepted"
                              % (len(word), stone.MAX_WORD_LENGTH))
        if _letters is not None:
            _letters += len(word)
            if _letters > stone.MAX_INPUT_LETTERS:
                raise SchemaError(path, "shift words of over %d letters in one file"
                                  % stone.MAX_INPUT_LETTERS)
    return word


def decode_clopen(data, path, space):
    if decode_space(_need(data, "space", path), path + ".space") != space:
        raise SchemaError(path + ".space", "clopen over the wrong space")
    cells = _need_list(data, "cells", path)
    for i, cell in enumerate(cells):
        check_word(cell, "%s.cells[%d]" % (path, i))
    try:
        return clopen(space, cells)
    except (stone.CellError, ValueError) as exc:
        raise SchemaError(path + ".cells", str(exc)) from exc


# -- presentations ------------------------------------------------------------


def encode_generator(gen):
    if isinstance(gen, PrefixMap):
        return {"kind": "prefix_map", "alpha": gen.alpha, "beta": gen.beta}
    if isinstance(gen, PartialInjection):
        return {"kind": "partial_injection", "pairs": [list(p) for p in gen.pairs]}
    return {
        "kind": "group_element",
        "label": gen.label,
        "pieces": [list(p) for p in gen.pieces],
    }


def decode_generator(data, path):
    kind = _need(data, "kind", path)
    if kind == "prefix_map":
        return PrefixMap(*(check_word(_need_str(data, key, path), "%s.%s" % (path, key))
                           for key in ("alpha", "beta")))
    if kind == "partial_injection":
        pairs = _need_list(data, "pairs", path)
        for j, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
                raise SchemaError("%s.pairs[%d]" % (path, j), "expected two integers")
        return PartialInjection(tuple(tuple(p) for p in pairs))
    if kind == "group_element":
        pieces = _need_list(data, "pieces", path)
        for j, piece in enumerate(pieces):
            if not (isinstance(piece, list) and len(piece) == 2):
                raise SchemaError("%s.pieces[%d]" % (path, j), "expected two cells")
            for t, cell in enumerate(piece):
                check_word(cell, "%s.pieces[%d][%d]" % (path, j, t))
        return GroupElement(_need_str(data, "label", path), tuple(tuple(p) for p in pieces))
    raise SchemaError(path, "unknown generator kind %r" % kind)


def encode_presentation(pres):
    if isinstance(pres.isotropy, Table):
        iso = {
            "table": [list(r) for r in pres.isotropy.products],
            "gen_elements": list(pres.isotropy.gen_elements),
        }
    else:
        iso = pres.isotropy
    return {
        "schema_version": SCHEMA_VERSION,
        "space": encode_space(pres.space),
        "generators": [encode_generator(g) for g in pres.generators],
        "isotropy": iso,
    }


@_one_file
def decode_presentation(data, path="presentation"):
    _check_version(data, path)
    space = decode_space(_need(data, "space", path), path + ".space")
    gens_data = _need_list(data, "generators", path)
    gens = []
    for i, g in enumerate(gens_data):
        here = "%s.generators[%d]" % (path, i)
        gens.append(decode_generator(g, here))
        try:
            gpd.generator_action(gens[-1], space)
        except (gpd.PresentationError, stone.CellError) as exc:
            raise SchemaError(here, str(exc)) from exc
    iso = data.get("isotropy", "free")
    if isinstance(iso, dict):
        here = path + ".isotropy"
        iso = Table(
            products=tuple(
                _int_list(row, "%s.table[%d]" % (here, i))
                for i, row in enumerate(_need_list(iso, "table", here))
            ),
            gen_elements=_int_list(_need(iso, "gen_elements", here), here + ".gen_elements"),
        )
    elif iso not in (gpd.FREE, gpd.PRINCIPAL):
        raise SchemaError(path + ".isotropy", "unknown isotropy model %r" % iso)
    try:
        return Presentation(space, gens, iso)
    except gpd.PresentationError as exc:
        raise SchemaError(path, str(exc)) from exc


# -- words and bisections -------------------------------------------------------


def encode_word(word):
    return [["g%d" % (g + 1), e] for g, e in word]


def decode_word(data, pres, path="word"):
    if not isinstance(data, list):
        raise SchemaError(path, "expected a list, got %r" % (data,))
    out = []
    for i, pair in enumerate(data):
        here = "%s[%d]" % (path, i)
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(here, "expected [symbol, exponent]")
        sym, exp = pair
        if not (isinstance(sym, str) and sym.startswith("g")):
            raise SchemaError(here, "bad generator symbol %r" % sym)
        try:
            gi = int(sym[1:]) - 1
        except ValueError as exc:
            raise SchemaError(here, "bad generator symbol %r" % sym) from exc
        if not 0 <= gi < len(pres.generators):
            raise SchemaError(here, "generator %r not in the presentation" % sym)
        if not (_is_int(exp) and exp in (1, -1)):
            raise SchemaError(here, "exponent must be 1 or -1")
        out.append((gi, exp))
    return tuple(out)


def encode_bisection(bis):
    return {
        "pieces": [
            {"word": encode_word(p.word), "domain": encode_clopen(p.domain)}
            for p in bis.arrow_pieces
        ]
    }


def decode_bisection(data, pres, path="bisection"):
    pieces_data = _need_list(data, "pieces", path)
    pieces = []
    for i, pd in enumerate(pieces_data):
        here = "%s.pieces[%d]" % (path, i)
        word = decode_word(_need(pd, "word", here), pres, here + ".word")
        dom = decode_clopen(_need(pd, "domain", here), here + ".domain", pres.space)
        pieces.append((word, dom))
    try:
        return Bisection(pres, pieces)
    except gpd.PresentationError as exc:
        raise SchemaError(path, str(exc)) from exc


# -- families and certificates ---------------------------------------------------


def encode_family(fam):
    return {
        "schema_version": SCHEMA_VERSION,
        "entries": [
            {"set": encode_clopen(c), "label": i + 1} for i, c in enumerate(fam.entries)
        ],
    }


@_one_file
def decode_family(data, pres, path="family"):
    from . import typesemigroup as ts

    _check_version(data, path)
    entries = _need_list(data, "entries", path)
    pairs = []
    for i, e in enumerate(entries):
        here = "%s.entries[%d]" % (path, i)
        c = decode_clopen(_need(e, "set", here), here + ".set", pres.space)
        pairs.append((c, _need_int(e, "label", here)))
    return ts.normalize(pres.space, pairs)


def encode_equiv_certificate(cert):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "equivalence",
        "triples": [
            {"bisection": encode_bisection(w), "n": n, "m": m}
            for w, n, m in cert.triples
        ],
    }


def decode_equiv_certificate(data, pres, path="certificate"):
    from .typesemigroup import EquivCertificate

    triples = []
    for i, t in enumerate(_need_list(data, "triples", path)):
        here = "%s.triples[%d]" % (path, i)
        w = decode_bisection(_need(t, "bisection", here), pres, here + ".bisection")
        triples.append((w, _need_int(t, "n", here), _need_int(t, "m", here)))
    return EquivCertificate(tuple(triples))


def encode_leq_certificate(cert):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "leq",
        "remainder": encode_family(cert.remainder),
        "equivalence": encode_equiv_certificate(cert.equivalence),
    }


def decode_leq_certificate(data, pres, path="certificate"):
    from .typesemigroup import LeqCertificate

    remainder = decode_family(_need(data, "remainder", path), pres, path + ".remainder")
    equiv = decode_equiv_certificate(
        _need(data, "equivalence", path), pres, path + ".equivalence"
    )
    return LeqCertificate(remainder, equiv)


@_one_file
def decode_certificate(data, pres, path="certificate"):
    _check_version(data, path)
    kind = data.get("kind", "equivalence")
    if kind == "equivalence":
        return decode_equiv_certificate(data, pres, path)
    if kind == "leq":
        return decode_leq_certificate(data, pres, path)
    raise SchemaError(path + ".kind", "unknown certificate kind %r" % kind)


# -- witnesses -------------------------------------------------------------------


def encode_witness(w):
    return {
        "schema_version": SCHEMA_VERSION,
        "A": encode_clopen(w.a),
        "k": w.k,
        "l": w.l,
        "rows": [
            [{"bisection": encode_bisection(b), "m": m} for b, m in row]
            for row in w.rows
        ],
    }


@_one_file
def decode_witness(data, pres, path="witness"):
    from .paradox import ParadoxWitness

    _check_version(data, path)
    a = decode_clopen(_need(data, "A", path), path + ".A", pres.space)
    k = _need_int(data, "k", path)
    l = _need_int(data, "l", path)
    rows = []
    for i, row in enumerate(_need_list(data, "rows", path)):
        here = "%s.rows[%d]" % (path, i)
        if not isinstance(row, list):
            raise SchemaError(here, "expected a list, got %r" % (row,))
        out = []
        for j, entry in enumerate(row):
            at = "%s[%d]" % (here, j)
            b = decode_bisection(_need(entry, "bisection", at), pres, at + ".bisection")
            out.append((b, _need_int(entry, "m", at)))
        rows.append(tuple(out))
    return ParadoxWitness(a, k, l, tuple(rows))


# -- states ----------------------------------------------------------------------


def encode_state(sv):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "state",
        "depth": sv.depth,
        "values": [[c, q] for c, q in zip(sv.cells, encode_rationals(sv.values, sv.den))],
    }


def encode_farkas(fc, depth, notes=()):
    *equalities, normalization = encode_rationals(
        (*fc.equality_multipliers, fc.normalization_multiplier), fc.den)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "farkas",
        "depth": depth,
        "equality_multipliers": equalities,
        "normalization_multiplier": normalization,
        "constraints": list(notes),
    }


# -- convolution elements ----------------------------------------------------------


def encode_element(elem):
    out = []
    for key, cell, coef in elem.items():
        word = elem.pres.canonical_word(key)
        out.append(
            {"word": encode_word(word), "cell": cell, "coef": encode_rational(coef)}
        )
    return {"schema_version": SCHEMA_VERSION, "kind": "element", "terms": out}


# -- file helpers ------------------------------------------------------------------


def _scalar_str(value):
    """json's text for a str, int, bool or None."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def dumps(obj):
    """Exactly json.dumps(obj, sort_keys=True, indent=2) + "\n" for what
    reports hold: str, int, bool and None, in lists, tuples and dicts with
    str keys.  Anything else raises TypeError, and a container inside
    itself ValueError.

    With an indent, json writes through its pure-Python encoder, one
    generator per container, and imports it at a cost of its own.  This
    writer keeps an explicit stack of the open containers, so depth costs
    no recursion, pairs each item with the text that goes before it, works
    out that text once per depth and set of dict keys, and quotes strings
    with json's C encoder."""
    out = []
    # open containers: (iterator of (text before, value), closing text, id);
    # the root holds obj alone
    stack = [(iter((("", obj),)), "\n", None)]
    open_ids = set()
    forms = {}  # (depth, a dict's keys in order) -> (its keys sorted, the text before each)
    while stack:
        items, close, ident = stack[-1]
        for before, value in items:
            if not isinstance(value, (list, tuple, dict)):
                out.append(before + _scalar_str(value))
                continue
            is_dict = isinstance(value, dict)
            if not value:
                out.append(before + ("{}" if is_dict else "[]"))
                continue
            child = id(value)
            if child in open_ids:
                raise ValueError("Circular reference detected")
            depth = len(stack)
            indent = "\n" + "  " * depth
            if is_dict:
                keys = (depth, *value)
                form = forms.get(keys)
                if form is None:
                    order = sorted(value)
                    heads = ["," + indent + _quote(k) + ": " for k in order]
                    heads[0] = heads[0][1:]
                    form = forms[keys] = order, heads
                order, heads = form
                value = list(map(value.__getitem__, order))
            else:
                heads = ["," + indent] * len(value)
                heads[0] = indent
            open_ids.add(child)
            out.append(before + ("{" if is_dict else "["))
            stack.append((zip(heads, value), indent[:-2] + ("}" if is_dict else "]"), child))
            break
        else:
            stack.pop()
            open_ids.discard(ident)
            out.append(close)
    return "".join(out)


class _Reader:
    """The settings of json's default decoder, which `make_scanner` reads."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


_scan_once = make_scanner(_Reader)
_JSON_SPACE = " \t\n\r"


def _loads(text):
    """json.loads(text), by the C scanner json.loads itself runs.

    A text the scanner reads whole, between json's whitespace, gives the
    same value.  Any other text goes to json.loads, which raises its own
    error: no value, data after it, a UTF-8 BOM, or a malformed value,
    whose error the scanner builds from json.decoder only once that is
    loaded (Python 3.11 raises SystemError before).
    """
    try:
        obj, end = _scan_once(text, len(text) - len(text.lstrip(_JSON_SPACE)))
    except (StopIteration, ValueError, SystemError):
        end = None
    if end != len(text.rstrip(_JSON_SPACE)):
        import json

        return json.loads(text)
    return obj


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return _loads(fh.read())
    except OSError as exc:
        raise SchemaError(path, "cannot read: %s" % exc) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(path, "not UTF-8: %s" % exc) from exc
    except RecursionError:
        raise SchemaError(path, "JSON nested too deeply to read") from None
    except ValueError as exc:
        # json.loads raised it, so json is loaded
        from json import JSONDecodeError

        if isinstance(exc, JSONDecodeError):
            raise SchemaError("%s:%d" % (path, exc.lineno), exc.msg) from exc
        # an integer literal past the int conversion limit
        raise SchemaError(path, "number too long to read: %s" % exc) from exc


def parse_presentation_arg(spec):
    """A builtin alias like cuntz:2, or a path to a presentation file.

    A spec of the alias form (cuntz:1, cuntz, odometer) that is neither a
    valid alias nor an existing file raises the alias's PresentationError.
    """
    alias = ":" in spec or spec in gpd.BUILTINS
    if alias or not spec.endswith(".json"):
        try:
            return gpd.builtin(spec)
        except gpd.PresentationError:
            if alias and not os.path.exists(spec):
                raise
    return decode_presentation(load_json(spec))
