"""Independent recomputations that the benchmark checks ample's outputs against.

Nothing here imports ample.  Shift cells are cylinder words over the
letters "1".."k"; an action is a list of (strip, add) prefix replacements,
sending strip+w to add+w.  Cuntz generator g_i prepends the letter i, and
the odometer generator sends 2^j 1 w to 1^j 2 w.  Words are JSON lists of
[["g1", 1], ["g2", -1], ...] and act right to left, like ample's words.
"""

from __future__ import annotations

import ast
from collections import Counter
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def rational(data):
    return Fraction(int(data["num"]), int(data["den"]))


# -- cylinder algebra on the shift ---------------------------------------------


def letters(k):
    return [str(i) for i in range(1, k + 1)]


def words(depth, k):
    out = [""]
    for _ in range(depth):
        out = [w + a for w in out for a in letters(k)]
    return out


def expand(cells, depth, k):
    """The depth-`depth` words below each cell, with repeats kept."""
    out = []
    for c in cells:
        require(len(c) <= depth, "cell %r deeper than %d" % (c, depth))
        out.extend(c + t for t in words(depth - len(c), k))
    return out


def cuntz_gens(n):
    return [[("", str(i))] for i in range(1, n + 1)]


def odometer_gens(carries):
    return [[("2" * j + "1", "1" * j + "2") for j in range(carries)]]


def invert(act):
    return [(a, s) for s, a in act]


def _apply_cell(act, cell, k):
    for s, a in act:
        if cell.startswith(s):
            return [a + cell[len(s):]]
    if any(s.startswith(cell) for s, _ in act):
        return [w for ch in letters(k) for w in _apply_cell(act, cell + ch, k)]
    raise CheckFailed("cell %r is outside the domain of %r" % (cell, act))


def apply_word(gens, word, cells, k):
    """The image cells of `cells` under a word; fails off the word's domain."""
    for name, exp in reversed(word):
        act = gens[int(name[1:]) - 1]
        act = act if exp == 1 else invert(act)
        cells = [w for c in cells for w in _apply_cell(act, c, k)]
    return cells


def compose(f, g):
    """The prefix action f after g, piece by piece."""
    out = []
    for s_g, a_g in g:
        for s_f, a_f in f:
            if a_g.startswith(s_f):
                out.append((s_g, a_f + a_g[len(s_f):]))
            elif s_f.startswith(a_g):
                out.append((s_g + s_f[len(a_g):], a_f))
    return out


def power_rows(gen, depth):
    """Invariance rows mu(sX) = mu(aX) of every atom of g^n, 0 < |n| <= depth.

    These are the rows of the depth-truncated state system of a presentation
    with the single generator `gen`; atoms deeper than the depth are left
    out, as the truncation leaves them out.
    """
    rows = set()
    for act0 in (gen, invert(gen)):
        act = act0
        for _ in range(depth):
            for s, a in act:
                if s != a and len(s) <= depth and len(a) <= depth:
                    rows.add((s, a))
            act = compose(act0, act)
    return sorted(rows)


def word_of_note(text):
    """Parse ample's word notation "g1*g2^-1" (or "1" for the empty word)."""
    if text == "1":
        return []
    out = []
    for part in text.split("*"):
        if part.endswith("^-1"):
            out.append([part[:-3], -1])
        else:
            out.append([part, 1])
    return out


# -- witnesses and certificates on the shift -----------------------------------


def _pieces(bisection, gens, k):
    """(domain cells, range cells) of each piece of a serialized bisection."""
    out = []
    for piece in bisection["pieces"]:
        dom = piece["domain"]["cells"]
        out.append((dom, apply_word(gens, piece["word"], dom, k)))
    return out


def check_witness(w, gens, k):
    """Each row covers A, and ranges of one label are disjoint inside A."""
    kk, l, rows = w["k"], w["l"], w["rows"]
    require(kk > l >= 1, "bad witness shape (%r, %r)" % (kk, l))
    require(len(rows) == kk, "witness has %d rows, not %d" % (len(rows), kk))
    pieces = [[(p, entry["m"]) for entry in row for p in _pieces(entry["bisection"], gens, k)]
              for row in rows]
    a_cells = w["A"]["cells"]
    require(a_cells, "witness set is empty")
    depth = max(len(c) for c in a_cells)
    for row in pieces:
        for (dom, ran), _ in row:
            depth = max([depth] + [len(c) for c in dom + ran])
    a_set = set(expand(a_cells, depth, k))
    taken = {m: Counter() for m in range(1, l + 1)}
    for i, row in enumerate(pieces, start=1):
        covered = set()
        for (dom, ran), m in row:
            require(1 <= m <= l, "row %d uses label %r" % (i, m))
            covered.update(expand(dom, depth, k))
            taken[m].update(expand(ran, depth, k))
        require(covered == a_set, "row %d does not cover A" % i)
    for m, cells in taken.items():
        require(all(n == 1 for n in cells.values()), "ranges overlap at label %d" % m)
        require(set(cells) <= a_set, "ranges at label %d leave A" % m)


def check_equivalence(cert, left, right, gens, k):
    """Domains tile the left family and ranges tile the right one, per label."""
    require(cert["kind"] == "equivalence", "not an equivalence certificate")
    doms, rans = {}, {}
    for t in cert["triples"]:
        for dom, ran in _pieces(t["bisection"], gens, k):
            doms.setdefault(t["n"], []).extend(dom)
            rans.setdefault(t["m"], []).extend(ran)
    for side, fam, got in (("left", left, doms), ("right", right, rans)):
        want = {e["label"]: e["set"]["cells"] for e in fam["entries"]}
        require(sorted(got) == sorted(want), "%s labels differ" % side)
        for label, cells in want.items():
            depth = max(len(c) for c in cells + got[label])
            have = Counter(expand(got[label], depth, k))
            require(all(n == 1 for n in have.values()), "%s pieces overlap" % side)
            require(set(have) == set(expand(cells, depth, k)), "%s label %d not tiled" % (side, label))


# -- states and Farkas certificates ---------------------------------------------


def state_values(state):
    return {cell: rational(v) for cell, v in state["values"]}


def check_probability(mu):
    require(all(v >= 0 for v in mu.values()), "negative state value")
    require(sum(mu.values()) == 1, "state does not sum to 1")


def check_rows(mu, rows, depth, k):
    """mu(sX) = mu(aX) on every row, with mu given on depth-`depth` cells."""
    for s, a in rows:
        lhs = sum(mu[c] for c in expand([s], depth, k))
        rhs = sum(mu[c] for c in expand([a], depth, k))
        require(lhs == rhs, "row %s = %s fails" % (s, a))


def check_farkas(farkas, gens, k, depth):
    """Rebuild each row from its provenance, check it is a true invariance
    relation, and recheck y.A <= 0 in every column and y.b > 0 exactly."""
    require(farkas["depth"] == depth, "certificate at the wrong depth")
    ys = [rational(v) for v in farkas["equality_multipliers"]]
    notes = farkas["constraints"]
    require(len(ys) == len(notes), "multipliers and rows differ in number")
    y_norm = rational(farkas["normalization_multiplier"])
    column = dict.fromkeys(words(depth, k), y_norm)
    for y, note in zip(ys, notes):
        word, _, sides = note.partition(": ")
        dom_text, _, ran_text = sides.partition(" = ")
        dom, ran = ast.literal_eval(dom_text), ast.literal_eval(ran_text)
        image = apply_word(gens, word_of_note(word), dom, k)
        require(sorted(expand(image, depth, k)) == sorted(expand(ran, depth, k)),
                "row %r is not an invariance relation" % note)
        for c in expand(dom, depth, k):
            column[c] += y
        for c in expand(ran, depth, k):
            column[c] -= y
    require(all(v <= 0 for v in column.values()), "y.A has a positive column")
    require(y_norm > 0, "y.b is not positive")


# -- finite spaces -----------------------------------------------------------------


def orbits(n, injections):
    """Orbit blocks of the points 0..n-1 under partial injections, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pairs in injections:
        for s, t in pairs:
            parent[find(s)] = find(t)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())
