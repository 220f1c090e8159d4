"""The type semigroup of a presentation, with machine-checkable certificates.

An element is represented by a labeled family: for each label i a clopen
A_i, standing for the disjoint union of the A_i x {i}.  Two families are
equivalent when finitely many bisections W_k match a disjoint labeled
tiling of one family onto a disjoint labeled tiling of the other; that
matching is the EquivCertificate and is verified independently of however
it was found.  The algebraic preorder x <= y is witnessed by a remainder z
together with an equivalence certificate for x + z ~ y.

Search and verification are strictly separated: anything a search returns
passes the verifier, and a failed search is never evidence of
inequivalence.

`probes` draws pairs of clopens from a seed and searches order-unit
bounds y <= n x and almost-unperforation counterexamples among them.
"""

from __future__ import annotations

from . import stone
from .stone import Frozen, Record, clopen, empty
from .groupoid import Bisection, cell_images, identity_bisection, word_table


class FamilyError(stone.InputError):
    pass


# ---------------------------------------------------------------------------
# labeled families


class LabeledFamily(Frozen):
    """Canonical form: nonempty clopens only, labels 1..m, sorted by label."""

    # entries[i] is the clopen labeled i+1
    __slots__ = ("space", "entries")

    @property
    def labels(self):
        return range(1, len(self.entries) + 1)

    def entry(self, label):
        if 1 <= label <= len(self.entries):
            return self.entries[label - 1]
        return empty(self.space)

    @property
    def is_empty(self):
        return not self.entries

    def __repr__(self):
        return "LabeledFamily(%s)" % (
            ", ".join("%s x {%d}" % (list(c.cells), i + 1) for i, c in enumerate(self.entries)),
        )


def normalize(space, pairs):
    """Canonicalize (clopen, label) pairs: one entry per label, the union
    of its clopens, labels in order of first appearance, empty ones dropped."""
    by_label = {}  # label -> its cells, labels in order of first appearance
    for c, label in pairs:
        if c.space != space:
            raise stone.SpaceMismatch("family entry over the wrong space")
        if not isinstance(label, int) or label < 1:
            raise FamilyError("labels must be positive integers, got %r" % (label,))
        by_label.setdefault(label, []).extend(c.cells)
    return LabeledFamily(space, tuple(clopen(space, cells) for cells in by_label.values() if cells))


def family_of(clop):
    """The family of one clopen under label 1, which is canonical as it stands."""
    return LabeledFamily(clop.space, (clop,) if clop.cells else ())


def add(f1, f2):
    if f1.space != f2.space:
        raise stone.SpaceMismatch("adding families over different spaces")
    return LabeledFamily(f1.space, f1.entries + f2.entries)


def multiple(f, n):
    return LabeledFamily(f.space, f.entries * n)


# ---------------------------------------------------------------------------
# equivalence certificates


class EquivCertificate(Record):
    # triples: ((Bisection, n, m), ...)
    __slots__ = ("triples",)


class VerifyResult(Record):
    __slots__ = ("ok", "reason")
    _defaults = {"reason": ""}

    def __bool__(self):
        return self.ok


def _tiling_matches(family, parts, side):
    """Check that labeled clopens tile the family exactly and disjointly."""
    seen = {}
    for idx, (c, label) in enumerate(parts):
        if c.is_empty:
            continue
        have = seen.get(label, empty(family.space))
        if not have.disjoint_from(c):
            return VerifyResult(False, "%s pieces overlap at label %d (triple %d)" % (side, label, idx + 1))
        seen[label] = have.union(c)
    for label, got in sorted(seen.items()):
        if got != family.entry(label):
            return VerifyResult(
                False,
                "%s union at label %d is %s, expected %s"
                % (side, label, list(got.cells), list(family.entry(label).cells)),
            )
    for label in family.labels:
        if label not in seen and not family.entry(label).is_empty:
            return VerifyResult(False, "%s label %d is not covered" % (side, label))
    return VerifyResult(True)


def verify_equiv(pres, f1, f2, cert):
    """Accept iff the certificate's disjoint unions reproduce both families."""
    if f1.space != pres.space or f2.space != pres.space:
        return VerifyResult(False, "families over the wrong space")
    for idx, (w, n, m) in enumerate(cert.triples):
        if not isinstance(w, Bisection) or w.pres != pres:
            return VerifyResult(False, "triple %d is not a bisection over this presentation" % (idx + 1,))
        if not (isinstance(n, int) and n >= 1 and isinstance(m, int) and m >= 1):
            return VerifyResult(False, "triple %d has bad labels" % (idx + 1,))
    doms = [(w.dom(), n) for w, n, _ in cert.triples]
    rans = [(w.ran(), m) for w, _, m in cert.triples]
    res = _tiling_matches(f1, doms, "domain")
    if not res:
        return res
    return _tiling_matches(f2, rans, "range")


# ---------------------------------------------------------------------------
# the preorder


class LeqCertificate(Record):
    # remainder: a LabeledFamily; equivalence: an EquivCertificate
    __slots__ = ("remainder", "equivalence")


def verify_leq(pres, f1, f2, cert):
    return verify_equiv(pres, add(f1, cert.remainder), f2, cert.equivalence)


# ---------------------------------------------------------------------------
# searches


class SearchBudget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        return self.used <= self.limit


class SearchStats(Record):
    """Deterministic work counts of one search.

    nodes counts the candidates tried that fit, over every cell level the
    search tried, so it never exceeds the budget; level is the cell depth
    that settled the search: the one that found, ran out of budget, or,
    when none found, the finest.  cells counts that level's slots to fill,
    one per refinement cell of each label of the left family (of each row,
    for a witness); candidates sums their lists of fitting candidates.
    """

    __slots__ = ("nodes", "budget", "cells", "candidates", "level")


class SearchOutcome(Record):
    # certificate: an EquivCertificate, LeqCertificate or ParadoxWitness, or
    # None; status: found | exhausted | budget; stats: a SearchStats
    __slots__ = ("certificate", "status", "stats")
    _defaults = {"stats": None}
    _uncompared = ("stats",)


def _cell_depth(pres, families, deepest):
    """Depth of cells tiling the family entries, fine enough for word domains
    as deep as `deepest`."""
    if pres.space.kind == stone.FINITE:
        return 0
    return max([deepest] + [c.max_depth() for fam in families for c in fam.entries])


def _family_slots(fam, depth):
    slots = []
    for label in fam.labels:
        for cell in fam.entry(label).expand(depth):
            slots.append((label, cell))
    return slots


def _compile_pieces(pres, pieces, cells, targets, cached, frames):
    """Compile a tiling search onto integer bit masks, from `WordTable.pieces`.

    Returns (options, masks, leaves).  options[cell] lists, in word order,
    (canonical word of the arrow acting there, image mask) for each word
    acting on the cell, skipping on Finite(n) a word that acts by the same
    arrows on the same points as an earlier one; masks[j] is the mask of
    targets[j].  Bit i is leaves[i] of `stone.leaf_spans` over the target
    cells and image words, so a trie node of span [start, end) has the mask
    (1 << end) - (1 << start): on Finite(n) bit x is the point x, and on
    the shift masks grow with the words met, not as k^depth.  A word acts
    on a shift cell only when the cell lies inside its canonical domain,
    so a cell shallower than that domain skips the word.  On the shift,
    `cached` (the `WordTable.images` of the same pieces, or a new dict)
    supplies the `cell_images` of the cells it holds and keeps those of
    the others.  `frames` (the `WordTable.frames`, or a new dict) maps a
    set of words to its `leaf_spans`, which depend on that set alone, so
    a level whose words were met before reuses their leaves and spans.
    """
    space = pres.space
    if space.kind == stone.SHIFT:
        new = [cell for cell in cells if cell not in cached]
        for cell in new:
            cached[cell] = []
        for w, act, dom in pieces:
            doms = dom.cells
            for cell in new:
                if cell.startswith(doms):
                    cached[cell].append((w, cell_images(space, act, (cell,))))
        images = {cell: cached[cell] for cell in cells}
    else:
        images = {cell: [] for cell in cells}
        seen = set()
        for w, act, _ in pieces:
            keys = tuple((pres.piece_key(w, pair), pair) for pair in act)
            if keys in seen:
                continue
            seen.add(keys)
            for key, (x, y) in keys:
                if x in images:
                    images[x].append((pres.canonical_word(key), [(x, y)]))
    image_words = {w for t in targets for w in t.cells}
    image_words.update(w for found in images.values() for _, pairs in found for _, w in pairs)
    image_words = frozenset(image_words)
    if image_words not in frames:
        frames[image_words] = stone.leaf_spans(space, image_words)
    leaves, span = frames[image_words]

    def mask_of(pairs):
        mask = 0
        for _, w in pairs:
            start, end = span[w]
            mask |= (1 << end) - (1 << start)
        return mask

    options = {cell: [(word, mask_of(pairs)) for word, pairs in found]
               for cell, found in images.items()}
    # a target's cells are their own images
    return options, [mask_of(zip(t.cells, t.cells)) for t in targets], leaves


def _search_tiling(pres, f1, f2, depth, budget, exact, leftover=True):
    """The one backtracking search: tile the cells of f1 into f2 by pieces.

    The search steps through cell levels, coarse to fine: from the depth
    of the families' own cells up to the depth of the deepest canonical
    domain of a word up to `depth`, where every word acts on whole cells.
    All levels spend one budget.  The first level that finds settles the
    search; it ends on the budget as soon as the budget runs out, and is
    exhausted only once the finest level is.  A tiling at a coarse level
    refines to one at every finer level by the same words, so the levels
    find exactly when the finest does, with fewer and larger pieces.
    On Finite(n) there is one level.  Returns the outcome, whose triples
    follow slot order, and, when found and `leftover` holds, the leftover
    clopen of each label of f2 (else None).
    """
    table = word_table(pres, depth)
    _, deepest = table.pieces
    tracker = SearchBudget(budget)
    first = _cell_depth(pres, [f1, f2], 0)
    for level in range(first, max(first, deepest) + 1):
        outcome, left = _search_level(pres, table, f1, f2, level, tracker, exact, leftover)
        if outcome.status != "exhausted":
            break
    return outcome, left


def _compiled_level(pres, table, cells, f2):
    """(arrivals, masks, leaves, leftovers) of the cells against the
    entries of f2, memoised in the table.  arrivals[i] lists, in word order
    and then label order, the (piece word, label m of f2, image) candidates
    of cells[i] whose image lies inside entry m; masks and leaves are those
    of `_compile_pieces`; leftovers, filled in by the searches, maps a mask
    to its clopen."""
    key = cells, f2.entries
    level = table.levels.get(key)
    if level is None:
        pieces, _ = table.pieces
        options, masks, leaves = _compile_pieces(pres, pieces, cells, f2.entries, table.images,
                                                 table.frames)
        targets = list(zip(f2.labels, masks))
        arrivals = [[(word, m, image) for word, image in options[cell]
                     for m, mask in targets if image & mask == image]
                    for cell in cells]
        level = table.levels[key] = arrivals, masks, leaves, {}
    return level


def _search_level(pres, table, f1, f2, level, tracker, exact, leftover):
    """Tile the cells of f1 at depth `level` into f2 by pieces.

    The slots are (label of f1, refinement cell) pairs in family order.  A
    slot's candidates are the (piece word, label m of f2, image) triples of
    the table's words acting on the whole cell whose action sends it inside
    entry m of f2: the cell's arrival list, compiled once per table for
    these cells and targets.  Each refinement cell keeps, as an int bit
    set over its arrival list, the candidates that still fit, shared by
    its slots: placing (word, m, image) clears from the bit sets of the
    cells with an open slot the candidates of label m whose image meets
    image, and undoing it restores the replaced ints.  Those conflicts are
    worked out once per (label, image) in the level, as (cell, bits kept)
    for the cells that lose a candidate.  At each node the open slot with
    the fewest fitting candidates is filled next, ties going to the
    earlier slot, by those candidates in arrival order; every one tried
    costs one unit of `tracker`, the search's budget.  Placed images are
    nonempty and disjoint within a label, so a node with more open slots
    than set bits left in the remaining capacity has no completion, and
    the search backs up from it at once: at the root that ends the level
    exhausted with no node spent.  With exact=True the capacity must be
    consumed entirely (equivalence); otherwise leftovers become the
    remainder of a <= certificate.  The backtracking keeps an
    explicit stack, so the slot count is not capped by Python's recursion
    limit.  The words, the cells' image words, the compiled levels and
    the chosen bisections come from the presentation's word table, built
    once.
    """
    slots = _family_slots(f1, level)
    index = {}  # cell -> its place in cells
    slot_cells = [index.setdefault(cell, len(index)) for _, cell in slots]
    arrivals, masks, leaves, leftovers = _compiled_level(pres, table, tuple(index), f2)
    fits = [(1 << len(found)) - 1 for found in arrivals]
    candidates = sum(len(arrivals[c]) for c in slot_cells)
    unfilled = [0] * len(arrivals)  # cell -> its open slots
    for c in slot_cells:
        unfilled[c] += 1
    conflicts = {}  # (m, image) -> [(cell, its bits that do not conflict)]

    def conflicts_of(m, image):
        found = conflicts[m, image] = []
        for c, arrival in enumerate(arrivals):
            meet, bit = 0, 1
            for _, n, other in arrival:
                if n == m and other & image:
                    meet |= bit
                bit <<= 1
            if meet:
                found.append((c, ~meet))
        return found

    remaining = dict(zip(f2.labels, masks))
    free = sum(mask.bit_count() for mask in remaining.values())  # set bits over remaining
    chosen = [None] * len(slots)

    def fewest_fitting():
        """The first open slot with the fewest candidates that still fit."""
        best, best_count = None, None
        for s, c in enumerate(slot_cells):
            if chosen[s] is None:
                count = fits[c].bit_count()
                if best is None or count < best_count:
                    best, best_count = s, count
                    if not count:
                        break
        return best

    # [slot, its fitting candidates not yet tried, what the slot's
    # placement replaced] down the path
    stack = []
    while True:
        if len(stack) < len(slots):
            # each open slot needs a nonempty image of its own, so a node
            # with more open slots than free bits has no completion: back up
            if len(slots) - len(stack) <= free:
                s = fewest_fitting()
                stack.append([s, fits[slot_cells[s]], ()])
        elif not (exact and free):
            status = "found"
            break
        # undo the deepest choice and move on to that slot's next candidate,
        # backing up past slots whose candidates are spent
        while stack:
            top = stack[-1]
            s, untried, replaced = top
            if chosen[s] is not None:
                _, m, image = chosen[s]
                remaining[m] |= image
                free += image.bit_count()
                chosen[s] = None
                unfilled[slot_cells[s]] += 1
                for c, old in replaced:
                    fits[c] = old
            if untried:
                break
            stack.pop()
        if not stack:
            status = "exhausted"
            break
        if not tracker.spend():
            status = "budget"
            break
        low = untried & -untried
        here = slot_cells[s]
        _, m, image = chosen[s] = arrivals[here][low.bit_length() - 1]
        remaining[m] ^= image
        free -= image.bit_count()
        unfilled[here] -= 1
        replaced = []
        if len(stack) < len(slots):  # a slot is still open
            found = conflicts.get((m, image))
            if found is None:
                found = conflicts_of(m, image)
            for c, keep in found:
                if unfilled[c]:
                    old = fits[c]
                    new = old & keep
                    if new != old:
                        fits[c] = new
                        replaced.append((c, old))
        top[1:] = untried ^ low, replaced

    stats = SearchStats(min(tracker.used, tracker.limit), tracker.limit, len(slots), candidates,
                        level)
    if status != "found":
        return SearchOutcome(None, status, stats), None
    space = pres.space
    bisections = table.bisections
    triples = []
    for (word, m, _), (label, cell) in zip(chosen, slots):
        bis = bisections.get((word, cell))
        if bis is None:
            bis = bisections[word, cell] = Bisection(pres, [(word, clopen(space, [cell]))])
        triples.append((bis, label, m))
    left = None
    if leftover:
        left = {}
        for m, mask in remaining.items():
            c = leftovers.get(mask)
            if c is None:
                # bit i of a mask is leaves[i]; reversed(bin(mask)) reads it bit 0 first
                c = leftovers[mask] = clopen(space, [w for w, b in zip(leaves, reversed(bin(mask)))
                                                     if b == "1"])
            left[m] = c
    return SearchOutcome(EquivCertificate(tuple(triples)), "found", stats), left


def search_equiv(pres, f1, f2, depth, budget=stone.DEFAULT_BUDGET):
    """Search an equivalence certificate over pieces of words up to depth.

    Deterministic; a hit is returned only once `verify_equiv` accepts it.
    A miss is never a proof of inequivalence.
    """
    outcome, _ = _search_tiling(pres, f1, f2, depth, budget, exact=True, leftover=False)
    if outcome.status == "found":
        res = verify_equiv(pres, f1, f2, outcome.certificate)
        if not res:
            raise stone.InternalError("search produced a non-verifying certificate: %s" % res.reason)
    return outcome


def search_leq(pres, f1, f2, depth, budget=stone.DEFAULT_BUDGET):
    """Search a certificate for f1 <= f2; leftovers become the remainder.

    The nonempty leftover of each label m of f2, in label order, is an
    entry of the remainder, which follows f1's labels on the left side and
    is matched onto its leftover by the identity, memoised in the word
    table with the search's other bisections.
    """
    outcome, leftover = _search_tiling(pres, f1, f2, depth, budget, exact=False)
    if outcome.status != "found":
        return outcome
    # the leftovers are canonical and one per label, so they are the
    # remainder's entries as they stand
    kept = [(m, c) for m, c in leftover.items() if c.cells]
    bisections = word_table(pres, depth).bisections
    rest = []
    for r, (m, c) in enumerate(kept, len(f1.entries) + 1):
        bis = bisections.get(((), c))
        if bis is None:
            bis = bisections[(), c] = identity_bisection(pres, c)
        rest.append((bis, r, m))
    remainder = LabeledFamily(pres.space, tuple(c for _, c in kept))
    triples = outcome.certificate.triples + tuple(rest)
    return SearchOutcome(LeqCertificate(remainder, EquivCertificate(triples)), "found", outcome.stats)


# ---------------------------------------------------------------------------
# order-unit and almost-unperforation probing

# The largest multiple n of x a probe tries for y <= n x.
PROBE_N_CAP = 4


class ProbeReport(Record):
    # almost_unperforation: None or a budget-relative counterexample dict
    __slots__ = ("depth", "seed", "order_unit", "almost_unperforation")


def _random_clopen(rng, space, depth):
    if space.kind == stone.FINITE:
        pts = [p for p in range(space.size) if rng.random() < 0.5]
        if not pts:
            pts = [rng.randrange(space.size)]
        return clopen(space, pts)
    d = rng.randint(1, max(depth, 1))
    cells = space.cells_at_depth(d)
    chosen = [c for c in cells if rng.random() < 0.4]
    if not chosen:
        chosen = [rng.choice(cells)]
    return clopen(space, chosen)


def probes(pres, depth, samples, seed, budget=stone.DEFAULT_BUDGET):
    """Draw `samples` pairs of clopens x, y from the seed; for each, search
    the least n <= PROBE_N_CAP with y <= n x, and, until one is found,
    an almost-unperforation counterexample: (n+1) x <= n y found, x <= y
    not.

    A search is deterministic in the presentation, the two families, the
    depth and the budget, and each spends a fresh budget, so a pair of
    families searched again reuses its outcome.  Every bound reported is
    certified: its certificate has passed `verify_leq`, and one that fails
    it is a fault of the program, which raises InternalError (exit 4).  So
    a bound's "certified" is always True; it stays because the report
    format, and the `search` benchmark workload's probe check, read it.

    A counterexample test searches x <= y first, and the larger premise
    (n+1) x <= n y only when x <= y is not found.  A counterexample needs
    both outcomes, whichever is searched first; each search is
    deterministic, and neither query is certified, so no report depends on
    the order.
    """
    # only the probes draw at random, so the searches of tarski and
    # dichotomy load no random
    import random

    outcomes = {}  # (entries of f1, entries of f2) -> the search_leq outcome
    certified = set()  # the keys of outcomes whose certificate verify_leq accepted

    def leq(f1, f2, certify=False):
        key = f1.entries, f2.entries
        out = outcomes.get(key)
        if out is None:
            out = outcomes[key] = search_leq(pres, f1, f2, depth, budget)
        if certify and out.status == "found" and key not in certified:
            res = verify_leq(pres, f1, f2, out.certificate)
            if not res:
                raise stone.InternalError("search produced a non-verifying certificate: %s"
                                          % res.reason)
            certified.add(key)
        return out

    rng = random.Random(seed)
    order_unit = []
    counterexample = None
    for _ in range(samples):
        x = _random_clopen(rng, pres.space, depth)
        y = _random_clopen(rng, pres.space, depth)
        fx, fy = family_of(x), family_of(y)
        least = None
        for n in range(1, PROBE_N_CAP + 1):
            if leq(fy, multiple(fx, n), certify=True).status == "found":
                least = {"n": n, "certified": True}
                break
        order_unit.append(
            {"x": list(x.cells), "y": list(y.cells), "bound": least}
        )
        if counterexample is None:
            n = rng.randint(1, 2)
            if (leq(fx, fy).status != "found"
                    and leq(multiple(fx, n + 1), multiple(fy, n)).status == "found"):
                counterexample = {
                    "x": list(x.cells),
                    "y": list(y.cells),
                    "n": n,
                    "label": "budget-relative: x <= y not found at this depth, not proven false",
                }
    return ProbeReport(depth, seed, tuple(order_unit), counterexample)
