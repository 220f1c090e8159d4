"""The tiling search as it was before it kept fit sets: the oracle of the engine.

`typesemigroup._search_tiling` keeps, per refinement cell, an int bit set
of its candidates that still fit, caches the conflicts of each placement
within a level, and reuses the word table's words, cell images, compiled
levels and chosen bisections across the searches on one presentation and
depth.  This copy recounts every open slot's fitting candidates at every
node and builds everything afresh on each call, its word table included;
the tests compare the two on status, triples, stats and leftovers.  Both
step through the cell levels from the families' own depth to the finest;
`search_finest` searches the finest level alone, as the engine did before
it stepped through levels.  `probes` memoises its queries on top of the
engine; the tests check it against fresh searches as well.
"""

from ample import typesemigroup as ts
from ample.groupoid import Bisection, WordTable
from ample.stone import clopen


def search_tiling(pres, f1, f2, depth, budget, exact):
    """Tile the cells of f1 into f2 by pieces, level by level, coarse to
    fine, on one budget; returns (outcome, leftover)."""
    pieces, deepest = WordTable(pres, depth).pieces
    tracker = ts.SearchBudget(budget)
    first, last = (ts._cell_depth(pres, [f1, f2], d) for d in (0, deepest))
    for level in range(first, last + 1):
        outcome, left = search_level(pres, pieces, f1, f2, level, tracker, exact)
        if outcome.status != "exhausted":
            break
    return outcome, left


def search_finest(pres, f1, f2, depth, budget, exact):
    """Tile the cells of f1 into f2 at the finest level alone."""
    pieces, deepest = WordTable(pres, depth).pieces
    level = ts._cell_depth(pres, [f1, f2], deepest)
    return search_level(pres, pieces, f1, f2, level, ts.SearchBudget(budget), exact)


def search_level(pres, pieces, f1, f2, level, tracker, exact):
    """Tile the cells of f1 at depth `level` into f2 by pieces."""
    slots = ts._family_slots(f1, level)
    cells = list(dict.fromkeys(cell for _, cell in slots))
    options, masks, leaves = ts._compile_pieces(pres, pieces, cells, f2.entries, {}, {})
    fitting = {cell: [(word, m, image) for word, image in options[cell]
                      for m, mask in zip(f2.labels, masks) if image & mask == image]
               for cell in cells}
    candidates = [fitting[cell] for _, cell in slots]

    remaining = dict(zip(f2.labels, masks))
    free = sum(mask.bit_count() for mask in masks)  # set bits over remaining
    chosen = [None] * len(slots)

    def fewest_fitting():
        """The first open slot with the fewest candidates that still fit."""
        best, best_count = None, None
        for s, opts in enumerate(candidates):
            if chosen[s] is not None:
                continue
            count = 0
            for _, m, image in opts:
                if image & remaining[m] == image:
                    count += 1
                    if count == best_count:
                        break
            if best is None or count < best_count:
                best, best_count = s, count
                if not count:
                    break
        return best

    stack = []  # [slot, its candidates that fit on arrival, next to try] down the path
    while True:
        if len(stack) < len(slots):
            # more open slots than free bits: no completion
            if len(slots) - len(stack) <= free:
                s = fewest_fitting()
                stack.append([s, [c for c in candidates[s] if c[2] & remaining[c[1]] == c[2]], 0])
        elif not (exact and any(remaining.values())):
            status = "found"
            break
        while stack:
            s, opts, i = stack[-1]
            if chosen[s] is not None:
                _, m, image = chosen[s]
                remaining[m] |= image
                free += image.bit_count()
                chosen[s] = None
            if i < len(opts):
                break
            stack.pop()
        if not stack:
            status = "exhausted"
            break
        if not tracker.spend():
            status = "budget"
            break
        stack[-1][2] = i + 1
        chosen[s] = opts[i]
        remaining[opts[i][1]] ^= opts[i][2]
        free -= opts[i][2].bit_count()

    stats = ts.SearchStats(min(tracker.used, tracker.limit), tracker.limit, len(slots),
                           sum(map(len, candidates)), level)
    if status != "found":
        return ts.SearchOutcome(None, status, stats), None
    space = pres.space
    triples = tuple(
        (Bisection(pres, [(word, clopen(space, [cell]))]), label, m)
        for (word, m, _), (label, cell) in zip(chosen, slots)
    )
    left = {m: clopen(space, [w for w, b in zip(leaves, reversed(bin(mask))) if b == "1"])
            for m, mask in remaining.items()}
    return ts.SearchOutcome(ts.EquivCertificate(triples), "found", stats), left

