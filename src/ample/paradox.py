"""Paradoxical decompositions of clopen sets and their certificates.

A (k,l) witness for a clopen A consists of k rows of bisection pieces: the
domains in each row cover A, and the ranges, each tagged with a label
below l, sit pairwise disjointly inside A x {1..l}: in the type
semigroup, k[A] <= l[A].  Witnesses are searched for as tilings of k[A]
into l[A] by the type semigroup's one search engine, and weakened to
other (k',l') shapes by composing their rows.

A failed search is reported as none-within-budget and never as a proof of
non-paradoxicality; definitive non-paradoxicality only ever comes from a
state certificate on the states side.
"""

from __future__ import annotations

from . import stone
from .stone import Record, clopen, empty
from .groupoid import Bisection, from_word, identity_bisection
from . import typesemigroup as ts
from .typesemigroup import SearchOutcome, VerifyResult, family_of, multiple


class WitnessError(stone.InputError):
    pass


class ParadoxWitness(Record):
    # a: a Clopen; rows: k tuples of (Bisection, label in 1..l)
    __slots__ = ("a", "k", "l", "rows")


def verify_witness(pres, w):
    """Check both defining conditions exactly; rejection carries a reason."""
    if not (isinstance(w.k, int) and isinstance(w.l, int) and w.k > w.l >= 1):
        return VerifyResult(False, "need k > l >= 1, got (%r, %r)" % (w.k, w.l))
    if w.a.space != pres.space:
        return VerifyResult(False, "witness set over the wrong space")
    if w.a.is_empty:
        return VerifyResult(False, "the decomposed set must be nonempty")
    if len(w.rows) != w.k:
        return VerifyResult(False, "expected %d rows, got %d" % (w.k, len(w.rows)))
    for i, row in enumerate(w.rows, start=1):
        for bis, m in row:
            if not isinstance(bis, Bisection) or bis.pres != pres:
                return VerifyResult(False, "row %d has a piece over another presentation" % i)
            if not (isinstance(m, int) and 1 <= m <= w.l):
                return VerifyResult(False, "row %d has target label %r outside 1..%d" % (i, m, w.l))
    for i, row in enumerate(w.rows, start=1):
        covered = empty(pres.space)
        for bis, _ in row:
            covered = covered.union(bis.dom())
        if covered != w.a:
            return VerifyResult(False, "row %d domains cover %s, not A" % (i, list(covered.cells)))
    taken = {m: empty(pres.space) for m in range(1, w.l + 1)}
    for i, row in enumerate(w.rows, start=1):
        for j, (bis, m) in enumerate(row, start=1):
            ran = bis.ran()
            if not ran.subset_of(w.a):
                return VerifyResult(False, "range of piece (%d,%d) escapes A" % (i, j))
            if not ran.disjoint_from(taken[m]):
                return VerifyResult(False, "ranges overlap at label %d (piece (%d,%d))" % (m, i, j))
            taken[m] = taken[m].union(ran)
    return VerifyResult(True)


def disjointify(pres, w):
    """Make each row's domains pairwise disjoint by trimming later pieces."""
    rows = []
    for row in w.rows:
        seen = empty(pres.space)
        out = []
        for bis, m in row:
            dom = bis.dom()
            rest = dom.difference(seen)
            # a piece that misses every earlier one is kept as it is
            cut = bis if rest == dom else bis.restrict(rest)
            seen = seen.union(dom)
            if not cut.is_empty:
                out.append((cut, m))
        rows.append(tuple(out))
    return ParadoxWitness(w.a, w.k, w.l, tuple(rows))


def weaken(pres, w, k2, l2):
    """A (k2,l2) witness from a (k,l) one, for any k2 > l2 >= l.

    The rows compose directly what k[A] <= l[A] gives in the type
    semigroup.  While there are n < m = k2 - (l2 - l) rows, add k - l
    identity rows sent to labels l+1..k, and route every piece with label
    j through row j of the witness: (n + k - l)[A] <= k[A] <= l[A].  Then
    keep the first m rows and add l2 - l identity rows sent to labels
    l+1..l2.
    """
    if not (k2 > l2 >= w.l):
        raise WitnessError("invalid weakening targets (%r, %r)" % (k2, l2))
    res = verify_witness(pres, w)
    if not res:
        raise WitnessError("witness does not verify: %s" % res.reason)
    base = disjointify(pres, w).rows
    k, l = w.k, w.l
    ident = identity_bisection(pres, w.a)

    def route(row):
        out = []
        for p, j in row:
            ran = p.ran()
            for q, n in base[j - 1]:
                mid = ran.intersect(q.dom())
                if not mid.is_empty:
                    out.append((q.restrict(mid).compose(p.restrict_range(mid)), n))
        return tuple(out)

    m = k2 - (l2 - l)
    rows = base
    while len(rows) < m:
        rows = tuple(map(route, rows + tuple(((ident, j),) for j in range(l + 1, k + 1))))
    rows = rows[:m] + tuple(((ident, j),) for j in range(l + 1, l2 + 1))
    out = ParadoxWitness(w.a, k2, l2, rows)
    res = verify_witness(pres, out)
    if not res:
        raise stone.InternalError("weakening produced a non-verifying witness: %s" % res.reason)
    return out


def search_witness(pres, a, k, l, depth, budget=stone.DEFAULT_BUDGET):
    """Search a (k,l) witness as a tiling of k[A] into l[A].

    Row n of the witness is label n of k[A].  The one tiling engine,
    typesemigroup._search_tiling, covers each refinement cell of that label
    by a piece of a word up to depth whose range lands in A under a label
    of l[A], at the coarsest cell level that finds.  The search is
    deterministic; none-within-budget is not a proof.
    """
    if not (k > l >= 1):
        raise WitnessError("need k > l >= 1")
    if a.is_empty:
        raise WitnessError("the decomposed set must be nonempty")
    fam_a = family_of(a)
    outcome, _ = ts._search_tiling(pres, multiple(fam_a, k), multiple(fam_a, l), depth, budget,
                                   exact=False, leftover=False)
    if outcome.status != "found":
        return outcome
    rows = [[] for _ in range(k)]
    for bis, n, m in outcome.certificate.triples:
        rows[n - 1].append((bis, m))
    w = ParadoxWitness(a, k, l, tuple(map(tuple, rows)))
    res = verify_witness(pres, w)
    if not res:
        raise stone.InternalError("search produced a non-verifying witness: %s" % res.reason)
    return SearchOutcome(w, "found", outcome.stats)


def cuntz_witness(pres, alpha, k=2):
    """The standard witness on a cylinder: route alpha-X onto alpha-i-X.

    Row i uses the single bisection sending alpha+w to alpha+i+w, whose
    domain is the cylinder of alpha and whose range is the cylinder of
    alpha+i; the ranges are pairwise disjoint inside the cylinder.
    """
    n = pres.space.size
    if pres.space.kind != stone.SHIFT or k > n:
        raise WitnessError("need a shift presentation with alphabet size >= k")
    a = clopen(pres.space, [alpha])
    rows = []
    for i in range(1, k + 1):
        beta = alpha + str(i)
        word = tuple((int(ch) - 1, 1) for ch in beta) + tuple(
            (int(ch) - 1, -1) for ch in reversed(alpha)
        )
        bis = from_word(pres, word, domain=a)
        rows.append(((bis, 1),))
    return ParadoxWitness(a, k, 1, tuple(rows))
