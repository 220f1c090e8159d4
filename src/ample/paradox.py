"""Paradoxical decompositions of clopen sets and their certificates.

A (k,l) witness for a clopen A consists of k rows of bisection pieces: the
domains in each row cover A, and the ranges, each tagged with a label
below l, sit pairwise disjointly inside A x {1..l}.  Witnesses convert to
and from certificates of k[A] <= l[A] in the type semigroup, can be
weakened to other (k',l') shapes, and are searched for as tilings of
k[A] into l[A] by the type semigroup's one search engine.

A failed search is reported as none-within-budget and never as a proof of
non-paradoxicality; definitive non-paradoxicality only ever comes from a
state certificate on the states side.
"""

from __future__ import annotations

from . import stone
from .stone import Record, clopen, empty
from .groupoid import Bisection, from_word
from . import typesemigroup as ts
from .typesemigroup import (
    EquivCertificate,
    LeqCertificate,
    SearchOutcome,
    VerifyResult,
    family_of,
    multiple,
)


class WitnessError(ValueError):
    pass


class ParadoxWitness(Record):
    # a: a Clopen; rows: k tuples of (Bisection, label in 1..l)
    __slots__ = ("a", "k", "l", "rows")

    def presentation(self):
        for row in self.rows:
            for bis, _ in row:
                return bis.pres
        raise WitnessError("witness has no pieces")


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


def witness_to_leq(pres, w):
    """The certificate k[A] <= l[A] read off a verifying witness."""
    res = verify_witness(pres, w)
    if not res:
        raise WitnessError("witness does not verify: %s" % res.reason)
    w = disjointify(pres, w)
    fam_a = family_of(w.a)
    taken = {m: empty(pres.space) for m in range(1, w.l + 1)}
    triples = []
    for i, row in enumerate(w.rows, start=1):
        for bis, m in row:
            triples.append((bis, i, m))
            taken[m] = taken[m].union(bis.ran())
    leftover = {m: w.a.difference(ran) for m, ran in taken.items()}
    remainder, rest = ts.leftover_remainder(pres, leftover, w.k)
    cert = LeqCertificate(remainder, EquivCertificate(tuple(triples) + rest))
    check = ts.verify_leq(pres, multiple(fam_a, w.k), multiple(fam_a, w.l), cert)
    if not check:
        raise WitnessError("internal: constructed certificate fails: %s" % check.reason)
    return cert


def leq_to_witness(pres, a, k, l, cert):
    """Rebuild a witness from a verifying certificate of k[A] <= l[A]."""
    if not (k > l >= 1):
        raise WitnessError("k <= l rejected: a paradox needs a genuine drop")
    fam_a = family_of(a)
    res = ts.verify_leq(pres, multiple(fam_a, k), multiple(fam_a, l), cert)
    if not res:
        raise WitnessError("certificate does not verify: %s" % res.reason)
    rows = [[] for _ in range(k)]
    for bis, n, m in cert.equivalence.triples:
        if bis.is_empty:
            continue
        if n <= k:
            rows[n - 1].append((bis, m))
    w = ParadoxWitness(a, k, l, tuple(tuple(r) for r in rows))
    check = verify_witness(pres, w)
    if not check:
        raise WitnessError("internal: rebuilt witness fails: %s" % check.reason)
    return w


def _leq_identity(pres, fam):
    return LeqCertificate(ts.LabeledFamily(pres.space, ()), ts.reflexive_cert(pres, fam))


def weaken(pres, w, k2, l2):
    """A (k2,l2) witness from a (k,l) one, for any k2 > l2 >= l.

    Runs the inequality chain in the type semigroup: iterate k[A] <= l[A]
    to push the left side arbitrarily high, pad both sides, and read the
    resulting certificate back as a witness.
    """
    if not (k2 > l2 >= w.l):
        raise WitnessError("invalid weakening targets (%r, %r)" % (k2, l2))
    k, l = w.k, w.l
    fam_a = family_of(w.a)
    base = witness_to_leq(pres, w)

    m = k2 - (l2 - l)
    cur_k = k
    cert = base  # cur_k [A] <= l [A]
    while cur_k < m:
        pad = multiple(fam_a, k - l)
        widened = ts.leq_add(pres, multiple(fam_a, cur_k), multiple(fam_a, l), cert,
                             pad, pad, _leq_identity(pres, pad))
        # (cur_k + k - l)[A] <= k[A] <= l[A]
        cert = ts.leq_transitive(pres, multiple(fam_a, cur_k + k - l),
                                 multiple(fam_a, k), multiple(fam_a, l), widened, base)
        cur_k += k - l
    if cur_k > m:
        drop = ts.leq_padding(pres, multiple(fam_a, m), multiple(fam_a, cur_k - m))
        cert = ts.leq_transitive(pres, multiple(fam_a, m), multiple(fam_a, cur_k),
                                 multiple(fam_a, l), drop, cert)
    if l2 > l:
        pad = multiple(fam_a, l2 - l)
        cert = ts.leq_add(pres, multiple(fam_a, m), multiple(fam_a, l), cert,
                          pad, pad, _leq_identity(pres, pad))
    return leq_to_witness(pres, w.a, k2, l2, cert)


def search_witness(pres, a, k, l, depth, budget=ts.DEFAULT_BUDGET):
    """Search a (k,l) witness as a tiling of k[A] into l[A].

    Row n of the witness is label n of k[A].  The one tiling engine,
    typesemigroup._search_tiling, covers each refinement cell of that label
    by a piece of a word up to depth whose range lands in A under a label
    of l[A].  The search is deterministic; none-within-budget is not a
    proof.
    """
    if not (k > l >= 1):
        raise WitnessError("need k > l >= 1")
    if a.is_empty:
        raise WitnessError("the decomposed set must be nonempty")
    fam_a = family_of(a)
    outcome, _ = ts._search_tiling(pres, multiple(fam_a, k), multiple(fam_a, l), depth, budget,
                                   exact=False)
    if outcome.status != "found":
        return outcome
    rows = [[] for _ in range(k)]
    for bis, n, m in outcome.certificate.triples:
        rows[n - 1].append((bis, m))
    w = ParadoxWitness(a, k, l, tuple(map(tuple, rows)))
    res = verify_witness(pres, w)
    if not res:
        raise WitnessError("internal: search produced a non-verifying witness: %s" % res.reason)
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
