"""The type semigroup's certificate algebra and the weakening chain on it.

This is the long way from a (k,l) witness to a (k2,l2) one: convert the
witness to a certificate of k[A] <= l[A], iterate it with the generic
sum, padding and transitivity of <= certificates, and read the result
back as a witness.  `paradox.weaken` builds the same rows directly; the
tests keep this chain as its oracle and compare the two byte for byte.
"""

import image_oracle
from ample import paradox as px
from ample import typesemigroup as ts
from ample.groupoid import identity_bisection
from ample.stone import empty


def reflexive_cert(pres, fam):
    triples = [(identity_bisection(pres, fam.entry(i)), i, i) for i in fam.labels]
    return ts.EquivCertificate(tuple(triples))


def _require(pres, f1, f2, cert, side):
    res = ts.verify_equiv(pres, f1, f2, cert)
    if not res:
        raise ts.FamilyError("%s certificate does not verify: %s" % (side, res.reason))


def transitive_cert(pres, f1, f2, f3, c1, c2):
    """Compose certificates for f1 ~ f2 and f2 ~ f3 via common refinement."""
    _require(pres, f1, f2, c1, "left")
    _require(pres, f2, f3, c2, "right")
    triples = []
    for w1, n1, m1 in c1.triples:
        for w2, n2, m2 in c2.triples:
            if m1 != n2:
                continue
            middle = w1.ran().intersect(w2.dom())
            if middle.is_empty:
                continue
            triples.append((w2.restrict(middle).compose(w1.restrict_range(middle)), n1, m2))
    return ts.EquivCertificate(tuple(triples))


def sum_cert(pres, fa, fb, fc, fd, c1, c2):
    """From fa ~ fb and fc ~ fd, a certificate for fa+fc ~ fb+fd."""
    _require(pres, fa, fb, c1, "left")
    _require(pres, fc, fd, c2, "right")
    shift_n, shift_m = len(fa.entries), len(fb.entries)
    triples = list(c1.triples) + [(w, n + shift_n, m + shift_m) for w, n, m in c2.triples]
    return ts.EquivCertificate(tuple(triples))


def leq_padding(pres, f, extra):
    """f <= f + extra, witnessed by the extra itself."""
    return ts.LeqCertificate(extra, reflexive_cert(pres, ts.add(f, extra)))


def leq_identity(pres, fam):
    """f <= f with an empty remainder."""
    return ts.LeqCertificate(ts.LabeledFamily(pres.space, ()), reflexive_cert(pres, fam))


def leq_add(pres, fa, fb, c1, fc, fd, c2):
    """From fa <= fb and fc <= fd, a certificate for fa+fc <= fb+fd."""
    a, c = len(fa.entries), len(fc.entries)
    b = len(fb.entries)
    r1len = len(c1.remainder.entries)

    def left_label_1(n):
        return n if n <= a else n + c

    def left_label_2(n):
        return a + n if n <= c else a + c + r1len + (n - c)

    triples = [(w, left_label_1(n), m) for w, n, m in c1.equivalence.triples]
    triples += [(w, left_label_2(n), b + m) for w, n, m in c2.equivalence.triples]
    return ts.LeqCertificate(ts.add(c1.remainder, c2.remainder), ts.EquivCertificate(tuple(triples)))


def leq_transitive(pres, fx, fy, fz, c1, c2):
    """From fx <= fy and fy <= fz, a certificate for fx <= fz."""
    r1, r2 = c1.remainder, c2.remainder
    left = ts.add(ts.add(fx, r1), r2)
    step1 = sum_cert(pres, ts.add(fx, r1), fy, r2, r2, c1.equivalence, reflexive_cert(pres, r2))
    chain = transitive_cert(pres, left, ts.add(fy, r2), fz, step1, c2.equivalence)
    return ts.LeqCertificate(ts.add(r1, r2), chain)


def witness_to_leq(pres, w):
    """The certificate k[A] <= l[A] read off a verifying witness."""
    res = px.verify_witness(pres, w)
    if not res:
        raise px.WitnessError("witness does not verify: %s" % res.reason)
    w = px.disjointify(pres, w)
    taken = {m: empty(pres.space) for m in range(1, w.l + 1)}
    triples = []
    for i, row in enumerate(w.rows, start=1):
        for bis, m in row:
            triples.append((bis, i, m))
            taken[m] = taken[m].union(bis.ran())
    leftover = {m: w.a.difference(ran) for m, ran in taken.items()}
    remainder, rank = image_oracle.normalize_with_map(pres.space, [(leftover[m], m) for m in sorted(leftover)])
    triples += [(identity_bisection(pres, leftover[m]), w.k + rank[m], m)
                for m in sorted(leftover) if m in rank]
    return ts.LeqCertificate(remainder, ts.EquivCertificate(tuple(triples)))


def leq_to_witness(pres, a, k, l, cert):
    """Rebuild a witness from a verifying certificate of k[A] <= l[A]."""
    if not (k > l >= 1):
        raise px.WitnessError("k <= l rejected: a paradox needs a genuine drop")
    fam_a = ts.family_of(a)
    res = ts.verify_leq(pres, ts.multiple(fam_a, k), ts.multiple(fam_a, l), cert)
    if not res:
        raise px.WitnessError("certificate does not verify: %s" % res.reason)
    rows = [[] for _ in range(k)]
    for bis, n, m in cert.equivalence.triples:
        if n <= k and not bis.is_empty:
            rows[n - 1].append((bis, m))
    return px.ParadoxWitness(a, k, l, tuple(map(tuple, rows)))


def weaken(pres, w, k2, l2):
    """A (k2,l2) witness from a (k,l) one, for any k2 > l2 >= l, by the chain."""
    if not (k2 > l2 >= w.l):
        raise px.WitnessError("invalid weakening targets (%r, %r)" % (k2, l2))
    k, l = w.k, w.l
    fam_a = ts.family_of(w.a)
    base = witness_to_leq(pres, w)
    m = k2 - (l2 - l)
    cur_k = k
    cert = base  # cur_k [A] <= l [A]
    while cur_k < m:
        pad = ts.multiple(fam_a, k - l)
        widened = leq_add(pres, ts.multiple(fam_a, cur_k), ts.multiple(fam_a, l), cert,
                          pad, pad, leq_identity(pres, pad))
        # (cur_k + k - l)[A] <= k[A] <= l[A]
        cert = leq_transitive(pres, ts.multiple(fam_a, cur_k + k - l),
                              ts.multiple(fam_a, k), ts.multiple(fam_a, l), widened, base)
        cur_k += k - l
    if cur_k > m:
        drop = leq_padding(pres, ts.multiple(fam_a, m), ts.multiple(fam_a, cur_k - m))
        cert = leq_transitive(pres, ts.multiple(fam_a, m), ts.multiple(fam_a, cur_k),
                              ts.multiple(fam_a, l), drop, cert)
    if l2 > l:
        pad = ts.multiple(fam_a, l2 - l)
        cert = leq_add(pres, ts.multiple(fam_a, m), ts.multiple(fam_a, l), cert,
                       pad, pad, leq_identity(pres, pad))
    return leq_to_witness(pres, w.a, k2, l2, cert)
