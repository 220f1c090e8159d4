"""Finite-model verification of the orbit and ideal correspondence.

For a finite principal presentation the groupoid is the equivalence
relation of its orbits, the algebra decomposes into one matrix summand
per orbit, and the two-sided ideals are exactly the sums of summands.
This module computes orbits, the lattice of invariant subsets, the finite
groupoid algebra with its matrix units, and checks that the unit-support
map and the ideal-generation map are mutually inverse lattice bijections,
with prime ideals matching quasi-orbits.
"""

from __future__ import annotations

from itertools import combinations

from . import stone
from .stone import Record
from .groupoid import PRINCIPAL, Table

# The most orbits whose invariant subsets are enumerated (2 ** n of them).
MAX_ORBITS = 12


class NotFiniteError(stone.InputError):
    pass


class PrincipalityError(ValueError):
    """The presentation's isotropy cannot be verified trivial."""


class OrbitLimit(ValueError):
    """More orbits than MAX_ORBITS: the invariant subsets are not enumerated."""


def _require_finite(pres):
    if pres.space.kind != stone.FINITE:
        raise NotFiniteError("orbit computations need a finite space")


class OrbitPartition(Record):
    # blocks: sorted tuples of points; block_of: point -> block index
    __slots__ = ("blocks", "block_of")

    @property
    def count(self):
        return len(self.blocks)


def orbit_partition(pres):
    _require_finite(pres)
    n = pres.space.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for act in pres.gen_actions:
        for s, t in act:
            parent[find(s)] = find(t)
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    blocks = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    return OrbitPartition(blocks, tuple(block_of))


def quasi_orbits(pres):
    """On a finite discrete space orbit closures are orbits, so the
    quasi-orbit space is the orbit set itself; returns the quotient map."""
    part = orbit_partition(pres)
    return part, part.block_of


def invariant_lattice(pres):
    """All invariant subsets: exactly the unions of orbits."""
    part = orbit_partition(pres)
    if part.count > MAX_ORBITS:
        raise OrbitLimit("too many orbits for lattice enumeration: %d > %d"
                         % (part.count, MAX_ORBITS))
    subsets = []
    for mask in range(1 << part.count):
        pts = []
        for i in range(part.count):
            if mask & (1 << i):
                pts.extend(part.blocks[i])
        subsets.append(tuple(sorted(pts)))
    subsets.sort(key=lambda s: (len(s), s))
    return InvariantLattice(part, tuple(subsets))


class InvariantLattice(Record):
    # orbits: an OrbitPartition
    __slots__ = ("orbits", "subsets")

    @property
    def size(self):
        return len(self.subsets)


def is_principal(pres):
    """'yes' or 'no' when decidable for the isotropy model, else 'unknown'."""
    _require_finite(pres)
    if pres.isotropy == PRINCIPAL or not pres.generators:
        return "yes"
    if isinstance(pres.isotropy, Table):
        table = pres.isotropy
        ident = table.identity()
        for e in range(table.size):
            if e == ident:
                continue
            for s, t in pres.element_action(e):
                if s == t:
                    return "no"
        return "yes"
    # free words: a fixed point of any nonempty word is isotropy
    for act in pres.gen_actions:
        for s, t in act:
            if s == t:
                return "no"
    return "unknown"


# ---------------------------------------------------------------------------
# the finite groupoid algebra


class FiniteAlgebra(Record):
    """Arrow basis of a finite principal groupoid with exact structure data."""

    # arrows: (src, tgt) pairs grouped by orbit; products: (i, j) -> k,
    # missing when the product vanishes
    __slots__ = ("arrows", "products")

    def product(self, i, j):
        return self.products.get((i, j))


def build_finite_algebra(pres):
    """The arrow basis and its product table.

    The groupoid is the equivalence relation of the orbits, so its arrows
    are the (src, tgt) pairs inside one orbit and their product is the
    composition of pairs: (s2 -> t2) then (t2 -> t1) is (s2 -> t1), the
    matrix-unit rule e_{t1 s1} e_{t2 s2} = [s1 == t2] e_{t1 s2}.  That rule
    is the definition of the table, and composition of pairs is associative
    by construction, so neither needs checking.
    """
    part = orbit_partition(pres)
    arrows = []
    for block in part.blocks:
        for s in block:
            for t in block:
                arrows.append((s, t))
    arrows = tuple(sorted(arrows))
    index = {a: i for i, a in enumerate(arrows)}
    products = {}
    for i, (s1, t1) in enumerate(arrows):
        for j, (s2, t2) in enumerate(arrows):
            # arrow j acts first: (s2 -> t2) then (s1 -> t1)
            if t2 == s1:
                products[(i, j)] = index[(s2, t1)]
    return FiniteAlgebra(arrows, products)


def _ideal_arrows(alg, orbit_blocks, block_subset):
    pts = set()
    for b in block_subset:
        pts.update(orbit_blocks[b])
    return frozenset(
        i for i, (s, t) in enumerate(alg.arrows) if s in pts and t in pts
    )


def _is_two_sided_ideal(alg, ideal):
    n = len(alg.arrows)
    for i in ideal:
        for j in range(n):
            for p in (alg.product(i, j), alg.product(j, i)):
                if p is not None and p not in ideal:
                    return False
    return True


def ideal_lattice_check(pres):
    """Build the finite algebra and verify the ideal correspondence.

    Refuses presentations whose isotropy cannot be verified trivial; for
    those the matrix decomposition argument does not apply.
    """
    _require_finite(pres)
    principal = is_principal(pres)
    if principal != "yes":
        raise PrincipalityError(
            "ideal lattice check needs a verified principal presentation (got %r)" % principal
        )
    part = orbit_partition(pres)
    lattice = invariant_lattice(pres)
    alg = build_finite_algebra(pres)

    report = {
        "points": pres.space.size,
        "orbits": [list(b) for b in part.blocks],
        "orbit_count": part.count,
        "arrow_count": len(alg.arrows),
    }

    # every block subset gives an ideal and these are pairwise distinct
    block_sets = []
    for mask in range(1 << part.count):
        block_sets.append(frozenset(i for i in range(part.count) if mask & (1 << i)))
    ideals = {}
    all_are_ideals = True
    for bs in block_sets:
        ideal = _ideal_arrows(alg, part.blocks, bs)
        if not _is_two_sided_ideal(alg, ideal):
            all_are_ideals = False
        ideals[bs] = ideal
    report["ideal_count"] = len(set(ideals.values()))
    report["ideal_count_is_power"] = len(set(ideals.values())) == 2 ** part.count
    report["all_block_sums_are_ideals"] = all_are_ideals

    # Theta: the open support of the unit-supported part of an ideal
    def theta(ideal):
        return tuple(sorted(s for i in ideal for (s, t) in [alg.arrows[i]] if s == t))

    # Xi: the ideal generated by functions on an invariant subset, which for
    # the finite model is the span of arrows with source inside it
    def xi(subset):
        pts = set(subset)
        return frozenset(i for i, (s, t) in enumerate(alg.arrows) if s in pts)

    xi_all_ideals = True
    theta_xi_identity = True
    bijection_table = []
    for subset in lattice.subsets:
        ideal = xi(subset)
        if not _is_two_sided_ideal(alg, ideal):
            xi_all_ideals = False
        if theta(ideal) != subset:
            theta_xi_identity = False
        bijection_table.append(
            {"invariant_subset": list(subset), "ideal_dimension": len(ideal)}
        )
    report["xi_images_are_ideals"] = xi_all_ideals
    report["theta_xi_is_identity"] = theta_xi_identity
    report["bijection_table"] = bijection_table

    # Theta is injective, inclusion preserving, and respects meets
    theta_values = {bs: theta(ideals[bs]) for bs in block_sets}
    report["theta_injective"] = len(set(theta_values.values())) == len(block_sets)
    monotone = True
    meets = True
    for a, b in combinations(block_sets, 2):
        ia, ib = ideals[a], ideals[b]
        if ia <= ib and not set(theta_values[a]) <= set(theta_values[b]):
            monotone = False
        if theta(ia & ib) != tuple(sorted(set(theta_values[a]) & set(theta_values[b]))):
            meets = False
    report["theta_monotone"] = monotone
    report["theta_respects_meets"] = meets
    report["theta_onto_invariant_lattice"] = set(theta_values.values()) == set(lattice.subsets)

    # primes: proper ideals I with JK inside I forcing J or K inside I
    def product_ideal(i1, i2):
        out = set()
        for a in i1:
            for b in i2:
                p = alg.product(a, b)
                if p is not None:
                    out.add(p)
        return frozenset(out)

    # each pair's product ideal, computed once for all candidate primes; the
    # 4^n products take at most 2^n values, so equal ones share one set
    distinct = {}
    pair_products = []
    for a in block_sets:
        for b in block_sets:
            p = product_ideal(ideals[a], ideals[b])
            pair_products.append((ideals[a], ideals[b], distinct.setdefault(p, p)))
    full = frozenset(range(len(alg.arrows)))
    primes = []
    for bs in block_sets:
        ideal = ideals[bs]
        if ideal == full:
            continue
        if all(ia <= ideal or ib <= ideal for ia, ib, p in pair_products if p <= ideal):
            primes.append(bs)
    report["prime_count"] = len(primes)
    report["primes_match_quasi_orbits"] = len(primes) == part.count
    expected_primes = {
        frozenset(range(part.count)) - {i} for i in range(part.count)
    }
    report["primes_are_orbit_complements"] = set(primes) == expected_primes

    checks = [
        "ideal_count_is_power",
        "all_block_sums_are_ideals",
        "xi_images_are_ideals",
        "theta_xi_is_identity",
        "theta_injective",
        "theta_monotone",
        "theta_respects_meets",
        "theta_onto_invariant_lattice",
        "primes_match_quasi_orbits",
        "primes_are_orbit_complements",
    ]
    report["passed"] = all(report[c] for c in checks)
    return report
