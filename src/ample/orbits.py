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


def ideal_lattice_check(pres):
    """Build the finite algebra and verify the ideal correspondence.

    Refuses presentations whose isotropy cannot be verified trivial; for
    those the matrix decomposition argument does not apply.

    Every arrow lies inside one orbit, so the block sums (the spans of the
    arrows of a set of orbits) are one candidate ideal per invariant subset,
    and Xi sends each invariant subset to its block sum.  Both tests read
    only the block products, taken in one pass over the table: prod[a][b]
    is the mask of the orbits that hold a product of an arrow of orbit a
    and one of orbit b.  A block sum I is two-sided iff prod[a][b] and
    prod[b][a] lie in I for every orbit a in I and every b.  The product JK
    of two block sums is the union of prod[a][b] over a in J and b in K, so
    a proper I is prime iff no two orbits a, b outside I have prod[a][b]
    inside I.
    """
    _require_finite(pres)
    principal = is_principal(pres)
    if principal != "yes":
        raise PrincipalityError(
            "ideal lattice check needs a verified principal presentation (got %r)" % principal
        )
    lattice = invariant_lattice(pres)
    part = lattice.orbits
    alg = build_finite_algebra(pres)
    n = part.count

    arrow_orbit = [part.block_of[s] for s, t in alg.arrows]
    sizes = [0] * n
    units = [[] for _ in range(n)]
    for (s, t), a in zip(alg.arrows, arrow_orbit):
        sizes[a] += 1
        if s == t:
            units[a].append(s)
    prod = [[0] * n for _ in range(n)]
    for (i, j), k in alg.products.items():
        prod[arrow_orbit[i]][arrow_orbit[j]] |= 1 << arrow_orbit[k]
    # the orbits that a two-sided block sum holding orbit a must hold
    reach = [0] * n
    for a in range(n):
        for b in range(n):
            reach[a] |= prod[a][b] | prod[b][a]

    report = {
        "points": pres.space.size,
        "orbits": [list(b) for b in part.blocks],
        "orbit_count": n,
        "arrow_count": len(alg.arrows),
    }

    # per block sum, by its mask of orbits: two-sided or not, its dimension,
    # and Theta of it, the points of its unit arrows
    full = (1 << n) - 1
    two_sided, dims, theta = [], [], []
    for mask in range(full + 1):
        inside = [a for a in range(n) if mask >> a & 1]
        two_sided.append(all(not reach[a] & ~mask for a in inside))
        dims.append(sum(sizes[a] for a in inside))
        theta.append(tuple(sorted(x for a in inside for x in units[a])))
    # the block sums are unions of disjoint blocks, so they are distinct
    # exactly when no block is empty
    report["ideal_count"] = 2 ** sum(1 for size in sizes if size)
    report["ideal_count_is_power"] = report["ideal_count"] == 2 ** n
    report["all_block_sums_are_ideals"] = all(two_sided)

    xi_all_ideals = True
    theta_xi_identity = True
    bijection_table = []
    for subset in lattice.subsets:
        mask = 0
        for x in subset:
            mask |= 1 << part.block_of[x]
        xi_all_ideals = xi_all_ideals and two_sided[mask]
        theta_xi_identity = theta_xi_identity and theta[mask] == subset
        bijection_table.append({"invariant_subset": list(subset), "ideal_dimension": dims[mask]})
    report["xi_images_are_ideals"] = xi_all_ideals
    report["theta_xi_is_identity"] = theta_xi_identity
    report["bijection_table"] = bijection_table
    report["theta_injective"] = len(set(theta)) == full + 1
    report["theta_onto_invariant_lattice"] = set(theta) == set(lattice.subsets)

    primes = set()
    for mask in range(full):
        outside = [a for a in range(n) if not mask >> a & 1]
        if all(prod[a][b] & ~mask for a in outside for b in outside):
            primes.add(mask)
    report["prime_count"] = len(primes)
    report["primes_match_quasi_orbits"] = len(primes) == n
    report["primes_are_orbit_complements"] = primes == {full & ~(1 << a) for a in range(n)}

    checks = [
        "ideal_count_is_power",
        "all_block_sums_are_ideals",
        "xi_images_are_ideals",
        "theta_xi_is_identity",
        "theta_injective",
        "theta_onto_invariant_lattice",
        "primes_match_quasi_orbits",
        "primes_are_orbit_complements",
    ]
    report["passed"] = all(report[c] for c in checks)
    return report
