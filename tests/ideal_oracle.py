"""The ideal correspondence check as it was before it read block products.

`orbits.ideal_lattice_check` tests two-sidedness and primeness on products
of whole orbit blocks.  This module keeps the arrow-by-arrow check that it
replaced, verbatim but for reading a product as `alg.products.get((i, j))`,
the body of the `FiniteAlgebra.product` method it used to call: each block
sum and each Xi image tested one arrow at a time, and the prime test over
every pair of block-sum ideals, 4^n of them for n orbits.  The tests
compare the two key for key.  The oracle's `theta_monotone` and
`theta_respects_meets` hold for any sets, so the check no longer reports
them.
"""

from itertools import combinations

from ample.orbits import (
    PrincipalityError,
    _require_finite,
    build_finite_algebra,
    invariant_lattice,
    is_principal,
    orbit_partition,
)


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
            for p in (alg.products.get((i, j)), alg.products.get((j, i))):
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
                p = alg.products.get((a, b))
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
