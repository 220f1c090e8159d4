"""Invariant states on the type semigroup at depth truncations.

A depth-d system has one nonnegative rational unknown per depth-d cell,
the invariance equalities mu(dom) = mu(ran) for every atomic piece of
every enumerated word up to the depth, and the normalization mu(X) = 1.
Solving is exact rational LP; the outcome is either a state vector or a
Farkas certificate, and both re-verify by independent recomputation.

A depth-d state is a state of the truncated system only.  Reports always
carry the depth; nothing is claimed beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import simplex, stone
from .stone import clopen
from .groupoid import enumerate_bisections, word_str
from . import typesemigroup as ts
from . import paradox as px


class DepthError(ValueError):
    """A set or element is not expressible at the truncation depth."""


@dataclass(frozen=True)
class ConstraintSystem:
    pres: object
    depth: int
    cells: tuple
    equalities: tuple  # ((coefficients per cell), provenance string)
    partial: bool
    skipped: tuple

    def rows_rhs(self):
        rows = [list(coeffs) for coeffs, _ in self.equalities]
        rhs = [Fraction(0)] * len(rows)
        rows.append([Fraction(1)] * len(self.cells))
        rhs.append(Fraction(1))
        return rows, rhs


def _cell_vector(cells, index, clop, depth):
    vec = [0] * len(cells)
    for cell in clop.expand(depth):
        vec[index[cell]] += 1
    return vec


def build_constraints(pres, depth):
    """The invariance system of all enumerated word pieces at the depth.

    Pieces whose cylinders are deeper than the truncation cannot be
    expressed; they are skipped and the system is marked partial.
    """
    space = pres.space
    cells = tuple(space.cells_at_depth(depth))
    index = {c: i for i, c in enumerate(cells)}
    rows = []
    seen = set()
    skipped = []
    # generator pieces always enter the enumeration; at depth 0 they are
    # simply skipped as inexpressible and the system is marked partial
    for bis in enumerate_bisections(pres, max(depth, 1)).bisections:
        for _, piece, act in bis.pieces:
            for atom in act:
                if space.kind == stone.SHIFT:
                    s, a = atom
                    dom_part = clopen(space, [s]).intersect(piece.domain)
                    if dom_part.is_empty or s == a:
                        continue
                    ran_part = clopen(space, [a + c[len(s):] for c in dom_part.cells])
                    if dom_part.max_depth() > depth or ran_part.max_depth() > depth:
                        skipped.append("%s: piece %s->%s too deep" % (word_str(piece.word), s, a))
                        continue
                else:
                    s, a = atom
                    if s == a or s not in piece.domain.cells:
                        continue
                    dom_part = clopen(space, [s])
                    ran_part = clopen(space, [a])
                row = _cell_vector(cells, index, dom_part, depth)
                rvec = _cell_vector(cells, index, ran_part, depth)
                row = [d - r for d, r in zip(row, rvec)]
                if all(v == 0 for v in row):
                    continue
                canon = tuple(row)
                for v in row:
                    if v != 0:
                        if v < 0:
                            canon = tuple(-u for u in row)
                        break
                if canon in seen:
                    continue
                seen.add(canon)
                note = "%s: %s = %s" % (
                    word_str(piece.word),
                    list(dom_part.cells),
                    list(ran_part.cells),
                )
                rows.append((tuple(row), note))
    return ConstraintSystem(
        pres, depth, cells, tuple(rows), partial=bool(skipped), skipped=tuple(skipped)
    )


@dataclass(frozen=True)
class StateVector:
    depth: int
    cells: tuple
    values: tuple  # Fractions aligned with cells
    stats: simplex.Stats = field(default=None, compare=False)  # set by solve_state

    def value(self, cell):
        return self.values[self.cells.index(cell)]

    def as_dict(self):
        return dict(zip(self.cells, self.values))

    def evaluate_clopen(self, clop):
        if clop.space.kind == stone.SHIFT and clop.max_depth() > self.depth:
            raise DepthError("clopen %r deeper than state depth %d" % (list(clop.cells), self.depth))
        lookup = self.as_dict()
        return sum((lookup[c] for c in clop.expand(self.depth)), Fraction(0))


@dataclass(frozen=True)
class FarkasCertificate:
    equality_multipliers: tuple
    normalization_multiplier: Fraction
    stats: simplex.Stats = field(default=None, compare=False)  # set by solve_state


def solve_state(cs):
    """Exactly one of a StateVector or a FarkasCertificate, deterministic."""
    rows, rhs = cs.rows_rhs()
    res = simplex.solve_feasibility(rows, rhs)
    if isinstance(res, simplex.Infeasible):
        return FarkasCertificate(tuple(res.y[:-1]), res.y[-1], res.stats)
    return StateVector(cs.depth, cs.cells, tuple(res.x), res.stats)


def verify_state(cs, sv, check_normalization=True):
    """Exact recomputation of every constraint against the vector."""
    if sv.cells != cs.cells:
        return False
    if any(v < 0 for v in sv.values):
        return False
    for coeffs, _ in cs.equalities:
        if sum(c * v for c, v in zip(coeffs, sv.values)) != 0:
            return False
    if check_normalization and sum(sv.values) != 1:
        return False
    return True


def verify_farkas(cs, fc):
    rows, rhs = cs.rows_rhs()
    y = list(fc.equality_multipliers) + [fc.normalization_multiplier]
    return simplex.verify_farkas(rows, rhs, y)


def evaluate(sv, family):
    """The value of a state on a labeled family: the sum over its entries."""
    return sum((sv.evaluate_clopen(c) for c in family.entries), Fraction(0))


# ---------------------------------------------------------------------------
# the Tarski dichotomy at a truncation


@dataclass(frozen=True)
class TarskiReport:
    outcome: str  # state | paradox | inconclusive
    depth: int
    state: object = None
    scale: object = None
    witness: object = None
    farkas: object = None
    partial: bool = False
    note: str = ""
    stats: simplex.Stats = None  # of the state LP


def tarski_report(pres, a, depth, budget=100000, max_drop=3):
    """Decide, at the truncation, between an invariant state normalized on A
    and a paradoxical witness for A; both can never verify together."""
    if a.is_empty:
        raise ValueError("the queried set must be nonempty")
    eff_depth = depth
    if pres.space.kind == stone.SHIFT:
        eff_depth = max(depth, a.max_depth())
    cs = build_constraints(pres, eff_depth)
    rows, rhs = cs.rows_rhs()
    objective = [Fraction(0)] * len(cs.cells)
    lookup = {c: i for i, c in enumerate(cs.cells)}
    for cell in a.expand(eff_depth):
        objective[lookup[cell]] = Fraction(1)

    res = simplex.maximize(rows, rhs, objective)
    if isinstance(res, simplex.Infeasible):
        fc = FarkasCertificate(tuple(res.y[:-1]), res.y[-1])
        for n in range(1, max_drop + 1):
            found = px.search_witness(pres, a, n + 1, n, depth, budget)
            if found.status == "found":
                return TarskiReport(
                    "paradox", eff_depth, witness=found.certificate, farkas=fc, partial=cs.partial,
                    stats=res.stats,
                )
        return TarskiReport(
            "inconclusive", eff_depth, farkas=fc, partial=cs.partial,
            note="no invariant state at this depth; no witness within budget", stats=res.stats,
        )
    if res.value == 0:
        found = px.search_witness(pres, a, 2, 1, depth, budget)
        if found.status == "found":
            return TarskiReport(
                "paradox", eff_depth, witness=found.certificate, partial=cs.partial, stats=res.stats
            )
        return TarskiReport(
            "inconclusive", eff_depth, partial=cs.partial,
            note="a state exists but vanishes on the set at this depth", stats=res.stats,
        )
    scale = Fraction(1) / res.value
    sv = StateVector(cs.depth, cs.cells, tuple(v * scale for v in res.x))
    return TarskiReport("state", eff_depth, state=sv, scale=scale, partial=cs.partial, stats=res.stats)


# ---------------------------------------------------------------------------
# order-unit and almost-unperforation probing


@dataclass(frozen=True)
class ProbeReport:
    depth: int
    seed: int
    order_unit: tuple
    almost_unperforation: object  # None or a budget-relative counterexample dict


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


def probes(pres, depth, samples, seed, budget=20000, n_cap=4):
    rng = random.Random(seed)
    order_unit = []
    counterexample = None
    for _ in range(samples):
        x = _random_clopen(rng, pres.space, depth)
        y = _random_clopen(rng, pres.space, depth)
        fx, fy = ts.family_of(x), ts.family_of(y)
        least = None
        for n in range(1, n_cap + 1):
            out = ts.search_leq(pres, fy, ts.multiple(fx, n), depth, budget)
            if out.status == "found":
                ok = ts.verify_leq(pres, fy, ts.multiple(fx, n), out.certificate)
                least = {"n": n, "certified": bool(ok)}
                break
        order_unit.append(
            {"x": list(x.cells), "y": list(y.cells), "bound": least}
        )
        if counterexample is None:
            n = rng.randint(1, 2)
            big = ts.search_leq(
                pres, ts.multiple(fx, n + 1), ts.multiple(fy, n), depth, budget
            )
            if big.status == "found":
                small = ts.search_leq(pres, fx, fy, depth, budget)
                if small.status != "found":
                    counterexample = {
                        "x": list(x.cells),
                        "y": list(y.cells),
                        "n": n,
                        "label": "budget-relative: x <= y not found at this depth, not proven false",
                    }
    return ProbeReport(depth, seed, tuple(order_unit), counterexample)


def trace_from_state(sv):
    """The tracial functional tau(a) = sum mu(cell) E(a)(cell)."""
    from .convalg import TraceFunctional

    return TraceFunctional(sv)
