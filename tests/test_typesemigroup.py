import itertools
import random

import pytest

import leq_chain
from ample import cli
from ample import groupoid as gpd
from ample import stone
from ample import typesemigroup as ts
from ample.groupoid import cuntz, from_word, identity_bisection, pair_groupoid
from ample.stone import clopen, whole


C2 = cuntz(2)
X = whole(C2.space)
U1 = from_word(C2, ((0, 1),))
U2 = from_word(C2, ((1, 1),))


def fam(space, *pairs):
    return ts.normalize(space, list(pairs))


def test_add_shifts_labels():
    a = clopen(C2.space, ["1"])
    b = clopen(C2.space, ["2"])
    out = ts.add(fam(C2.space, (a, 1)), fam(C2.space, (b, 1)))
    assert out.entries == (a, b)


def test_normalize_drops_empty_and_compresses():
    a = clopen(C2.space, ["1"])
    out = ts.normalize(C2.space, [(clopen(C2.space, []), 1), (a, 5)])
    assert out.entries == (a,)


def test_add_neutral_element():
    f = fam(C2.space, (X, 1))
    assert ts.add(f, ts.LabeledFamily(C2.space, ())) == f


def test_normalize_merges_equal_labels():
    out = ts.normalize(C2.space, [(clopen(C2.space, ["1"]), 2), (clopen(C2.space, ["2"]), 2)])
    assert out.entries == (X,)


def test_verify_reflexive_identity():
    f = fam(C2.space, (clopen(C2.space, ["1"]), 1))
    cert = ts.EquivCertificate(((identity_bisection(C2, clopen(C2.space, ["1"])), 1, 1),))
    assert ts.verify_equiv(C2, f, f, cert).ok


def test_verify_cuntz_doubling_certificate():
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    cert = ts.EquivCertificate(((U1, 1, 1), (U2, 2, 1)))
    assert ts.verify_equiv(C2, f1, f2, cert).ok


def test_verify_rejects_overlapping_ranges():
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    cert = ts.EquivCertificate(((U1, 1, 1), (U1, 2, 1)))
    res = ts.verify_equiv(C2, f1, f2, cert)
    assert not res.ok
    assert "overlap" in res.reason


def test_verify_rejects_wrong_union():
    f1 = fam(C2.space, (X, 1))
    f2 = fam(C2.space, (X, 1))
    cert = ts.EquivCertificate(((from_word(C2, ((0, 1),), domain=clopen(C2.space, ["1"])), 1, 1),))
    res = ts.verify_equiv(C2, f1, f2, cert)
    assert not res.ok


def test_verify_rejects_families_over_the_wrong_space():
    f = fam(C2.space, (X, 1))
    c3 = cuntz(3)
    other = fam(c3.space, (whole(c3.space), 1))
    cert = ts.EquivCertificate(((identity_bisection(C2, X), 1, 1),))
    for f1, f2 in ((other, f), (f, other)):
        res = ts.verify_equiv(C2, f1, f2, cert)
        assert (res.ok, res.reason) == (False, "families over the wrong space")


def test_verify_rejects_a_triple_that_is_not_a_bisection_over_the_presentation():
    f = fam(C2.space, (X, 1))
    foreign = identity_bisection(cuntz(3), whole(cuntz(3).space))
    for w in (foreign, "not a bisection"):
        cert = ts.EquivCertificate(((identity_bisection(C2, X), 1, 1), (w, 1, 1)))
        res = ts.verify_equiv(C2, f, f, cert)
        assert (res.ok, res.reason) == (False, "triple 2 is not a bisection over this presentation")


@pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (-1, 1), (1, 1.0), ("1", 1), (None, 1)])
def test_verify_rejects_bad_labels(n, m):
    f = fam(C2.space, (X, 1))
    cert = ts.EquivCertificate(((identity_bisection(C2, X), n, m),))
    res = ts.verify_equiv(C2, f, f, cert)
    assert (res.ok, res.reason) == (False, "triple 1 has bad labels")


def test_certificate_algebra_transitive_of_reflexives():
    f = fam(C2.space, (X, 1))
    r = leq_chain.reflexive_cert(C2, f)
    out = leq_chain.transitive_cert(C2, f, f, f, r, r)
    assert ts.verify_equiv(C2, f, f, out).ok


def test_transitive_of_cuntz_certificates():
    # X + X ~ X and X ~ (1X split with 2X) composed through the middle
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    f3 = fam(C2.space, (clopen(C2.space, ["1"]), 1), (clopen(C2.space, ["2"]), 2))
    c1 = ts.EquivCertificate(((U1, 1, 1), (U2, 2, 1)))
    c2 = ts.EquivCertificate(
        ((identity_bisection(C2, clopen(C2.space, ["1"])), 1, 1),
         (identity_bisection(C2, clopen(C2.space, ["2"])), 1, 2))
    )
    assert ts.verify_equiv(C2, f2, f3, c2).ok
    out = leq_chain.transitive_cert(C2, f1, f2, f3, c1, c2)
    assert ts.verify_equiv(C2, f1, f3, out).ok


def test_sum_certificates():
    a = clopen(C2.space, ["1"])
    fa = fam(C2.space, (a, 1))
    r = leq_chain.reflexive_cert(C2, fa)
    c = leq_chain.sum_cert(C2, fa, fa, fa, fa, r, r)
    assert ts.verify_equiv(C2, ts.add(fa, fa), ts.add(fa, fa), c).ok


def test_certificate_algebra_rejects_bad_inputs():
    f1 = fam(C2.space, (X, 1))
    bad = ts.EquivCertificate(((U1, 1, 1),))
    with pytest.raises(ts.FamilyError):
        leq_chain.transitive_cert(C2, f1, f1, f1, bad, bad)


def test_search_reflexive_at_depth_zero():
    f = fam(C2.space, (clopen(C2.space, ["1"]), 1))
    out = ts.search_equiv(C2, f, f, 0)
    assert out.status == "found"
    assert ts.verify_equiv(C2, f, f, out.certificate).ok


def test_search_cuntz_doubling():
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    out = ts.search_equiv(C2, f1, f2, 1)
    assert out.status == "found"
    assert ts.verify_equiv(C2, f1, f2, out.certificate).ok


def test_search_pair_transposition():
    p2 = pair_groupoid(2)
    f0 = ts.family_of(clopen(p2.space, [0]))
    f1 = ts.family_of(clopen(p2.space, [1]))
    out = ts.search_equiv(p2, f0, f1, 1)
    assert out.status == "found"
    assert ts.verify_equiv(p2, f0, f1, out.certificate).ok


def test_search_budget_exhaustion_is_not_a_verdict():
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    out = ts.search_equiv(C2, f1, f2, 1, budget=1)
    assert out.status == "budget"
    assert out.certificate is None


def test_search_is_deterministic():
    f1 = fam(C2.space, (X, 1), (X, 2))
    f2 = fam(C2.space, (X, 1))
    a = ts.search_equiv(C2, f1, f2, 1)
    b = ts.search_equiv(C2, f1, f2, 1)
    assert a.certificate.triples == b.certificate.triples


def test_verify_leq_rejects_corrupted_remainder():
    a = clopen(C2.space, ["11"])
    b = clopen(C2.space, ["1"])
    good = ts.search_leq(C2, ts.family_of(a), ts.family_of(b), 0).certificate
    assert ts.verify_leq(C2, ts.family_of(a), ts.family_of(b), good).ok
    # corrupt: make the remainder overlap the embedded copy of A
    bad = ts.LeqCertificate(ts.family_of(a), good.equivalence)
    assert not ts.verify_leq(C2, ts.family_of(a), ts.family_of(b), bad).ok


def _random_family(rng, space, max_labels=2):
    pairs = []
    for label in range(1, rng.randint(1, max_labels) + 1):
        cells = [c for c in space.cells_at_depth(2 if space.kind == stone.SHIFT else 0) if rng.random() < 0.4]
        pairs.append((clopen(space, cells), label))
    return ts.normalize(space, pairs)


def test_add_commutative_up_to_equivalence():
    rng = random.Random(23)
    for _ in range(50):
        f = _random_family(rng, C2.space)
        g = _random_family(rng, C2.space)
        left, right = ts.add(f, g), ts.add(g, f)
        a, b = len(f.entries), len(g.entries)
        triples = [
            (identity_bisection(C2, f.entry(i)), i, b + i) for i in f.labels
        ] + [
            (identity_bisection(C2, g.entry(j)), a + j, j) for j in g.labels
        ]
        cert = ts.EquivCertificate(tuple(triples))
        assert ts.verify_equiv(C2, left, right, cert).ok
        # associativity is structural on canonical families
        h = _random_family(rng, C2.space)
        assert ts.add(ts.add(f, g), h) == ts.add(f, ts.add(g, h))


def test_search_soundness_fuzz():
    presentations = [pair_groupoid(2), pair_groupoid(3), C2]
    rng = random.Random(29)
    found = 0
    for i in range(500):
        pres = presentations[i % len(presentations)]
        f = _random_family(rng, pres.space)
        g = _random_family(rng, pres.space)
        out = ts.search_equiv(pres, f, g, 1, budget=3000)
        if out.status == "found":
            found += 1
            assert ts.verify_equiv(pres, f, g, out.certificate).ok
    assert found > 50  # the fuzz does exercise the positive path


# -- integer functions and the level-set homomorphism -------------------------
# A nonnegative integer function is a {cell: value} dict over disjoint cells,
# and rho sends it to the family of its level sets.


def _levels(space, f):
    """The level sets {f >= i} for i = 1 .. max f."""
    top = max(f.values(), default=0)
    return [clopen(space, [c for c, v in f.items() if v >= i]) for i in range(1, top + 1)]


def _rho(pres, f):
    return ts.normalize(pres.space, [(lvl, i) for i, lvl in enumerate(_levels(pres.space, f), 1)])


def _decomposition(space, decomp):
    return ts.normalize(space, [(c, i + 1) for i, c in enumerate(decomp)])


def test_rho_of_unit_is_whole_family():
    assert _rho(C2, {"": 1}) == ts.family_of(X)


def test_rho_faithful():
    rng = random.Random(31)
    assert _rho(C2, {}).is_empty
    for _ in range(50):
        cells = [c for c in C2.space.cells_at_depth(2) if rng.random() < 0.3]
        f = {c: rng.randint(1, 3) for c in cells}
        assert _rho(C2, f).is_empty == (not f)


def test_rho_welldef_certificate_example():
    # 1_X + 1_{1X} = 1_{1X} + 1_{1X} + 1_{2X}: identity pieces match the two
    one = clopen(C2.space, ["1"])
    two = clopen(C2.space, ["2"])
    f1 = _decomposition(C2.space, [X, one])
    f2 = _decomposition(C2.space, [one, one, two])
    out = ts.search_equiv(C2, f1, f2, 0)
    assert ts.verify_equiv(C2, f1, f2, out.certificate).ok


def test_rho_welldef_rejects_unequal_sums():
    # at depth 0 only identity pieces exist, and they keep multiplicities
    out = ts.search_equiv(C2, _decomposition(C2.space, [X]), _decomposition(C2.space, [X, X]), 0)
    assert out.status == "exhausted"


def test_rho_invariance_certificate():
    f = {"1": 1}
    pulled = {c: v for cell, v in f.items() for c in U1.preimage(clopen(C2.space, [cell])).cells}
    assert pulled == {"": 1}
    out = ts.search_equiv(C2, _rho(C2, f), _rho(C2, pulled), 1)
    assert ts.verify_equiv(C2, _rho(C2, f), _rho(C2, pulled), out.certificate).ok


def test_rho_additivity_random():
    rng = random.Random(37)
    for _ in range(40):
        cells = C2.space.cells_at_depth(2)
        f = {c: rng.randint(0, 2) for c in cells if rng.random() < 0.5}
        g = {c: rng.randint(0, 2) for c in cells if rng.random() < 0.5}
        total = dict(stone.sum_cells(C2.space, list(f.items()) + list(g.items())))
        out = ts.search_equiv(C2, _rho(C2, total), ts.add(_rho(C2, f), _rho(C2, g)), 0)
        assert ts.verify_equiv(
            C2,
            _rho(C2, total),
            ts.add(_rho(C2, f), _rho(C2, g)),
            out.certificate,
        ).ok


def test_multiple_is_the_repeated_sum():
    f = ts.normalize(C2.space, [(clopen(C2.space, ["1"]), 1), (X, 2)])
    assert ts.multiple(f, 3) == ts.add(ts.add(f, f), f)
    assert ts.multiple(f, 0).is_empty


def _unmemoised_probes(alias, depth, samples, seed, budget, conclusion_first=False):
    """`ts.probes` without its memo: each query a fresh `search_leq` on a
    fresh presentation, each certificate verified where it is found.  A
    counterexample test searches the premise (n+1) x <= n y first, then
    x <= y, or, with `conclusion_first`, x <= y first, then the premise.
    Returns the report and each query's families and outcome status, in
    order."""
    asked = []

    def leq(f1, f2):
        pres = gpd.builtin(alias)
        out = ts.search_leq(pres, f1, f2, depth, budget)
        asked.append(((f1.entries, f2.entries), out.status))
        return out, out.status == "found" and ts.verify_leq(pres, f1, f2, out.certificate).ok

    rng = random.Random(seed)
    space = gpd.builtin(alias).space
    order_unit, counterexample = [], None
    for _ in range(samples):
        x = ts._random_clopen(rng, space, depth)
        y = ts._random_clopen(rng, space, depth)
        fx, fy = ts.family_of(x), ts.family_of(y)
        least = None
        for n in range(1, ts.PROBE_N_CAP + 1):
            out, ok = leq(fy, ts.multiple(fx, n))
            if out.status == "found":
                least = {"n": n, "certified": ok}
                break
        order_unit.append({"x": list(x.cells), "y": list(y.cells), "bound": least})
        if counterexample is None:
            n = rng.randint(1, 2)
            tests = [lambda: leq(ts.multiple(fx, n + 1), ts.multiple(fy, n))[0].status == "found",
                     lambda: leq(fx, fy)[0].status != "found"]
            if all(test() for test in (tests[::-1] if conclusion_first else tests)):
                counterexample = {
                    "x": list(x.cells), "y": list(y.cells), "n": n,
                    "label": "budget-relative: x <= y not found at this depth, not proven false",
                }
    return ts.ProbeReport(depth, seed, tuple(order_unit), counterexample), asked


# (alias, depth, budget): between them their searches find, exhaust and
# run out of budget, and some pairs get no bound
PROBE_CASES = [("cuntz:2", 2, 2000), ("cuntz:3", 1, 2), ("rotation:3", 2, 30)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alias, depth, budget", PROBE_CASES)
def test_memoised_probes_match_the_unmemoised_oracle(monkeypatch, alias, depth, budget, seed):
    expected, _ = _unmemoised_probes(alias, depth, 20, seed, budget)
    _, asked = _unmemoised_probes(alias, depth, 20, seed, budget, conclusion_first=True)
    searched = []
    search = ts.search_leq

    def counted(pres, f1, f2, *args):
        searched.append((f1.entries, f2.entries))
        return search(pres, f1, f2, *args)

    monkeypatch.setattr(ts, "search_leq", counted)
    assert ts.probes(gpd.builtin(alias), depth, 20, seed, budget) == expected
    # each distinct query searched once, in the order first asked when
    # x <= y is searched before the premise
    assert searched == list(dict.fromkeys(key for key, _ in asked))


def test_the_probe_cases_repeat_queries_and_reach_every_outcome():
    keys, statuses, bounds = [], set(), set()
    for (alias, depth, budget), seed in itertools.product(PROBE_CASES, range(6)):
        rep, asked = _unmemoised_probes(alias, depth, 20, seed, budget)
        keys += [key for key, _ in asked]
        statuses.update(status for _, status in asked)
        bounds.update(r["bound"] is None for r in rep.order_unit)
    assert len(set(keys)) < len(keys)
    assert statuses == {"found", "exhausted", "budget"}
    assert bounds == {True, False}


def test_the_benchmark_probe_searches_49_queries_and_verifies_34(monkeypatch):
    # `probe cuntz:2 --depth 2 --seed 0 --samples 50` asks 100 queries (140
    # with the premise first); 49 are distinct and searched (88), and the
    # 50 bounds rest on 34 distinct certificates, each verified once; the
    # compiled levels of the searches meet 27 distinct sets of image words,
    # and build one `leaf_spans` frame for each (49 before frames were shared)
    _, asked = _unmemoised_probes("cuntz:2", 2, 50, 0, stone.DEFAULT_BUDGET, conclusion_first=True)
    assert len(asked) == 100
    calls = {"search_leq": 0, "verify_leq": 0, "leaf_spans": 0}
    for module, name in [(ts, "search_leq"), (ts, "verify_leq"), (stone, "leaf_spans")]:
        def counted(*args, name=name, call=getattr(module, name)):
            calls[name] += 1
            return call(*args)
        monkeypatch.setattr(module, name, counted)
    rep = ts.probes(gpd.builtin("cuntz:2"), 2, 50, 0)
    assert calls == {"search_leq": 49, "verify_leq": 34, "leaf_spans": 27}
    assert sum(r["bound"] is not None for r in rep.order_unit) == 50


# (alias, depth, budget, seed): with every premise found, the first sample
# whose x <= y is not found is the counterexample: sample 7 and sample 4 of 10
COUNTEREXAMPLE_CASES = [("rotation:3", 2, 30, 0), ("odometer", 2, 2000, 3)]


@pytest.mark.parametrize("alias, depth, budget, seed", COUNTEREXAMPLE_CASES)
def test_a_found_premise_with_x_below_y_not_found_is_the_counterexample(
        monkeypatch, capsys, alias, depth, budget, seed):
    search, draw = ts.search_leq, ts._random_clopen
    draws, searched = [], []  # the clopens drawn; (sample, families) of each search

    def premise_found(pres, f1, f2, *args):
        # a query whose left side has more labels than its right, as
        # (n+1) x <= n y has, is found with an empty certificate, which
        # verify_leq rejects, so it must never be certified; the order-unit
        # queries y <= n x and x <= y are searched
        searched.append(((len(draws) - 1) // 2, (f1.entries, f2.entries)))
        if len(f1.entries) > len(f2.entries):
            empty = ts.LeqCertificate(ts.multiple(f1, 0), ts.EquivCertificate(()))
            return ts.SearchOutcome(empty, "found")
        return search(pres, f1, f2, *args)

    def drawn(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(ts, "search_leq", premise_found)
    expected, _ = _unmemoised_probes(alias, depth, 10, seed, budget)
    assert expected.almost_unperforation is not None
    monkeypatch.setattr(ts, "_random_clopen", drawn)
    searched.clear()
    rep = ts.probes(gpd.builtin(alias), depth, 10, seed, budget)
    assert rep == expected
    # no counterexample query is searched after the sample that gave one
    found = rep.almost_unperforation
    pairs = list(zip(draws[::2], draws[1::2]))
    at = next(i for i, (x, y) in enumerate(pairs)
              if [list(x.cells), list(y.cells)] == [found["x"], found["y"]])
    assert 0 < at < 9
    for sample, key in searched:
        if sample > at:
            fx, fy = map(ts.family_of, pairs[sample])
            assert key in [(fy.entries, ts.multiple(fx, n).entries)
                           for n in range(1, ts.PROBE_N_CAP + 1)]
    assert cli.main(["--human", "probe", alias, "--depth", str(depth), "--seed", str(seed),
                     "--samples", "10", "--budget", str(budget)]) == 0
    assert "budget-relative counterexample: %s\n" % found in capsys.readouterr().out
