import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from partialpi.chiefs import _prime_factors, all_chief_series, minimal_normal_subgroups, normal_subgroups
from partialpi.embedding import (
    complement_family,
    evaluate_series,
    evaluate_series_by_quotients,
    is_complemented,
    pi_family,
    pi_series_through,
    satisfies_partial_cap,
    satisfies_partial_pi,
    satisfies_partial_pi_by_quotients,
)
from partialpi.config import Caps
from partialpi.errors import HypothesisViolated, SeriesCapExceeded
from partialpi.groupfile import build_directive
from partialpi.groups import (
    cyclic,
    elementary_abelian,
    lift_subgroup,
    quotient,
    subgroup_generated,
    symmetric,
)
from partialpi.perms import parse_cycles
from partialpi.structure import (
    _p_part,
    subgroups_in,
    subgroups_of_order_in,
    sylow,
    two_maximal_subgroups,
)


def test_definition_conformance_negative(groups):
    a4 = groups["A4"]
    H = subgroup_generated(a4, [parse_cycles("(1 2)(3 4)", 4)])
    ok, witness = satisfies_partial_pi(a4, H)
    assert not ok and witness is None
    series = next(all_chief_series(a4))
    rec = evaluate_series(a4, H, series)[0]
    assert rec.intersection_order == 2
    assert rec.normalizer_index == 3
    assert rec.prime_set == (2,)
    assert not rec.passed


def test_definition_conformance_positive(groups):
    s3 = groups["S3"]
    H = subgroup_generated(s3, [parse_cycles("(1 2)", 3)])
    ok, witness = satisfies_partial_pi(s3, H)
    assert ok
    assert witness.series.factor_orders() == (3, 2)
    assert witness.per_factor[0].intersection_order == 1
    assert witness.per_factor[1].intersection_order == 2
    assert witness.per_factor[1].normalizer_index == 1
    # witness invariant: every factor passed; index divides quotient order
    orders = [t.order for t in witness.series.terms]
    for rec in witness.per_factor:
        assert rec.passed
        assert (s3.order // orders[rec.factor_index]) % rec.normalizer_index == 0


def test_witness_series_is_chief(corpus):
    """Every emitted witness rides a genuine chief series."""
    from partialpi.chiefs import classify_factor
    for name in ("S3", "S4", "SL(2,3)", "C2^4:C3"):
        G = dict(iter(corpus))[name]
        ok, w = satisfies_partial_pi(G, sylow(G, 2))
        if not ok:
            continue
        terms = w.series.terms
        for below, above in zip(terms, terms[1:]):
            assert below.is_normal() and above.is_normal()
            classify_factor(G, below, above)  # raises NotChief if not chief


def test_monotone_sanity(corpus):
    for name, G in corpus:
        if G.order > 100:
            continue
        assert satisfies_partial_pi(G, G.trivial_subgroup())[0]
        assert satisfies_partial_pi(G, G.as_subgroup())[0]


def test_normal_subgroup_satisfies(groups):
    sl = groups["SL(2,3)"]
    z = sylow(sl, 2)
    from partialpi.groups import center
    zc = lift_subgroup(center(z.as_group()), sl)
    assert zc.order == 2
    assert satisfies_partial_pi(sl, zc)[0]
    for name in ("S4", "A4", "SL(2,3)"):
        G = groups[name]
        for N in normal_subgroups(G):
            assert satisfies_partial_pi(G, N)[0], (name, N.order)


def test_two_route_agreement_sample(groups):
    for name in ("S4", "SL(2,3)", "S3xS3"):
        G = groups[name]
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            for order in sorted({s for s in range(1, P.order + 1)
                                 if P.order % s == 0}):
                for H in subgroups_of_order_in(G, P, order):
                    fast = satisfies_partial_pi(G, H)[0]
                    slow = satisfies_partial_pi_by_quotients(G, H)[0]
                    assert fast == slow
                    for series in all_chief_series(G):
                        r1 = evaluate_series(G, H, series)
                        r2 = evaluate_series_by_quotients(G, H, series)
                        for a, b in zip(r1, r2):
                            assert (a.intersection_order, a.normalizer_index,
                                    a.passed) == (b.intersection_order,
                                                  b.normalizer_index, b.passed)


def test_partial_pi_series_cap_warm():
    """A cached verdict does not answer a call whose series cap forbids it."""
    s4 = symmetric(4)
    H = sylow(s4, 2)
    assert satisfies_partial_pi(s4, H)[0]
    with pytest.raises(SeriesCapExceeded):
        satisfies_partial_pi(s4, H, Caps(series=0))


def test_pi_family_stands_down_over_caps(groups):
    """The Pi family is None when the chief-factor DAG has more paths from
    1 to G than caps.series (C2^3 has 21 chief series) or when |P| exceeds
    caps.lattice, and is built at the caps themselves."""
    G = groups["C2^3"]
    P = sylow(G, 2)
    assert pi_family(G, P, Caps(series=20)) is None
    assert pi_family(G, P, Caps(series=21)) is not None
    assert pi_family(G, P, Caps(lattice=7)) is None
    assert pi_family(G, P, Caps(lattice=8)) is not None


def test_pi_family_edge_bound_on_c2_4():
    """C2^4 has 315 chief series but 240 chief factors, so a search read
    through ``next`` counts at most 241 prefixes: the family is built at
    caps.series = 241, not at 240, and there every search it replaces
    runs under the cap and agrees with it."""
    G = elementary_abelian(2, 4)
    P = G.as_subgroup()
    assert pi_family(G, P, Caps(series=240)) is None
    caps = Caps(series=241)
    family = pi_family(G, P, caps)
    for H in subgroups_in(G, P, caps).all:
        assert family.pi(H) == satisfies_partial_pi(G, H, caps)[0]
        assert family.cap(H) == satisfies_partial_cap(G, H, caps)[0]
        for N in normal_subgroups(G):
            assert family.pi(H, N) == satisfies_partial_pi(G, H, caps, N)[0]
            if N.contains(H) and family.pi(H):
                assert family.through(H, N) == pi_series_through(
                    G, H, N, 2, caps)[0]


def test_partial_cap(groups):
    a4 = groups["A4"]
    H = subgroup_generated(a4, [parse_cycles("(1 2)(3 4)", 4)])
    assert not satisfies_partial_cap(a4, H)[0]
    ok, w = satisfies_partial_cap(a4, a4.as_subgroup())
    assert ok and all(mode == "covers" for _, mode in w.per_factor)
    # normal subgroups are partial CAP
    for name in ("S4", "SL(2,3)", "C2^4:C3"):
        G = groups[name]
        for N in normal_subgroups(G):
            ok, w = satisfies_partial_cap(G, N)
            assert ok
            # witness modes match the recorded definition factorwise
            terms = w.series.terms
            for i, mode in w.per_factor:
                below, above = terms[i], terms[i + 1]
                hn = np.zeros(G.order, dtype=bool)
                hn[G.table[np.ix_(N.idx, below.idx)].ravel()] = True
                covers = not (above.mask & ~hn).any()
                avoids = not (N.mask & above.mask & ~below.mask).any()
                assert (mode == "covers") == covers or (covers and avoids)
                if mode == "avoids":
                    assert avoids and not covers


def test_is_complemented(groups):
    a4 = groups["A4"]
    v4 = minimal_normal_subgroups(a4)[0]
    ok, K = is_complemented(a4, v4)
    assert ok and K.order == 3
    c4 = cyclic(4)
    c2 = subgroup_generated(c4, [c4.perm(1) * c4.perm(1)])
    assert not is_complemented(c4, c2)[0]
    ok, K = is_complemented(a4, a4.trivial_subgroup())
    assert ok and K.order == 12
    ok, K = is_complemented(a4, a4.as_subgroup())
    assert ok and K.order == 1
    # complement really complements
    if ok:
        assert int((K.mask & a4.as_subgroup().mask).sum()) == K.order


def test_pi_series_through(groups):
    s3 = groups["S3"]
    a3 = subgroup_generated(s3, [parse_cycles("(1 2 3)", 3)])
    ok, w = pi_series_through(s3, a3, a3, 3)
    assert ok and any(t.order == 3 for t in w.series.terms)
    for rec in w.per_factor:
        assert _p_part(rec.normalizer_index, 3) == rec.normalizer_index
    # trivial H always works
    a4 = groups["A4"]
    v4 = minimal_normal_subgroups(a4)[0]
    assert pi_series_through(a4, a4.trivial_subgroup(), v4, 2)[0]
    # error paths
    h = subgroup_generated(a4, [parse_cycles("(1 2)(3 4)", 4)])
    with pytest.raises(HypothesisViolated):
        pi_series_through(a4, h, v4, 2)  # H fails the property
    with pytest.raises(HypothesisViolated):
        pi_series_through(s3, a3, a3, 2)  # not a 2-group
    c3 = sylow(a4, 3)
    with pytest.raises(HypothesisViolated):
        pi_series_through(a4, c3, v4, 3)  # H not inside N


def test_lemma_over_property(corpus):
    """Quotient persistence: property of H in G descends to HN/N in G/N when
    N <= H or gcd(|H|, |N|) = 1."""
    for name, G in corpus:
        if G.order > 60:
            continue
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            subs = subgroups_in(G, P).all
            for N in normal_subgroups(G):
                if N.order == G.order:
                    continue
                q = quotient(G, N)
                for H in subs:
                    if not (H.contains(N) or math.gcd(H.order, N.order) == 1):
                        continue
                    if satisfies_partial_pi(G, H)[0]:
                        assert satisfies_partial_pi(
                            q.target, q.push_subgroup(H))[0], (name, p)


def test_lemma_also_property(corpus):
    """|N| = |K| = p with N minimal normal: property of NK transfers to K."""
    for name, G in corpus:
        if G.order > 100:
            continue
        for p in _prime_factors(G.order):
            mins = [N for N in minimal_normal_subgroups(G) if N.order == p]
            if not mins:
                continue
            P = sylow(G, p)
            for N in mins:
                for K in subgroups_of_order_in(G, P, p):
                    mask = np.zeros(G.order, dtype=bool)
                    mask[G.table[np.ix_(N.idx, K.idx)].ravel()] = True
                    NK = G.subgroup_from_mask(mask)
                    if satisfies_partial_pi(G, NK)[0]:
                        assert satisfies_partial_pi(G, K)[0], (name, p)


def test_complement_family_needs_an_abelian_normal_sylow(groups):
    """The complement family stands only on an abelian normal Sylow
    subgroup: S4's D8 is not normal, Q8 is not abelian, and the central
    C4 of C3:C8 is normal and abelian but not a Sylow subgroup. In A4 the
    trivial subgroup and V4 are complemented, the three C2 are not."""
    for name, p in (("S4", 2), ("Q8", 2)):
        G = groups[name]
        with pytest.raises(HypothesisViolated):
            complement_family(G, sylow(G, p))
    G = groups["C3:C8"]
    four = next(N for N in normal_subgroups(G) if N.order == 4)
    with pytest.raises(HypothesisViolated):
        complement_family(G, four)
    family = complement_family(groups["A4"], sylow(groups["A4"], 2))
    assert [family[H] for H in subgroups_in(groups["A4"], sylow(
        groups["A4"], 2)).all] == [True, False, False, False, True]


def test_lemma_completed_equivalence_small(groups):
    """Property iff complemented, for subgroups of an elementary abelian
    normal Sylow subgroup (full corpus sweep lives in the acceptance suite)."""
    for name in ("A4", "C3^2:C2", "C2^4:C3"):
        G = groups[name]
        p = 2 if name != "C3^2:C2" else 3
        P = sylow(G, p)
        for order in sorted({s for s in range(1, P.order + 1)
                             if P.order % s == 0}):
            for H in subgroups_of_order_in(G, P, order):
                assert satisfies_partial_pi(G, H)[0] == \
                    is_complemented(G, H)[0], (name, H.order)


def test_lemma_two_property(corpus):
    """2-maximal subgroups of a normal Sylow subgroup: property => CAP."""
    for name, G in corpus:
        if G.order > 100:
            continue
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            from partialpi.structure import o_p
            if o_p(G, p).order != P.order:
                continue
            for H in two_maximal_subgroups(G, P):
                if satisfies_partial_pi(G, H)[0]:
                    assert satisfies_partial_cap(G, H)[0], (name, p)


def test_check_pi_request_leaves_no_reference_cycle():
    """With gc off, a check-pi pool group is freed as soon as G, H and the
    verdicts are dropped, after the Pi search, the CAP search and the
    quotient oracle: no value left in G's memo refers back to G."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
            / "check-pi-pool.json")
    pool = {g["name"]: g for g in
            json.loads(path.read_text(encoding="utf-8"))["groups"]}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("C3^4:C4", "D8xD8", "C2^5", "S4"):
            G = build_directive(pool[name]["directive"])
            request = [r for r in pool[name]["requests"]
                       if 1 < r["order"] < G.order][0]
            H = subgroup_generated(G, [parse_cycles(text, G.degree)
                                       for text in request["gens"]])
            results = [satisfies_partial_pi(G, H), satisfies_partial_cap(G, H),
                       satisfies_partial_pi_by_quotients(G, H)]
            verdicts = [r[0] for r in results]
            assert verdicts == [request["pi"], request["cap"], request["pi"]]
            alive = weakref.ref(G)
            del G, H, results
            assert alive() is None, name
    finally:
        if enabled:
            gc.enable()
