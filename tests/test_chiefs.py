import itertools

import numpy as np
import pytest

from partialpi import _kernels
from partialpi.chiefs import (
    _class_closures,
    all_chief_series,
    chief_series_through,
    classify_factor,
    minimal_normal_subgroups,
    normal_subgroups,
    search_chains,
)
from partialpi.config import Caps
from partialpi.corpus import BUILTIN_ENTRIES
from partialpi.embedding import pi_series_through, satisfies_partial_cap, satisfies_partial_pi
from partialpi.errors import NotChief, NotNormal, SeriesCapExceeded
from partialpi.groupfile import build_directive
from partialpi.groups import (
    cyclic,
    elementary_abelian,
    subgroup_generated,
    symmetric,
)
from partialpi.perms import parse_cycles
from partialpi.structure import all_subgroups, p_solubility
from partialpi.chiefs import _prime_factors


def test_series_counts(groups):
    assert len(list(all_chief_series(groups["S3"]))) == 1
    assert len(list(all_chief_series(groups["V4"]))) == 3
    assert len(list(all_chief_series(groups["A5"]))) == 1  # simple
    s = next(all_chief_series(groups["S3"]))
    assert s.factor_orders() == (3, 2)


def test_normal_subgroups_are_normal(groups):
    for name in ("S4", "SL(2,3)", "S3xS3", "C2^4:C3"):
        G = groups[name]
        for N in normal_subgroups(G):
            assert N.is_normal()
        # every chief series term list is increasing and normal
        for series in itertools.islice(all_chief_series(G), 5):
            for a, b in zip(series.terms, series.terms[1:]):
                assert b.contains(a) and b.order > a.order


def test_jordan_hoelder_multiset(groups):
    for name in ("S4", "S3xS3", "C2^4:C3", "A4xC2", "C12", "SD16"):
        G = groups[name]
        mults = {tuple(sorted(s.factor_orders())) for s in all_chief_series(G)}
        assert len(mults) == 1, (name, mults)


def test_chief_series_through(groups):
    s4 = groups["S4"]
    v4 = minimal_normal_subgroups(s4)[0]
    through = list(chief_series_through(s4, v4))
    assert through and all(any(t == v4 for t in s.terms) for s in through)
    # through trivial = all
    allser = [s.terms for s in all_chief_series(s4)]
    assert [s.terms for s in chief_series_through(s4, s4.trivial_subgroup())] == allser
    # V4 ambient through one C2: exactly 1 series
    v4g = groups["V4"]
    c2 = v4g.subgroup([0, 1])
    assert c2.order == 2
    assert len(list(chief_series_through(v4g, c2))) == 1
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(NotNormal):
        list(chief_series_through(s4, c4))


def test_bottom_must_be_normal(groups):
    """A search or a climb starts at a normal subgroup of G: NotNormal for
    a non-normal C4 of S4 and for a normal subgroup of another group."""
    from partialpi.structure import hypercenter_u, o_p
    s4 = groups["S4"]
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    elsewhere = groups["A4"].as_subgroup()
    for bottom in (c4, elsewhere):
        with pytest.raises(NotNormal):
            next(search_chains(s4, bottom=bottom))
        with pytest.raises(NotNormal):
            satisfies_partial_pi(s4, c4, bottom=bottom)
        with pytest.raises(NotNormal):
            hypercenter_u(s4, bottom)
        with pytest.raises(NotNormal):
            o_p(s4, 2, bottom)
    # from a normal V4 the chains are the chief series of S4/V4 = S3
    v4 = minimal_normal_subgroups(s4)[0]
    chains = [s for s, _ in search_chains(s4, bottom=v4)]
    assert [s.factor_orders() for s in chains] == [(3, 2)]
    assert chains[0].terms[0] == v4


def test_union_of_through_equals_all(groups):
    for name in ("S4", "S3xS3", "C2^3"):
        G = groups[name]
        all_terms = {tuple(t.idx.tobytes() for t in s.terms)
                     for s in all_chief_series(G)}
        union = set()
        for N in normal_subgroups(G):
            union |= {tuple(t.idx.tobytes() for t in s.terms)
                      for s in chief_series_through(G, N)}
        assert union == all_terms


def test_p_soluble_factors_are_prime_powers(corpus):
    for name, G in corpus:
        for p in _prime_factors(G.order):
            if p_solubility(G, p)[0]:
                for o in next(all_chief_series(G)).factor_orders():
                    if o % p == 0:
                        assert len(_prime_factors(o)) == 1


def test_classify_factor(groups):
    s4 = groups["S4"]
    v4 = minimal_normal_subgroups(s4)[0]
    f = classify_factor(s4, s4.trivial_subgroup(), v4)
    assert (f.order, f.is_p_group, f.is_central) == (4, 2, False)
    s3 = groups["S3"]
    a3 = subgroup_generated(s3, [parse_cycles("(1 2 3)", 3)])
    # top factor of S3: derived subgroup is A3, so conjugation is trivial on
    # S3/A3 and the factor is central (order 2)
    f2 = classify_factor(s3, a3, s3.as_subgroup())
    assert (f2.order, f2.is_p_group, f2.is_central) == (2, 2, True)
    f3 = classify_factor(s3, s3.trivial_subgroup(), a3)
    assert (f3.order, f3.is_central) == (3, False)
    c2 = groups["C2"]
    f4 = classify_factor(c2, c2.trivial_subgroup(), c2.as_subgroup())
    assert f4.is_central
    with pytest.raises(NotChief):
        classify_factor(s4, s4.trivial_subgroup(), s4.as_subgroup())
    with pytest.raises(NotChief):
        classify_factor(s4, v4, s4.trivial_subgroup())
    # <(1,2)(3,4)> < V4 is a factor of order 2, but not between normal
    # subgroups of S4
    c2 = subgroup_generated(s4, [parse_cycles("(1 2)(3 4)", 4)])
    with pytest.raises(NotNormal):
        classify_factor(s4, c2, v4)
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(NotNormal):
        classify_factor(s4, v4, c4)


def test_class_closures_match_closure_per_class(corpus, monkeypatch):
    """The batched search gives, in class-representative order, the
    distinct closures that one ``closure_idx`` call per non-identity class
    gives, on every corpus group, S6 and C12; and it calls no
    ``closure_idx`` itself, which stays its reference."""
    extra = [("S6", symmetric(6)), ("C12", cyclic(12))]
    for name, G in itertools.chain(corpus, extra):
        reps = np.flatnonzero(G.class_reps == np.arange(G.order))[1:]
        per_class = dict.fromkeys(np.flatnonzero(_kernels.closure_idx(
            G.table, np.flatnonzero(G.class_reps == r).astype(np.int32)
        )).tobytes() for r in reps)
        closures = [c.tobytes() for c in _class_closures(G)]
        assert closures == list(per_class), name
    calls = 0
    kernel = _kernels.closure_idx

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)
    monkeypatch.setattr(_kernels, "closure_idx", counted)
    # C3^4 and C2^5 are abelian: every class is central. D8xD8 has 24
    # non-identity classes, C2^3xS3 has 23.
    for G in (elementary_abelian(3, 4), elementary_abelian(2, 5),
              build_directive("dp:dihedral:8xdihedral:8"),
              build_directive("dp:elemab:2:3xsym:3")):
        calls = 0
        normal_subgroups(G)
        assert calls == 0


def test_frattini_flag(groups):
    q8 = groups["Q8"]
    series = next(all_chief_series(q8))
    facts = series.factors(with_frattini=True)
    # Q8: 1 < Z < <i,Z>.. the first factor (the center, order 2) lies in Phi
    assert facts[0].is_frattini
    assert not facts[-1].is_frattini


def test_series_cap():
    big = elementary_abelian(2, 4)  # 315 chief series (complete flags)
    with pytest.raises(SeriesCapExceeded):
        list(all_chief_series(big, Caps(series=50)))


# Every search counts each complete chain, each pruned prefix and each skip
# of a dead child (a node from which no chain passed) against caps.series;
# chains skipped by a through-N filter are not counted.
_SEARCHES = {
    "all": lambda G, H, N, caps: len(list(all_chief_series(G, caps))),
    "through": lambda G, H, N, caps: len(list(chief_series_through(G, N, caps))),
    "pi": lambda G, H, N, caps: satisfies_partial_pi(G, H, caps)[0],
    "cap": lambda G, H, N, caps: satisfies_partial_cap(G, H, caps)[0],
    "pi-through": lambda G, H, N, caps: pi_series_through(G, H, N, 2, caps)[0],
}


@pytest.mark.parametrize("name, h_index, n_order, search, cap, result", [
    ("C2^3", 0, 1, "all", 21, 21),
    ("C2^3", 0, 2, "through", 3, 3),
    ("C2^3", 0, 4, "through", 3, 3),
    ("A4xC2", 2, 8, "pi", 2, False),
    ("A4xC2", 2, 8, "cap", 2, False),
    ("A4xC2", 3, 8, "pi", 2, True),
    ("A4xC2", 3, 8, "cap", 2, True),
    ("A4xC2", 3, 8, "pi-through", 2, True),
    ("C2^4:C3", 1, 16, "pi", 5, False),
    ("C2^4:C3", 1, 16, "cap", 5, False),
    ("C2^4:C3", 33, 16, "pi", 4, True),
    ("C2^4:C3", 33, 16, "cap", 4, True),
    ("C2^4:C3", 33, 16, "pi-through", 4, True),
    ("C2^4:C3", 35, 16, "pi", 3, True),
    ("C2^4:C3", 35, 16, "cap", 3, True),
    ("C2^4:C3", 35, 48, "pi-through", 3, True),
    ("C2^4:C3", 67, 16, "pi", 5, False),
])
def test_series_cap_threshold(name, h_index, n_order, search, cap, result):
    """The smallest caps.series at which each search returns, on a fresh
    group so that no cached verdict answers for it."""
    G = build_directive(dict(BUILTIN_ENTRIES)[name])
    H = all_subgroups(G).all[h_index]
    N = next(N for N in normal_subgroups(G) if N.order == n_order)
    run = _SEARCHES[search]
    with pytest.raises(SeriesCapExceeded):
        run(G, H, N, Caps(series=cap - 1))
    assert run(G, H, N, Caps(series=cap)) == result


@pytest.mark.parametrize("k, cap", [(3, 36), (4, 241), (5, 2078)])
def test_dead_nodes_expanded_once(k, cap):
    """On A4 x C2^k, H = <(1 2)(3 4)> lacks the property. A node from which
    no passing chain reaches G is expanded once per search, so the least
    caps.series that decides is pinned on fresh groups; re-expanding it for
    every chain that reaches it took 50, 751 and 23 282."""
    def run(series):
        G = build_directive(f"dp:alt:4xelemab:2:{k}")
        H = subgroup_generated(G, [parse_cycles("(1 2)(3 4)", G.degree)])
        return satisfies_partial_pi(G, H, Caps(series=series))[0]
    with pytest.raises(SeriesCapExceeded):
        run(cap - 1)
    assert run(cap) is False
