import gc
import inspect

import numpy as np
import pytest

from partialpi import _kernels, chiefs, embedding, structure, theorems
from partialpi import groups as groups_module
from partialpi.chiefs import _prime_factors, normal_subgroups
from partialpi.config import Caps, DEFAULT_CAPS
from partialpi.corpus import builtin_corpus
from partialpi.embedding import is_complemented
from partialpi.errors import LatticeCapExceeded, NoHallSubgroup, NotPSoluble
from partialpi.groupfile import build_directive
from partialpi.groups import (
    Group,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    general_linear_3_2,
    is_isomorphic,
    lift_subgroup,
    normalizer,
    symmetric,
)
from partialpi.perms import _DTYPE
from partialpi.structure import (
    _frattini_in,
    all_subgroups,
    exponent,
    frattini,
    hall,
    hypercenter_u,
    hypercenter_up,
    is_quaternion_free,
    o_p,
    o_p_prime,
    omega,
    p_rank,
    p_solubility,
    p_supersoluble,
    socle_and_minimal_normals,
    structure_facts,
    subgroups_in,
    supersoluble,
    sylow,
    two_maximal_subgroups,
)
from partialpi.theorems import (
    all_of_order_complemented,
    all_of_order_satisfy_pi,
    cyclic_order4_satisfy_pi,
)


def test_lattice_counts(groups):
    assert len(all_subgroups(groups["V4"])) == 5
    assert len(all_subgroups(groups["S3"])) == 6
    assert len(all_subgroups(groups["C1"])) == 1
    assert len(all_subgroups(groups["S4"])) == 30
    assert len(all_subgroups(groups["A5"])) == 59
    assert len(all_subgroups(groups["Q8"])) == 6


def test_p_group_lattice_takes_no_closure(monkeypatch):
    """The lattice of a p-group is walked up by cosets of normal
    subgroups, so C2^6 (2 825 subgroups, all normal) needs no closure."""
    calls = 0
    kernel = _kernels.closure_idx

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)
    c2_6 = elementary_abelian(2, 6)
    monkeypatch.setattr(_kernels, "closure_idx", counted)
    lattice = all_subgroups(c2_6)
    assert (len(lattice), len(lattice.normal)) == (2825, 2825)
    assert calls == 0


def test_lattice_cap():
    with pytest.raises(LatticeCapExceeded):
        all_subgroups(symmetric(4), Caps(lattice=10))


@pytest.mark.parametrize("build, call, lattice", [
    pytest.param(lambda: symmetric(4), all_subgroups, 10, id="all_subgroups"),
    # A5 x C2 is not soluble and its Fitting subgroup is C2, so its
    # Frattini subgroup comes from the lattice
    pytest.param(lambda: build_directive("dp:alt:5xcyclic:2"), frattini, 10,
                 id="frattini"),
    pytest.param(lambda: dihedral(16), is_quaternion_free, 4,
                 id="is_quaternion_free"),
    pytest.param(lambda: symmetric(4), lambda G, caps: all_of_order_satisfy_pi(
        G, sylow(G, 2), 2, caps), 4, id="all_of_order_satisfy_pi"),
    pytest.param(lambda: symmetric(4), lambda G, caps: cyclic_order4_satisfy_pi(
        G, sylow(G, 2), caps), 4, id="cyclic_order4_satisfy_pi"),
    # the complement family needs an abelian normal Sylow subgroup
    pytest.param(lambda: alternating(4), lambda G, caps: all_of_order_complemented(
        G, sylow(G, 2), 2, caps), 2, id="all_of_order_complemented"),
])
def test_lattice_cap_warm(build, call, lattice):
    """A cached value does not answer a call whose lattice cap forbids it:
    a tight call raises cold, and raises again after a default call."""
    G = build()
    tight = Caps(lattice=lattice)
    with pytest.raises(LatticeCapExceeded):
        call(G, tight)
    call(G, DEFAULT_CAPS)
    with pytest.raises(LatticeCapExceeded):
        call(G, tight)


def test_soluble_routes_build_no_lattice_of_g():
    """Phi(G), Hall subgroups and complements in a normal Sylow subgroup of
    a soluble G come without the subgroup lattice of G."""
    G = builtin_corpus().group("C3^4:C4")
    assert frattini(G).order == 1
    assert hall(G, {2}).order == 4 and hall(G, {3}).order == 81
    assert is_complemented(G, sylow(G, 3))[0]
    assert "lattice" not in G._cache


def test_memo_keys_read_by_tracer():
    """perfbench/tracer.py counts lattice and normal-subgroup builds by
    looking for these keys, and wraps the memoised public functions."""
    s4 = symmetric(4)
    lattice, normals = all_subgroups(s4), normal_subgroups(s4)
    assert "lattice" in s4._cache and "normals" in s4._cache
    assert all_subgroups(s4) is lattice and normal_subgroups(s4) is normals
    assert frattini(s4) is frattini(s4, DEFAULT_CAPS)
    for module, name in [(structure, "all_subgroups"), (structure, "frattini"),
                         (structure, "sylow"), (chiefs, "normal_subgroups"),
                         (groups_module, "quotient"),
                         (embedding, "satisfies_partial_pi"),
                         (theorems, "all_of_order_satisfy_pi")]:
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_subgroups_in_whole_is_all_subgroups():
    """subgroups_in(G, G) is G's own memoised lattice, for a p-group too."""
    for G in (symmetric(4), dihedral(16)):
        assert subgroups_in(G, G.as_subgroup()) is all_subgroups(G)


def test_lift_subgroup_by_element_set():
    """Lifting by element set: from a separately built equal group, and
    through two levels of standalone subgroup groups."""
    s4, other = symmetric(4), symmetric(4)
    direct = sylow(s4, 2)
    assert lift_subgroup(sylow(other, 2), s4) == direct
    d8 = direct.as_group()
    for four in all_subgroups(d8).of_order(4):
        four_group = four.as_group()
        for s in all_subgroups(four_group).of_order(2):
            lifted = lift_subgroup(s, s4)
            assert lifted == lift_subgroup(lift_subgroup(s, d8), s4)
            assert lifted in all_subgroups(s4).of_order(2)


def test_lattice_invariants(groups):
    for name in ("S4", "SL(2,3)", "A4", "D16"):
        G = groups[name]
        lat = all_subgroups(G)
        seen = {s.idx.tobytes() for s in lat.all}
        assert G.trivial_subgroup().idx.tobytes() in seen
        assert G.as_subgroup().idx.tobytes() in seen
        for i, s in enumerate(lat.all):
            assert G.order % s.order == 0  # Lagrange
            # conjugation closure and normal-flag agreement
            assert lat.is_normal_flag(i) == s.is_normal()
            for g in range(G.order):
                assert s.conjugate_by_index(g).idx.tobytes() in seen


def test_maximal_subgroups(groups):
    lat = all_subgroups(groups["S4"])
    # maximal subgroups of S4: A4 (1), S3 (4), D8 (3)
    maxs = lat.maximal_subgroups()
    assert sorted(m.order for m in maxs) == [6, 6, 6, 6, 8, 8, 8, 12]


def test_sylow(groups):
    assert sylow(groups["S4"], 2).order == 8
    assert sylow(groups["S3"], 5).order == 1
    syl = sylow(groups["SL(2,3)"], 2)
    assert syl.order == 8
    assert is_isomorphic(syl.as_group(), dicyclic(8))


def test_sylow_count_congruence(corpus):
    """n_p = 1 mod p, and hall(G, {p}) is sylow(G, p) on every corpus
    group: the same object when G is not a p-group."""
    cases = 0
    for name, G in corpus:
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            assert hall(G, {p}).idx.tobytes() == P.idx.tobytes(), (name, p)
            if P.order < G.order:
                assert hall(G, {p}) is P, (name, p)
            cases += 1
            if G.order <= 100:
                count = G.order // normalizer(G, P).order
                assert count % p == 1, (name, p)
    assert cases == 58


def test_sylow_is_lattice_least(groups):
    # the chosen Sylow subgroup is the first of its order-class that is a
    # p-group in canonical lattice order
    # A5 and GL(3,2) are not soluble
    cases = [(groups[name], p)
             for name in ("S4", "A4", "SL(2,3)", "A5", "GL(3,2)")
             for p in _prime_factors(groups[name].order)]
    # indices past 255: the least index bytes are not the least indices
    cases.append((direct_product(general_linear_3_2(), cyclic(2)), 3))
    for G, p in cases:
        P = sylow(G, p)
        sylows = all_subgroups(G).of_order(P.order)
        assert sylows and sylows[0].idx.tobytes() == P.idx.tobytes(), (G, p)


def test_hall(groups):
    assert hall(groups["A4"], {3}).order == 3
    assert hall(groups["A4"], {2, 3}).order == 12
    assert hall(groups["S4"], set()).order == 1
    with pytest.raises(NoHallSubgroup):
        hall(groups["A5"], {2, 5})


def test_frattini(groups):
    assert frattini(groups["Q8"]).order == 2
    assert frattini(groups["C3^2"]).order == 1
    assert frattini(cyclic(4)).order == 2
    assert frattini(groups["C1"]).order == 1


def test_frattini_contained_in_maximals(groups):
    for name in ("S4", "Q8", "SD16", "C12"):
        G = groups[name]
        phi = frattini(G)
        assert phi.is_normal()
        for M in all_subgroups(G).maximal_subgroups():
            assert M.contains(phi)


def test_frattini_p_group_oracle(groups):
    # for p-groups, Phi(P) = P' P^p
    for name in ("Q8", "D8", "SD16", "D16", "Q16", "C8", "V4", "C2^3"):
        P = groups[name]
        p = _prime_factors(P.order)[0]
        powers = np.array([P.index_of(x ** p) for x in P.elements], dtype=_DTYPE)
        from partialpi.groups import derived_subgroup
        seeds = np.unique(np.concatenate((derived_subgroup(P).idx, powers)))
        oracle = P.subgroup_from_mask(_kernels.closure_idx(P.table, seeds.astype(_DTYPE)))
        assert frattini(P).idx.tobytes() == oracle.idx.tobytes()


def test_standalone_frattini_leaves_no_cyclic_garbage():
    """SL(2,3), normal in SL(2,3) x C2, is not nilpotent and meets
    Phi(G) = C2, so its Phi is read off a standalone copy; that copy's memo
    is cleared once read, so no Group waits for the cycle collector."""
    G = build_directive("dp:linear:3:2:0,2,1,0;1,1,0,1xcyclic:2")
    E = next(N for N in normal_subgroups(G) if N.order == 24)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _frattini_in(G, E).order == 2
        gc.collect()
        left = [x for x in gc.garbage if isinstance(x, Group)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_socle(groups):
    soc, mins = socle_and_minimal_normals(groups["A4"])
    assert len(mins) == 1 and soc.order == 4
    soc, mins = socle_and_minimal_normals(groups["V4"])
    assert len(mins) == 3 and soc.order == 4
    soc, _ = socle_and_minimal_normals(groups["A5"])
    assert soc.order == 60


def test_o_p(groups):
    assert o_p(groups["S4"], 2).order == 4
    assert o_p_prime(groups["S4"], 2).order == 1
    assert o_p_prime(groups["S3"], 2).order == 3


def test_p_solubility(groups):
    assert p_solubility(groups["S4"], 2) == (True, 2)
    assert p_solubility(groups["A5"], 2)[0] is False
    assert p_solubility(groups["S3"], 3) == (True, 1)
    assert p_solubility(groups["C1"], 2) == (True, 0)
    assert p_solubility(groups["SL(2,3)"], 2) == (True, 1)


def test_p_supersoluble_and_rank(groups):
    assert p_supersoluble(groups["S3"], 3) and p_rank(groups["S3"], 3) == 1
    assert not p_supersoluble(groups["A4"], 2)
    assert p_rank(groups["A4"], 2) == 2
    assert p_supersoluble(groups["C7:C3"], 7)
    assert p_supersoluble(cyclic(5), 3)  # vacuous for p'-groups
    assert p_rank(cyclic(5), 3) is None  # undefined when p does not divide |G|
    with pytest.raises(NotPSoluble):
        p_rank(groups["A5"], 2)


def test_p_supersoluble_iff_rank_one(corpus):
    for name, G in corpus:
        for p in _prime_factors(G.order):
            if p_solubility(G, p)[0]:
                assert p_supersoluble(G, p) == (p_rank(G, p) == 1), (name, p)


def test_supersoluble(groups):
    for name in ("S3", "C12", "D8", "Q8", "C3^2:C2", "C7:C3", "F20"):
        assert supersoluble(groups[name]), name
    for name in ("A4", "S4", "A5", "SL(2,3)", "C2^4:C3"):
        assert not supersoluble(groups[name]), name


def test_hypercenters(groups):
    assert hypercenter_u(groups["S3"]).order == 6
    assert hypercenter_u(groups["A4"]).order == 1
    assert hypercenter_up(groups["A4"], 3).order == 12
    # Z_U <= Z_Up always
    for name in ("S4", "A4", "SL(2,3)", "C2^4:C3", "C3^2:C4"):
        G = groups[name]
        for p in _prime_factors(G.order):
            assert hypercenter_up(G, p).contains(hypercenter_u(G))


def test_hypercenter_series_independent(groups):
    # recompute membership along a *different* maximal chain per normal
    # subgroup and compare (Jordan-Hoelder sanity)
    from partialpi.chiefs import _chief_children
    for name in ("S4", "S3xS3", "C2^4:C3", "SD16"):
        G = groups[name]
        def chain_orders_last(N):
            orders = []
            cur = G.trivial_subgroup()
            while cur.order < N.order:
                step = [M for M in _chief_children(G, cur) if N.contains(M)][-1]
                orders.append(step.order // cur.order)
                cur = step
            return orders
        expect = hypercenter_u(G)
        mask = np.zeros(G.order, dtype=bool)
        mask[0] = True
        for N in normal_subgroups(G):
            if N.order > 1 and all(
                    len(_prime_factors(o)) == 1 and o == _prime_factors(o)[0]
                    for o in chain_orders_last(N)):
                mask = _kernels.product_mask(
                    G.table, np.flatnonzero(mask).astype(_DTYPE), N.idx)
        assert np.array_equal(np.flatnonzero(mask), expect.idx)


def test_lemma_phi_property(corpus):
    """E <= Z_Up(G) iff E/Phi(E) <= Z_Up(G/Phi(E)) over small corpus groups."""
    from partialpi.groups import quotient
    for name, G in corpus:
        if G.order > 60:
            continue
        for p in _prime_factors(G.order):
            for E in normal_subgroups(G):
                if E.order % p:
                    continue
                phi = G.subgroup(E.idx[frattini(E.as_group()).idx])
                q = quotient(G, phi)
                lhs = hypercenter_up(G, p).contains(E)
                rhs = hypercenter_up(q.target, p).contains(q.push_subgroup(E))
                assert lhs == rhs, (name, p, E.order)


def test_lemma_in_property(corpus):
    """Cyclic subgroups of order p (and 4) in Z_U force the whole normal
    p-subgroup into Z_U."""
    for name, G in corpus:
        if G.order > 100:
            continue
        z_u = hypercenter_u(G)
        for p in _prime_factors(G.order):
            for P0 in normal_subgroups(G):
                if P0.order == 1 or any(P0.order % q == 0
                                        for q in _prime_factors(P0.order)
                                        if q != p):
                    continue
                orders = G.element_orders[P0.idx]
                ok = all(z_u.mask[int(i)] for i, o in zip(P0.idx, orders)
                         if int(o) == p)
                if ok and p == 2 and not is_quaternion_free(P0.as_group()):
                    ok = all(z_u.mask[int(i)] for i, o in zip(P0.idx, orders)
                             if int(o) == 4)
                if ok:
                    assert z_u.contains(P0), (name, p, P0.order)


def test_omega_and_exponent(groups):
    c4 = cyclic(4)
    assert omega(c4, 2).order == 2
    assert exponent(groups["C2^3"]) == 2
    assert exponent(groups["S4"]) == 12
    d8 = groups["D8"]
    assert omega(d8, 2).order == 8  # generated by the five involutions
    q8 = groups["Q8"]
    assert omega(q8, 2).order == 8  # not quaternion-free: Omega_2


def test_quaternion_free(groups):
    assert not is_quaternion_free(groups["Q8"])
    assert is_quaternion_free(groups["D8"])
    assert not is_quaternion_free(groups["SD16"])
    assert not is_quaternion_free(groups["Q16"])
    assert is_quaternion_free(groups["D16"])
    assert is_quaternion_free(groups["V4"])
    assert is_quaternion_free(groups["C3^2"])  # odd order


def test_quaternion_free_abelian_without_lattice():
    c2_6 = elementary_abelian(2, 6)
    assert is_quaternion_free(c2_6)
    assert "lattice" not in c2_6._cache


def test_quaternion_free_shortcut_matches_sections(corpus):
    for name, P in corpus:
        if _prime_factors(P.order) == [2]:
            assert is_quaternion_free(P) == structure._quaternion_free_by_sections(
                P, P.subgroup(np.arange(P.order))), name


def test_two_maximal(groups):
    s4 = groups["S4"]
    P = sylow(s4, 2)
    tm = two_maximal_subgroups(s4, P)
    assert len(tm) == 5 and all(t.order == 2 for t in tm)
    assert two_maximal_subgroups(s4, sylow(s4, 3)) == []


def test_structure_facts_normality(groups):
    for name in ("S4", "SL(2,3)", "A4xC2"):
        facts = structure_facts(groups[name], 2)
        assert facts.sylow_p.contains(facts.o_p)
        for sub in (facts.o_p, facts.o_p_prime, facts.frattini, facts.socle,
                    facts.center, facts.derived, facts.z_u, facts.z_up):
            assert sub.is_normal(), name


def test_structure_facts(groups):
    facts = structure_facts(groups["S4"], 2)
    assert facts.sylow_p.order == 8
    assert facts.o_p.order == 4
    assert facts.is_p_soluble and facts.p_length == 2
    assert not facts.is_p_supersoluble
    assert facts.p_rank == 2
    assert facts.z_up.contains(facts.z_u)
    facts5 = structure_facts(groups["A5"], 2)
    assert facts5.p_rank is None and not facts5.is_p_soluble
