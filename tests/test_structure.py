import inspect

import numpy as np
import pytest

from partialpi import _kernels, chiefs, embedding, structure, theorems
from partialpi import groups as groups_module
from partialpi.chiefs import _prime_factors, normal_subgroups
from partialpi.config import Caps, DEFAULT_CAPS
from partialpi.errors import LatticeCapExceeded, NoHallSubgroup, NotPSoluble
from partialpi.groups import (
    cyclic,
    dicyclic,
    dihedral,
    is_isomorphic,
    lift_subgroup,
    normalizer,
    symmetric,
)
from partialpi.perms import _DTYPE
from partialpi.structure import (
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
    subgroup_as_group,
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


def test_lattice_cap():
    with pytest.raises(LatticeCapExceeded):
        all_subgroups(symmetric(4), Caps(lattice=10))


@pytest.mark.parametrize("build, call, lattice", [
    pytest.param(lambda: symmetric(4), all_subgroups, 10, id="all_subgroups"),
    pytest.param(lambda: symmetric(4), frattini, 10, id="frattini"),
    pytest.param(lambda: dihedral(16), is_quaternion_free, 4,
                 id="is_quaternion_free"),
    pytest.param(lambda: symmetric(4), lambda G, caps: all_of_order_satisfy_pi(
        G, sylow(G, 2), 2, caps), 4, id="all_of_order_satisfy_pi"),
    pytest.param(lambda: symmetric(4), lambda G, caps: cyclic_order4_satisfy_pi(
        G, sylow(G, 2), caps), 4, id="cyclic_order4_satisfy_pi"),
    pytest.param(lambda: symmetric(4), lambda G, caps: all_of_order_complemented(
        G, sylow(G, 2), 2, caps), 4, id="all_of_order_complemented"),
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


def test_subgroup_as_group_whole_is_group():
    s4 = symmetric(4)
    assert subgroup_as_group(s4, s4.as_subgroup()) is s4


def test_lift_subgroup_by_element_set():
    """Lifting by element set: from a separately built equal group, and
    through two levels of subgroup_as_group."""
    s4, other = symmetric(4), symmetric(4)
    direct = sylow(s4, 2)
    assert lift_subgroup(sylow(other, 2), s4) == direct
    d8 = subgroup_as_group(s4, direct)
    for four in all_subgroups(d8).of_order(4):
        four_group = subgroup_as_group(d8, four)
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


def test_maximal_of_adjacency(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    adj = lat.maximal_of
    for s, covers in adj.items():
        for t in covers:
            assert t.contains(s) and t.order > s.order
            # nothing strictly between
            assert not any(u.order > s.order and u.order < t.order
                           and u.contains(s) and t.contains(u)
                           for u in lat.all)
    # maximal subgroups of S4: A4 (1), S3 (4), D8 (3)
    maxs = lat.maximal_subgroups()
    assert sorted(m.order for m in maxs) == [6, 6, 6, 6, 8, 8, 8, 12]


def test_sylow(groups):
    assert sylow(groups["S4"], 2).order == 8
    assert sylow(groups["S3"], 5).order == 1
    syl = sylow(groups["SL(2,3)"], 2)
    assert syl.order == 8
    assert is_isomorphic(subgroup_as_group(groups["SL(2,3)"], syl), dicyclic(8))


def test_sylow_count_congruence(corpus):
    for name, G in corpus:
        if G.order > 100:
            continue
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            count = G.order // normalizer(G, P).order
            assert count % p == 1, (name, p)


def test_sylow_is_lattice_least(groups):
    # the chosen Sylow subgroup is the first of its order-class that is a
    # p-group in canonical lattice order
    for name in ("S4", "A4", "SL(2,3)"):
        G = groups[name]
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            lat = all_subgroups(G)
            sylows = [s for s in lat.of_order(P.order)]
            assert sylows and sylows[0].idx.tobytes() == P.idx.tobytes()


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
                phi = G.subgroup(E.idx[frattini(subgroup_as_group(G, E)).idx])
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
                if ok and p == 2 and not is_quaternion_free(
                        subgroup_as_group(G, P0)):
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
