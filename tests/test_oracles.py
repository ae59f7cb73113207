"""Brute-force cross-checks of the enumeration machinery.

These oracles share nothing with the production paths: closures are taken
over raw Perm arithmetic and subsets, so they catch errors in the kernels,
the two lattice routes (the layer walk of p-groups and the cyclic extension
of other groups) and the extension of normal subgroups by class closures.
The layer walk is also compared with the cyclic extension on p-groups, and
the soluble routes to Phi(G), Hall subgroups and complements are checked
against the subgroup lattice. Hypercentres and the upper p-series, climbed
up G's own chief-factor DAG, are checked against their former definitions
through chief chains and materialised quotients, and O_p and O_p' against
a scan of the normal subgroups. Read in G from a normal N, the partial
Pi-property of HN/N, the preimages of Z_U(G/N) and Z_{U_p}(G/N) and the
cyclicity of G/N are checked against the materialised quotient G/N. The Pi
family of a Sylow subgroup, read off two walks of the chief-factor DAG, is
checked against the chain search for every (N, H), and its partial CAP
verdicts against the CAP search for every H; the verifiers' reductions
over the family against their per-pair route, also over doctored
families that force failures; the complement family of an
abelian normal Sylow subgroup, read off G's normal subgroups inside it, is
checked against the complement search. The chief-factor DAG,
built lazily from class closures, is checked against a scan of the normal
subgroups the lattice filter finds. The class-union normality test is
checked against the normaliser kernel, and so is the trace index of the
Π-property search, which skips that kernel at the ends of a chief factor.
Central chief factors, judged from G's generators, are checked against
every commutator.
Quotient maps, built by gathers over the Cayley table, are checked against
a loop over every element.
Quaternion-freeness, read off one lattice by counting squares, is checked
against a scan of nested lattices and quotients with the general
isomorphism test. The lattice, Phi and quaternion-freeness of a
p-subgroup P, read in G's own table, are checked against P as a
standalone group, and so is Phi(E) of a normal E that is not a p-group,
read in G as P'P^r for a nilpotent E, as 1 when E meets Phi(G) trivially
in a soluble G, and off a standalone copy otherwise; Phi(G) = P'P^r of a
nilpotent G that is not a p-group is checked against the lattice. The
memoised analysis of a section module, which compares
constituents by Schur's lemma, is checked against module isomorphism and
absolute irreducibility tested separately.
"""

import copy
import itertools
import time

import numpy as np

from partialpi import _kernels, theorems
from partialpi.chiefs import (
    _chief_children,
    _is_normal,
    _is_prime,
    all_chief_series,
    classify_factor,
    normal_subgroups,
    search_chains,
)
from partialpi.config import DEFAULT_CAPS
from partialpi.embedding import (
    _complemented_by_lattice,
    _image_order,
    _trace,
    complement_family,
    is_complemented,
    pi_family,
    pi_series_through,
    satisfies_partial_cap,
    satisfies_partial_pi,
)
from partialpi.corpus import builtin_corpus
from partialpi.groupfile import build_directive
from partialpi.groups import (
    Group,
    QuotientMap,
    alternating,
    centralizer,
    clear_memo,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    general_linear_3_2,
    is_isomorphic,
    lift_subgroup,
    normalizer,
    quotient,
    semidihedral,
    symmetric,
    trivial_group,
    vector_action_group,
)
from partialpi.theorems import (
    _is_cyclic,
    _is_cyclic_quotient,
    _is_elementary_abelian,
    _section_constituents,
    _section_module,
    default_checks,
    run_check,
)
from partialpi.modrep import (
    are_isomorphic_modules,
    is_absolutely_irreducible,
    minimal_submodules,
    restrict_to_submodule,
    rref,
)
from partialpi.structure import (
    _frattini_by_lattice,
    _frattini_in,
    _frattini_soluble,
    _hall_by_closure,
    _hall_by_lattice,
    _is_abelian_in,
    _is_soluble,
    _lattice_by_extension,
    _lattice_by_layers,
    _pi_part,
    _quaternion_free_by_sections,
    _quaternion_free_in,
    all_subgroups,
    frattini,
    hall,
    hall_complement,
    hypercenter_u,
    hypercenter_up,
    is_q8_section,
    is_quaternion_free,
    o_p,
    o_p_prime,
    p_solubility,
    p_supersoluble,
    subgroups_in,
    subgroups_of_order_in,
    supersoluble,
    sylow,
)
from partialpi.chiefs import _prime_factors
from partialpi.perms import Perm, _DTYPE


def heisenberg_mod_3():
    """The Heisenberg group mod 3 (order 27, exponent 3)."""
    return vector_action_group(3, 2, [[[1, 1], [0, 1]]])


def brute_subgroups(G, max_gens):
    """All subgroups generated by <= max_gens elements, via Perm arithmetic."""
    elems = G.elements
    found = set()
    for r in range(max_gens + 1):
        for combo in itertools.combinations(range(1, G.order), r):
            gens = [elems[i] for i in combo]
            closure = {elems[0]}
            work = list(gens)
            for g in work:
                if g not in closure:
                    closure.add(g)
            work = list(closure)
            while work:
                x = work.pop()
                for g in gens:
                    y = x * g
                    if y not in closure:
                        closure.add(y)
                        work.append(y)
            found.add(frozenset(p.images for p in closure))
    return found


def test_lattice_matches_brute_force(groups):
    # max_gens = 3 suffices: every subgroup of these groups is 3-generated
    # from S4 on, a class representative's normaliser is a proper overgroup
    cases = [(name, groups[name], 3) for name in (
        "S3", "D8", "Q8", "C2^3", "A4", "SD16", "S4", "A4xC2")]
    # every subgroup of these p-groups is 2-generated
    cases += [("D16", groups["D16"], 2), ("Q16", groups["Q16"], 2),
              ("3^(1+2)", heisenberg_mod_3(), 2)]
    for name, G, max_gens in cases:
        brute = brute_subgroups(G, max_gens)
        lattice = {frozenset(p.images for p in s.members)
                   for s in all_subgroups(G).all}
        assert lattice == brute, name


def test_layer_walk_matches_extension(corpus):
    """On p-groups the layer walk lists the same subgroups in the same
    order, with the same normal flags, as the cyclic extension."""
    cases = [("C2^5", elementary_abelian(2, 5)),
             ("C3^4", elementary_abelian(3, 4)),
             ("D16", dihedral(16)), ("Q16", dicyclic(16)),
             ("SD16", semidihedral(16)),
             ("Q8xQ8", direct_product(dicyclic(8), dicyclic(8))),
             ("D8xD8", direct_product(dihedral(8), dihedral(8)))]
    for name, G in corpus:
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            if P.order > p:
                cases.append((f"{name} sylow {p}", P.as_group()))
    for name, P in cases:
        walk = _lattice_by_layers(P, P.subgroup(np.arange(P.order)))
        extension = _lattice_by_extension(P)
        assert [s.idx.tobytes() for s in walk.all] == \
            [s.idx.tobytes() for s in extension.all], name
        assert walk._normal_flags == extension._normal_flags, name


def p_subgroup_cases(corpus):
    """(name, G, P) for every corpus group and prime p, then D8 x D8, Q8 x C4
    and Q16 x C2: P ranges over the Sylow p-subgroup, every normal
    p-subgroup and every Sylow p-subgroup of a normal N read as
    sylow(G, p) cap N."""
    extra = [("D8xD8", direct_product(dihedral(8), dihedral(8))),
             ("Q8xC4", direct_product(dicyclic(8), cyclic(4))),
             ("Q16xC2", direct_product(dicyclic(16), cyclic(2)))]
    for name, G in itertools.chain(corpus, extra):
        for p in _prime_factors(G.order):
            S = sylow(G, p)
            cases = {S}
            for N in normal_subgroups(G):
                if N.order > 1 and _prime_factors(N.order) == [p]:
                    cases.add(N)
                if N.order % p == 0:
                    cases.add(G.subgroup_from_mask(S.mask & N.mask))
            for P in sorted(cases, key=lambda P: (P.order, P.idx.tobytes())):
                yield f"{name} p={p} order {P.order}", G, P


def test_p_subgroups_read_in_g_match_standalone(corpus):
    """The lattice, Phi and quaternion-freeness of a p-subgroup P, read in
    G's own table, against P as a standalone group, each subgroup lifted
    by element set: the same subgroups in the same order, with the same
    normal flags (normal in P), as the standalone lattice and as its cyclic
    extension, which shares no code with the layer walk."""
    count = 0
    for name, G, P in p_subgroup_cases(corpus):
        alone = P.as_group()
        to_g = G.indices_of(alone.elements).astype(_DTYPE)

        def lifted(S):
            return np.sort(to_g[S.idx]).tobytes()
        got = subgroups_in(G, P)
        for expected in (all_subgroups(alone), _lattice_by_extension(alone)):
            assert [lifted(S) for S in expected.all] == \
                [S.idx.tobytes() for S in got.all], name
            assert expected._normal_flags == got._normal_flags, name
        assert lifted(frattini(alone)) == _frattini_in(G, P).idx.tobytes(), \
            name
        assert is_quaternion_free(alone) == _quaternion_free_in(G, P), name
        count += 1
    assert count == 282


# Products with soluble normal subgroups that are not p-groups; two groups
# whose normal A5 is not soluble; SL(2,3) x C2 and C4 x S3, whose normal
# SL(2,3) and C2 x S3 meet Phi(G) = C2 but are not nilpotent, so that their
# Phi takes the standalone route (C2 x S3 has Phi = 1 < Phi(G) ∩ E); and
# D8 x C9 and Q8 x S3, with nilpotent normal subgroups of two primes.
NORMAL_PHI_EXTRA = ("dp:sym:4xsym:3", "dp:alt:4xalt:4", "dp:elemab:2:3xsym:3",
                    "sym:5", "dp:alt:5xcyclic:3",
                    "dp:linear:3:2:0,2,1,0;1,1,0,1xcyclic:2",
                    "dp:cyclic:4xsym:3", "dp:dihedral:8xcyclic:9",
                    "dp:quaternion:8xsym:3")


def test_frattini_of_normal_read_in_g_matches_standalone(corpus):
    """Phi(E) of every proper normal E that is not a p-group, read in G's
    table (P'P^r for a nilpotent E, 1 when E meets Phi(G) trivially in a
    soluble G), against E as a standalone group, whose row i is E.idx[i];
    and Phi(G) = P'P^r of a nilpotent G against G's lattice."""
    extra = [(d, build_directive(d)) for d in NORMAL_PHI_EXTRA]
    count = 0
    for name, G in itertools.chain(corpus, extra):
        for E in normal_subgroups(G)[1:-1]:
            if len(_prime_factors(E.order)) == 1:
                continue
            expected = E.idx[frattini(E.as_group()).idx]
            assert _frattini_in(G, E).idx.tobytes() == expected.tobytes(), \
                (name, E.order)
            count += 1
    assert count == 130
    # the standalone copy of a nilpotent E takes P'P^r too, so P'P^r is
    # also checked against the lattice, on nilpotent G of two primes
    for d in ("dp:dihedral:8xcyclic:3", "dp:quaternion:8xcyclic:3",
              "dp:dihedral:8xcyclic:9"):
        G = build_directive(d)
        expected = _frattini_by_lattice(G, DEFAULT_CAPS).idx.tobytes()
        assert frattini(G).idx.tobytes() == expected, d


def test_lattice_class_counts(groups):
    """(subgroups, conjugacy classes of subgroups, normal subgroups)."""
    pins = {"S4": (30, 11, 4), "A5": (59, 9, 2), "SL(2,3)": (15, 7, 4),
            "GL(3,2)": (179, 15, 2), "F7^2:S3": (172, 14, 4),
            "C3^4:C4": (2836, 236, 14), "C2^5": (374, 374, 374)}
    for name, pin in pins.items():
        G = elementary_abelian(2, 5) if name == "C2^5" else groups[name]
        lattice = all_subgroups(G)
        # orbit-stabiliser: H's class has |G : N_G(H)| members
        normaliser_orders = sum(normalizer(G, s).order for s in lattice.all)
        assert normaliser_orders % G.order == 0, name
        counts = (len(lattice), normaliser_orders // G.order,
                  len(lattice.normal))
        assert counts == pin, name


def test_normals_match_brute_force(groups):
    # from C1 on, each group has more normal subgroups than class closures
    cases = [(name, groups[name]) for name in (
        "S4", "SL(2,3)", "S3xS3", "C2^4:C3", "Dic3",
        "C1", "V4", "C2^3", "C3^2", "A4xC2")]
    cases += [("C2^4", elementary_abelian(2, 4)),
              ("C3^3", elementary_abelian(3, 3))]
    for name, G in cases:
        # canonical order: (order, index bytes)
        by_filter = sorted((s.idx.tobytes() for s in all_subgroups(G).all
                            if s.is_normal()), key=lambda b: (len(b), b))
        by_closure = [n.idx.tobytes() for n in normal_subgroups(G)]
        assert by_closure == by_filter, name
    # subgroup counts of F_p^k: sums of Gaussian binomial coefficients
    assert len(normal_subgroups(elementary_abelian(2, 5))) == 374
    assert len(normal_subgroups(elementary_abelian(3, 4))) == 212


def _normals_by_filter(G):
    """G's normal subgroups from its lattice, in canonical order."""
    return sorted((s for s in all_subgroups(G).all if s.is_normal()),
                  key=lambda s: (s.order, s.idx.tobytes()))


def _chief_children_by_scan(normals, top):
    """Every normal M > top with no normal subgroup strictly between, by
    testing each normal subgroup above top against every other."""
    above = [M for M in normals if M.order > top.order and M.contains(top)]
    out = []
    for M in above:
        if not any(K.order < M.order and M.contains(K) for K in above
                   if K.order > top.order):
            out.append(M)
    return out


def test_chief_dag_matches_scan(corpus):
    """The DAG on every corpus group, on C2^5 and C3^4 (374 and 212 normal
    subgroups), on a quotient's target, and on a fresh C1, which has no
    class closures. Every normal subgroup the lattice filter finds is a
    node reached from 1, and its children are those of the scan."""
    G = corpus.group("C3^4:C4")
    N = next(N for N in _normals_by_filter(G) if N.order == 9)
    extra = [("C2^5", elementary_abelian(2, 5)),
             ("C3^4", elementary_abelian(3, 4)),
             ("C3^4:C4 / 9", quotient(G, N).target),
             ("C1", trivial_group())]
    counts = {"C2^5": 374, "C3^4": 212, "C1": 1}
    for name, G in itertools.chain(corpus, extra):
        normals = _normals_by_filter(G)
        assert len(normals) == counts.get(name, len(normals)), name
        assert normal_subgroups(G) == normals, name
        for top in normals:
            children = _chief_children(G, top)
            assert children == _chief_children_by_scan(normals, top), \
                (name, top)
            keys = [(M.order, M.idx.tobytes()) for M in children]
            assert keys == sorted(keys), (name, top)


def test_class_union_normality_matches_normalizer(corpus):
    """A subgroup is normal iff it is the union of the classes it meets,
    on every lattice subgroup of every corpus group: both normality tests
    against a normaliser that is all of G."""
    for name, G in corpus:
        for s in all_subgroups(G).all:
            normal = bool(
                _kernels.normalizer_mask(G.table, G.inverses, s.idx).all())
            assert s.is_normal() == normal, (name, s)
            assert _is_normal(G, s) == normal, (name, s)


def test_trace_matches_normalizer(corpus):
    """``_trace`` against D and |G : N_G(D)| taken directly, with the
    normaliser kernel at every factor, endpoints included, and the partial
    CAP rule against its definition: H covers the factor (above <= H below)
    iff the image is |above : below|, and avoids it (H cap above <= below)
    iff the image is 1. On each factor of the first 5 chief series of every
    corpus group, C2^5 and C3^4, for H each Sylow subgroup and, on groups
    of order <= 48, each lattice subgroup."""
    extra = [("C2^5", elementary_abelian(2, 5)),
             ("C3^4", elementary_abelian(3, 4))]
    for name, G in itertools.chain(corpus, extra):
        table, inv = G.table, G.inverses
        hs = [sylow(G, p) for p in _prime_factors(G.order)]
        if G.order <= 48:
            hs += all_subgroups(G).all
        for series in itertools.islice(all_chief_series(G), 5):
            for below, above in zip(series.terms, series.terms[1:]):
                for H in hs:
                    products = table[H.idx[:, None], below.idx].ravel()
                    d_idx = np.unique(products[above.mask[products]])
                    normaliser = _kernels.normalizer_mask(table, inv, d_idx)
                    expected = (len(d_idx) // below.order,
                                G.order // int(normaliser.sum()))
                    assert _trace(G, H, below, above) == expected, \
                        (name, series, H)
                    in_hk = np.zeros(G.order, dtype=bool)
                    in_hk[products] = True
                    covers = bool(in_hk[above.idx].all())
                    avoids = bool(below.mask[H.idx[above.mask[H.idx]]].all())
                    image = _image_order(H, below, above)
                    assert covers == (image == above.order // below.order), \
                        (name, series, H)
                    assert avoids == (image == 1), (name, series, H)


def test_central_factor_matches_every_commutator(corpus):
    """A chief factor is central iff [a, g] lies below it for every a above
    and every g in G, not only for G's generators: on each factor of the
    first 3 chief series of every corpus group."""
    for name, G in corpus:
        table, inv = G.table, G.inverses
        every = np.arange(G.order)[:, None]
        for series in itertools.islice(all_chief_series(G), 3):
            for below, above in zip(series.terms, series.terms[1:]):
                a = above.idx[None, :]
                comm = table[table[inv[a], inv[every]], table[a, every]]
                central = bool(below.mask[comm].all())
                factor = classify_factor(G, below, above, with_frattini=False)
                assert factor.is_central == central, (name, series)


def test_hypercenter_characterizes_supersolubility(corpus):
    """Z_U(G) = G and Z_{U_p}(G) = G, which is how supersoluble and
    p_supersoluble answer, against the orders of the chief factors of one
    series: all prime, and all p-divisible ones equal to p."""
    for name, G in corpus:
        if G.order > 100:
            continue
        orders = next(all_chief_series(G)).factor_orders()
        assert supersoluble(G) == all(
            _prime_factors(o) == [o] for o in orders), name
        assert (hypercenter_u(G).order == G.order) == supersoluble(G), name
        for p in _prime_factors(G.order):
            assert p_supersoluble(G, p) == all(
                o == p for o in orders if o % p == 0), (name, p)
            assert (hypercenter_up(G, p).order == G.order) == \
                p_supersoluble(G, p), (name, p)


def _hypercenter_by_chains(G, accept):
    """The product of every normal N whose factors along one chief chain
    from 1 to N all have an accepted order."""
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for N in normal_subgroups(G)[1:]:
        series, _ = next(search_chains(G, through=N))
        orders = series.factor_orders()[:series.terms.index(N)]
        if all(accept(o) for o in orders):
            mask = _kernels.product_mask(
                G.table, np.flatnonzero(mask).astype(_DTYPE), N.idx)
    return G.subgroup_from_mask(mask)


def _largest_normal_over(G, below, accept):
    """The largest normal N of G containing the normal ``below`` with
    accept(|N : below|), by a scan of every normal subgroup."""
    best = below
    for N in normal_subgroups(G):
        if (N.order > best.order and N.contains(below)
                and accept(N.order // below.order)):
            best = N
    return best


def _p_length_by_quotients(G, p):
    """The number of p-terms of the upper p-series of a p-soluble G, each
    term the preimage of O_p' or O_p of a materialised quotient."""
    length = 0
    cur = G.trivial_subgroup()
    while cur.order < G.order:
        q = quotient(G, cur)
        cur = q.preimage(_largest_normal_over(
            q.target, q.target.trivial_subgroup(), lambda n: n % p != 0))
        q = quotient(G, cur)
        step = q.preimage(_largest_normal_over(
            q.target, q.target.trivial_subgroup(),
            lambda n: _pi_part(n, {p}) == n))
        if step.order == cur.order:
            break
        length += 1
        cur = step
    return length


def test_hypercenters_and_p_series_match_former_definitions(corpus):
    """Every corpus group, and S4 x C3: there |S4| / |O_2'| is a power of
    2, though S4 does not contain O_2' = C3."""
    extra = [("S4xC3", direct_product(symmetric(4), cyclic(3)))]
    for name, G in itertools.chain(corpus, extra):
        expected = _hypercenter_by_chains(G, lambda o: _prime_factors(o) == [o])
        assert hypercenter_u(G) == expected, name
        for p in _prime_factors(G.order):
            expected = _hypercenter_by_chains(G, lambda o: o % p or o == p)
            assert hypercenter_up(G, p) == expected, (name, p)
            soluble, length = p_solubility(G, p)
            if soluble:
                assert length == _p_length_by_quotients(G, p), (name, p)


def test_climbs_match_normal_subgroup_scan(corpus):
    """O_p and O_p' climbed from every normal K of every corpus group (the
    preimages of O_p(G/K) and O_p'(G/K)), against a scan of all normal
    subgroups; and p-solubility, read off the upper p-series, against the
    orders of the chief factors of one series."""
    for name, G in corpus:
        for p in _prime_factors(G.order):
            def p_order(n):
                return _pi_part(n, {p}) == n

            def p_prime_order(n):
                return n % p != 0
            for K in normal_subgroups(G):
                assert o_p(G, p, K) == _largest_normal_over(
                    G, K, p_order), (name, p, K)
                assert o_p_prime(G, p, K) == _largest_normal_over(
                    G, K, p_prime_order), (name, p, K)
            orders = next(all_chief_series(G)).factor_orders()
            assert p_solubility(G, p)[0] == all(
                p_order(o) or p_prime_order(o) for o in orders), (name, p)


def test_climbs_from_K_match_quotients(corpus):
    """Climbed from every normal K of every corpus group, the preimages of
    Z_U(G/K) and of Z_{U_p}(G/K) for every prime p of |G|, and G/K cyclic
    tested in G, against the same in the materialised quotient G/K."""
    cyclic_kinds = set()
    for name, G in corpus:
        for K in normal_subgroups(G):
            q = quotient(G, K)
            assert hypercenter_u(G, K) == q.preimage(
                hypercenter_u(q.target)), (name, K)
            for p in _prime_factors(G.order):
                assert hypercenter_up(G, p, K) == q.preimage(
                    hypercenter_up(q.target, p)), (name, p, K)
            is_cyclic = _is_cyclic(q.target.as_subgroup())
            assert _is_cyclic_quotient(G, K) == is_cyclic, (name, K)
            cyclic_kinds.add(is_cyclic)
    assert cyclic_kinds == {True, False}


def test_elementary_abelian_matches_centralizer(corpus):
    """``_is_elementary_abelian`` against exponent p and P <= C_G(P), on
    every Sylow and normal subgroup of every corpus group and of the
    Heisenberg group mod 3, which has exponent 3 but is not abelian."""
    kinds = set()
    for name, G in itertools.chain(corpus, [("3^(1+2)", heisenberg_mod_3())]):
        for p in _prime_factors(G.order):
            for P in [sylow(G, p), *normal_subgroups(G)]:
                exponent_p = set(G.element_orders[P.idx].tolist()) <= {1, p}
                expected = exponent_p and centralizer(G, P).contains(P)
                assert _is_elementary_abelian(G, P, p) == expected, \
                    (name, p, P)
                kinds.add((exponent_p, expected))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_pi_from_N_matches_quotients(corpus):
    """The partial Pi-property of HN/N in G/N, searched from N in G, against
    the search in the materialised quotient G/N: for every normal
    1 < N < G of every corpus group and every H in the lattice of a Sylow
    subgroup, 4 024 pairs."""
    pairs, verdicts = 0, set()
    for name, G in corpus:
        hs = [H for p in _prime_factors(G.order)
              for H in subgroups_in(G, sylow(G, p)).all]
        for N in normal_subgroups(G)[1:-1]:
            q = quotient(G, N)
            for H in hs:
                verdict = satisfies_partial_pi(G, H, bottom=N)[0]
                assert verdict == satisfies_partial_pi(
                    q.target, q.push_subgroup(H))[0], (name, N, H)
                verdicts.add(verdict)
                pairs += 1
    assert pairs == 4024 and verdicts == {True, False}


def test_pi_family_matches_search(corpus):
    """Every verdict of the Pi family against the chain search, for every
    normal N and every subgroup H of a Sylow subgroup P, on every corpus
    group and prime and on D8xD8: ``co[N]`` against the search from N
    (``co[1]``, and ``reach[G]``, against the search in G) and, where
    H <= N has the property, ``reach[N] & co[N]`` against
    ``pi_series_through``."""
    cases = [*corpus, ("D8xD8", direct_product(dihedral(8), dihedral(8)))]
    pairs = through = 0
    verdicts = set()
    for name, G in cases:
        nodes = normal_subgroups(G)
        for p in _prime_factors(G.order):
            family = pi_family(G, sylow(G, p))
            for j, H in enumerate(subgroups_in(G, sylow(G, p)).all):
                pi = satisfies_partial_pi(G, H)[0]
                assert family.pi(H) == family.reach[-1, j] == pi, (name, H)
                for N in nodes:
                    verdict = satisfies_partial_pi(G, H, bottom=N)[0]
                    assert family.pi(H, N) == verdict, (name, N, H)
                    verdicts.add(verdict)
                    pairs += 1
                    if pi and N.contains(H):
                        assert family.through(H, N) == pi_series_through(
                            G, H, N, p)[0], (name, N, H)
                        through += 1
    assert (pairs, through) == (40637, 4596) and verdicts == {True, False}


def test_pi_family_matches_search_on_c2_5_premised_pairs():
    """The family against the search on the (N, H) pairs of C2^5 that meet
    the premises of quotient-inheritance (5 766) and series-through
    (5 768)."""
    G = elementary_abelian(2, 5)
    family = pi_family(G, G.as_subgroup())
    inherited = through = 0
    for H in subgroups_in(G, G.as_subgroup()).all:
        if not satisfies_partial_pi(G, H)[0]:
            continue
        for N in normal_subgroups(G)[1:]:
            if N.order < G.order and (H.contains(N) or H.order == 1):
                assert family.pi(H, N) == satisfies_partial_pi(
                    G, H, bottom=N)[0], (N, H)
                inherited += 1
            if N.contains(H):
                assert family.through(H, N) == pi_series_through(
                    G, H, N, 2)[0], (N, H)
                through += 1
    assert (inherited, through) == (5766, 5768)


# The checks whose Pi questions read P's family: the two lemmas over
# (N, H) pairs, which reduce over its tables, and every check whose
# hypotheses ask that all subgroups of P of an order (or its cyclic ones
# of order 4) have the property, which read it per subgroup.
REDUCED_CHECKS = {"A", "B", "C", "lemma:quotient-inheritance",
                  "lemma:series-through", "lemma:p-length-one",
                  "lemma:minimal-normal-order",
                  "lemma:minimal-normal-elementary",
                  "lemma:prime-order-supersoluble"}
REDUCTION_EXTRA = ("dp:dihedral:8xdihedral:8", "elemab:2:5",
                   "dp:quaternion:8xquaternion:8xcyclic:2")


def _reduced_reports(G, name):
    return [run_check(G, cid, params, group_name=name).record_fields()
            for cid, params in default_checks(G) if cid in REDUCED_CHECKS]


def test_family_reductions_match_per_pair_route(monkeypatch):
    """Every report of the checks that read the Pi family equals
    the report of the per-pair route, taken when the family is over a cap
    (forced here): every (N, H) pair and every subgroup searched on its
    own. On every corpus group and prime, and on D8 x D8, C2^5 and
    Q8 x Q8 x C2, each route on a fresh group."""
    makers = [(name, lambda name=name: builtin_corpus().group(name))
              for name in builtin_corpus().names()]
    makers += [(d, lambda d=d: build_directive(d)) for d in REDUCTION_EXTRA]
    compared = 0
    for name, make in makers:
        reduced = _reduced_reports(make(), name)
        with monkeypatch.context() as patch:
            patch.setattr(theorems, "pi_family", lambda *args: None)
            assert _reduced_reports(make(), name) == reduced, name
        compared += len(reduced)
    assert compared == 634


def test_family_reductions_match_per_pair_route_with_failures(monkeypatch):
    """The same two routes over one doctored copy of each family, whose
    ``co`` and ``reach`` bits are each cleared with probability 1/20 (seeded),
    so that premises and conclusions fail at scattered (N, H): the per-pair
    route reads the doctored family through ``_has_pi``. The counts up to
    the first failing N and the verdicts agree on every corpus group."""
    rng = np.random.default_rng(25)
    statuses = []
    for name in builtin_corpus().names():
        G = builtin_corpus().group(name)
        doctored = {}

        def family(X, P, caps=DEFAULT_CAPS):
            key = P.idx.tobytes()
            if key not in doctored:
                doctored[key] = copied = copy.copy(pi_family(X, P, caps))
                for rows in ("co", "reach"):
                    table = getattr(copied, rows)
                    setattr(copied, rows,
                            table & (rng.random(table.shape) > 0.05))
            return doctored[key]

        def has_pi(X, P, H, caps, bottom=None, through=None):
            if through is not None:
                return family(X, P, caps).through(H, through)
            return family(X, P, caps).pi(H, bottom)

        with monkeypatch.context() as patch:
            patch.setattr(theorems, "pi_family", family)
            reduced = _reduced_reports(G, name)
            clear_memo(G)
            patch.setattr(theorems, "pi_family", lambda *args: None)
            patch.setattr(theorems, "_has_pi", has_pi)
            assert _reduced_reports(G, name) == reduced, name
            clear_memo(G)
        statuses += [dict(r)["status"] for r in reduced]
    assert len(statuses) == 556 and "fail" in statuses


# Groups beyond the corpus for the complement and CAP families: C2^5 and
# A4 x C2, whose abelian normal Sylow 2-subgroups have many subgroups, and
# three whose Sylow 2-subgroups, with many subgroups, are not abelian (D8 x
# D8, Q8 x Q8) or not normal (C2^3 x S3).
FAMILY_EXTRA = ("elemab:2:5", "dp:dihedral:8xdihedral:8", "dp:alt:4xcyclic:2",
                "dp:elemab:2:3xsym:3", "dp:quaternion:8xquaternion:8")


def _family_cases(corpus):
    for name, G in itertools.chain(
            corpus, ((d, build_directive(d)) for d in FAMILY_EXTRA)):
        for p in _prime_factors(G.order):
            yield name, G, p, sylow(G, p)


def test_complement_family_matches_search(corpus):
    """The complement family of every abelian normal Sylow subgroup P,
    read off G's normal subgroups inside P, against ``is_complemented``
    on every subgroup of P."""
    checked = 0
    verdicts = set()
    for name, G, p, P in _family_cases(corpus):
        if not (P.is_normal() and _is_abelian_in(G, P)):
            continue
        family = complement_family(G, P)
        for H in subgroups_in(G, P).all:
            verdict = is_complemented(G, H)[0]
            assert family[H] == verdict, (name, p, H)
            verdicts.add(verdict)
            checked += 1
    assert checked == 852 and verdicts == {True, False}


def test_pi_family_inner_traces(corpus, monkeypatch):
    """The traces that ``pi_family`` builds, recorded as the 2-D
    ``normalizer_mask`` batches passed without ``elements`` (the layer walk
    passes P's), are, as a set per family, the (H cap L)K of every column
    H and every chief factor K < L of composite order where H's image
    |H cap L| / |H cap K| lies strictly between 1 and |L : K|. Each family
    is built afresh, past its memo."""
    recorded = set()
    normalizer_mask = _kernels.normalizer_mask

    def record(table, inv, sub_idx, elements=None):
        if elements is None and np.ndim(sub_idx) == 2:
            recorded.update(tuple(row) for row in np.asarray(sub_idx).tolist())
        return normalizer_mask(table, inv, sub_idx, elements)

    traces = 0
    for name, G, p, P in _family_cases(corpus):
        columns = subgroups_in(G, P).all
        expected = set()
        for K in normal_subgroups(G):
            for L in _chief_children(G, K):
                if _is_prime(L.order // K.order):
                    continue
                for H in columns:
                    meet = H.idx[L.mask[H.idx]]
                    image = len(meet) // int(K.mask[H.idx].sum())
                    if 1 < image < L.order // K.order:
                        expected.add(tuple(np.unique(
                            G.table[np.ix_(meet, K.idx)]).tolist()))
        recorded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "normalizer_mask", record)
            pi_family.__wrapped__(G, P)
        assert recorded == expected, (name, p)
        traces += len(expected)
    assert traces == 231


def test_cap_family_matches_search(corpus):
    """The partial CAP verdicts of the Pi family, read off its meet table,
    against ``satisfies_partial_cap`` on every subgroup of every Sylow
    subgroup P that has a family."""
    checked = 0
    verdicts = set()
    for name, G, p, P in _family_cases(corpus):
        family = pi_family(G, P)
        if family is None:
            continue
        for H in subgroups_in(G, P).all:
            verdict = satisfies_partial_cap(G, H)[0]
            assert family.cap(H) == verdict, (name, p, H)
            verdicts.add(verdict)
            checked += 1
    assert checked == 1590 and verdicts == {True, False}


def soluble_cases(corpus):
    """Every soluble corpus group, its proper non-trivial normal subgroups
    and its Sylow subgroups, each as a standalone group. Two groups join the
    corpus: the Heisenberg group mod 3, where P^3 = 1 < P' = Phi(P), and
    D262, whose index bytes order Hall 2-subgroups unlike their indices."""
    extra = [("3^(1+2)", heisenberg_mod_3()),
             ("D262", dihedral(262))]
    for name, G in itertools.chain(corpus, extra):
        if not _is_soluble(G):
            continue
        yield name, G
        for N in normal_subgroups(G)[1:-1]:
            yield f"{name} normal {N.order}", N.as_group()
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            if P.order < G.order:
                yield f"{name} sylow {p}", P.as_group()


def test_soluble_frattini_matches_lattice(corpus):
    for name, G in soluble_cases(corpus):
        if G.order == 1:
            continue
        expected = _frattini_by_lattice(G, DEFAULT_CAPS).idx.tobytes()
        assert frattini(G).idx.tobytes() == expected, name
        # the soluble route also on p-groups, which frattini answers as P'P^p
        assert _frattini_soluble(G).idx.tobytes() == expected, name


def test_soluble_hall_matches_lattice(corpus):
    for name, G in soluble_cases(corpus):
        primes = _prime_factors(G.order)
        for pi in [{p} for p in primes] + [set(primes) - {p} for p in primes]:
            target = _pi_part(G.order, pi)
            if target in (1, G.order):
                continue
            expected = _hall_by_lattice(G, target, DEFAULT_CAPS)
            assert _hall_by_closure(G, pi).idx.tobytes() == \
                expected.idx.tobytes(), (name, pi)
            assert hall(G, pi).idx.tobytes() == expected.idx.tobytes()


def test_complemented_in_normal_sylow_matches_lattice(corpus):
    for name, G in soluble_cases(corpus):
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            if not P.is_normal():
                continue
            orders = [d for d in range(1, P.order + 1) if P.order % d == 0]
            for H in itertools.chain.from_iterable(
                    subgroups_of_order_in(G, P, d) for d in orders):
                ok, K = is_complemented(G, H)
                assert ok == _complemented_by_lattice(G, H, DEFAULT_CAPS)[0], \
                    (name, p, H.order)
                if ok:  # K is a subgroup of order |G:H| meeting H trivially
                    closed = _kernels.closure_idx(G.table, K.idx)
                    assert int(closed.sum()) == K.order == G.order // H.order
                    assert int((K.mask & H.mask).sum()) == 1, (name, p)


def test_non_soluble_groups_take_the_lattice_route():
    """Hall subgroups and complements of a non-soluble G come from its
    lattice, and so does Phi(G) when the Fitting subgroup F(G) is not 1
    (A5 x C2, F = C2); when F(G) = 1 (A5, GL(3,2)), Phi(G) <= F(G) is 1
    with no lattice built."""
    calls = [lambda G: hall(G, {2, 3}),
             lambda G: is_complemented(G, sylow(G, 2))]
    for build in (general_linear_3_2, lambda: alternating(5)):
        assert not _is_soluble(build())
        for call in calls:
            G = build()
            call(G)
            assert "lattice" in G._cache, G
        G = build()
        assert frattini(G).order == 1 and "lattice" not in G._cache, G
    G = build_directive("dp:alt:5xcyclic:2")
    assert not _is_soluble(G)
    assert frattini(G).order == 1 and "lattice" in G._cache


def _quotient_by_loops(G, N):
    """G/N by a loop over every element of G: the permutation each g
    induces on the cosets, deduplicated by its bytes, then reindexed
    through the target's sorted order; the first g to reach a target
    element is its lex-least preimage. Returns (target element array,
    target generators, push_idx, pull_idx)."""
    table, n = G.table, G.order
    coset_rep = table[N.idx, :].min(axis=0)
    reps = np.unique(coset_rep)
    rep_to_cid = {int(r): c for c, r in enumerate(reps)}
    cid = np.array([rep_to_cid[int(r)] for r in coset_rep], dtype=_DTYPE)
    rows = np.empty((n, len(reps)), dtype=_DTYPE)
    for g in range(n):
        rows[g] = cid[coset_rep[table[reps, g]]]
    key_map, target_rows = {}, []
    push = np.empty(n, dtype=_DTYPE)
    for g in range(n):
        key = rows[g].tobytes()
        if key not in key_map:
            key_map[key] = len(target_rows)
            target_rows.append(rows[g])
        push[g] = key_map[key]
    gens = tuple(sorted({Perm._from_array(rows[G.index_of(p)])
                         for p in G.generators
                         if push[G.index_of(p)] != 0}))
    target = Group(len(reps), np.stack(target_rows))
    reorder = np.array([target.index_of(Perm._from_array(r))
                        for r in target_rows], dtype=_DTYPE)
    push = reorder[push]
    pull = np.full(target.order, -1, dtype=_DTYPE)
    for g in range(n):
        if pull[push[g]] < 0:
            pull[push[g]] = g
    return target.element_array, gens, push, pull


def test_quotient_map_matches_loops(corpus):
    """QuotientMap's gathers against the element loop, over every normal
    subgroup of every corpus group, N = 1 and N = G included."""
    for name, G in corpus:
        normals = normal_subgroups(G)
        assert normals[0].order == 1 and normals[-1].order == G.order, name
        for N in normals:
            q = QuotientMap(G, N)
            elements, gens, push, pull = _quotient_by_loops(G, N)
            assert np.array_equal(q.target.element_array, elements), \
                (name, N)
            assert q.target.generators == gens, (name, N)
            assert np.array_equal(q.push_idx, push), (name, N)
            assert np.array_equal(q.pull_idx, pull), (name, N)


def _quaternion_free_by_quotients(P):
    """No section S/T of P isomorphic to Q8, by the general route: every
    subgroup S of P as a group with its own lattice, and for every normal T
    of index 8 in S, the quotient S/T against Q8 by ``is_isomorphic``."""
    q8 = dicyclic(8)
    for S in all_subgroups(P).all:
        if S.order % 8:
            continue
        s_group = S.as_group()
        for T in all_subgroups(s_group).of_order(S.order // 8):
            if T.is_normal() and is_isomorphic(quotient(s_group, T).target, q8):
                return False
    return True


def two_groups(corpus):
    """Every subgroup of order >= 8 of the Sylow 2-subgroup of every corpus
    group, each as a standalone group, then D8 x D8, Q8 x C4 and Q16 x C2."""
    for name, G in corpus:
        if G.order % 8:
            continue
        P = sylow(G, 2).as_group()
        for i, S in enumerate(all_subgroups(P).all):
            if S.order >= 8:
                yield f"{name} sylow 2 subgroup {i}", S.as_group()
    yield "D8xD8", direct_product(dihedral(8), dihedral(8))
    yield "Q8xC4", direct_product(dicyclic(8), cyclic(4))
    yield "Q16xC2", direct_product(dicyclic(16), cyclic(2))


def test_quaternion_free_matches_quotients(corpus):
    """Both the memoised test and its lattice scan, which skips the abelian
    shortcut, against the general route. Over these 56 groups the scan
    takes 0.12 s on a 2-vCPU host (the general route 0.7 s); the budget
    is 5 s."""
    seconds, kinds = 0.0, set()
    for name, P in two_groups(corpus):
        t0 = time.perf_counter()
        got = (is_quaternion_free(P), _quaternion_free_by_sections(
            P, P.subgroup(np.arange(P.order))))
        seconds += time.perf_counter() - t0
        expected = _quaternion_free_by_quotients(P)
        assert got == (expected, expected), name
        kinds.add(expected)
    assert kinds == {True, False}
    assert seconds < 5.0, f"took {seconds:.1f}s"


def test_q8_criterion_on_the_groups_of_order_8():
    groups = [cyclic(8), direct_product(cyclic(4), cyclic(2)),
              elementary_abelian(2, 3), dihedral(8), dicyclic(8)]
    got = [bool(is_q8_section(G, G.as_subgroup().mask,
                              G.trivial_subgroup().mask)) for G in groups]
    assert got == [is_isomorphic(G, dicyclic(8)) for G in groups]
    assert got == [False] * 4 + [True]


def _constituents_by_isomorphism(module):
    """(homogeneous, constituent dim, every constituent not absolutely
    irreducible) with no Schur shortcut: the constituents compared by
    ``are_isomorphic_modules``, each tested by ``is_absolutely_irreducible``."""
    if module is None:
        return False, 0, False
    mins = minimal_submodules(module)
    constituents = [restrict_to_submodule(module, b) for b in mins]
    semisimple = rref(np.vstack(mins), module.p)[0].shape[0] == module.dim
    homog = semisimple and all(are_isomorphic_modules(constituents[0], c)
                               for c in constituents[1:])
    not_absirr = all(not is_absolutely_irreducible(c) for c in constituents)
    return homog, mins[0].shape[0], not_absirr


def test_section_constituents_match_isomorphism(corpus):
    """The sections P/1 and P/Phi(P) of a normal Sylow p-subgroup P, under a
    Hall p'-complement, on every corpus group that has them."""
    kinds = set()
    for name, G in corpus:
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            H = hall_complement(G, p)
            if H is None or not P.is_normal():
                continue
            phi = lift_subgroup(frattini(P.as_group()), G)
            for below in (G.trivial_subgroup(), phi):
                module = _section_module(G, P, below, H, p)
                got = _section_constituents(G, P, below, H, p, DEFAULT_CAPS)
                assert got == _constituents_by_isomorphism(module), \
                    (name, p, below.order)
                kinds.add(got)
    # homogeneous or not, constituents absolutely irreducible or not
    assert {homog for homog, _, _ in kinds} == {True, False}
    assert {flag for _, _, flag in kinds} == {True, False}
