"""Brute-force cross-checks of the enumeration machinery.

These oracles share nothing with the production paths: closures are taken
over raw Perm arithmetic and subsets, so they catch errors in the kernels,
the cyclic-extension strategy and the extension of normal subgroups by class
closures.
"""

import itertools

from partialpi.chiefs import normal_subgroups
from partialpi.groups import elementary_abelian, normalizer
from partialpi.structure import (
    all_subgroups,
    hypercenter_u,
    hypercenter_up,
    p_supersoluble,
    supersoluble,
)
from partialpi.chiefs import _prime_factors


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
    for name in ("S3", "D8", "Q8", "C2^3", "A4", "SD16", "S4", "A4xC2"):
        G = groups[name]
        brute = brute_subgroups(G, 3)
        lattice = {frozenset(p.images for p in s.members)
                   for s in all_subgroups(G).all}
        assert lattice == brute, name


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


def test_hypercenter_characterizes_supersolubility(corpus):
    for name, G in corpus:
        if G.order > 100:
            continue
        assert (hypercenter_u(G).order == G.order) == supersoluble(G), name
        for p in _prime_factors(G.order):
            assert (hypercenter_up(G, p).order == G.order) == \
                p_supersoluble(G, p), (name, p)
