import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from partialpi.config import Caps
from partialpi.errors import (
    BadAction,
    ClosureCapExceeded,
    ElementNotInGroup,
    IsoCapExceeded,
    NotNormal,
)
from partialpi.groupfile import build_directive
from partialpi.groups import (
    _lex_sorted,
    alternating,
    center,
    core,
    cyclic,
    derived_subgroup,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    general_linear_3_2,
    group_from_generators,
    is_isomorphic,
    normalizer,
    quotient,
    semidihedral,
    semidirect_product,
    special_linear_2_3,
    subgroup_generated,
    symmetric,
    trivial_group,
    vector_action_group,
)
from partialpi.perms import _DTYPE, Perm, parse_cycles


def test_group_from_generators_examples():
    g = group_from_generators(3, [parse_cycles("(1 2 3)", 3)])
    assert g.order == 3
    s4 = group_from_generators(4, [parse_cycles("(1 2 3 4)", 4),
                                   parse_cycles("(1 2)", 4)])
    assert s4.order == 24
    assert group_from_generators(1, []).order == 1


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        group_from_generators(5, [parse_cycles("(1 2 3 4 5)", 5),
                                  parse_cycles("(1 2)", 5)],
                              caps=Caps(closure=100))


@pytest.mark.parametrize("degree, gens, order", [
    (5, ["(1 2 3 4 5)", "(1 2)"], 120),  # S5
    (12, ["(1 2 3 4 5 6 7 8 9 10 11 12)"], 12),  # C12: twelve levels
])
def test_closure_cap_boundary(degree, gens, order):
    gens = [parse_cycles(text, degree) for text in gens]
    G = group_from_generators(degree, gens, caps=Caps(closure=order))
    assert G.order == order
    assert np.array_equal(G.element_array,
                          group_from_generators(degree, gens).element_array)
    with pytest.raises(ClosureCapExceeded):
        group_from_generators(degree, gens, caps=Caps(closure=order - 1))


@pytest.mark.parametrize("degree", [1, 4])
def test_closure_cap_boundary_trivial(degree):
    """The cap counts the elements added to the identity, so the trivial
    group builds at closure 1 and, adding nothing, at closure 0 too."""
    for closure in (1, 0):
        G = group_from_generators(degree, (), caps=Caps(closure=closure))
        assert G.order == 1 and G.generators == ()
        assert np.array_equal(G.element_array,
                              np.arange(degree, dtype=_DTYPE)[None, :])
        assert G.table.tolist() == [[0]]


def test_elements_sorted_and_identity_first():
    s3 = symmetric(3)
    rows = s3.element_array
    assert (rows[0] == np.arange(3)).all()
    for i in range(len(rows) - 1):
        assert tuple(rows[i]) < tuple(rows[i + 1])


def test_generators_in_elements_and_lagrange():
    for g in (symmetric(4), alternating(4), dicyclic(8), dihedral(10)):
        for gen in g.generators:
            assert gen in g
        assert math.factorial(g.degree) % g.order == 0
        # the row compare finds every element where the element index does
        assert g.indices_of(g.elements).tolist() == list(range(g.order))
        assert g.indices_of(g.generators).tolist() == \
            [g.index_of(gen) for gen in g.generators]
        assert g.indices_of([]).tolist() == []


def test_subgroup_generated():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [parse_cycles("(1 2)(3 4)", 4),
                                 parse_cycles("(1 3)(2 4)", 4)])
    assert v4.order == 4
    assert subgroup_generated(s4, []).order == 1
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    assert c4.order == 4
    with pytest.raises(ElementNotInGroup):
        subgroup_generated(alternating(4), [parse_cycles("(1 2)", 4)])
    with pytest.raises(ElementNotInGroup):
        subgroup_generated(s4, [parse_cycles("(1 2)", 5)])
    # Lagrange on every generated subgroup
    for gens in [["(1 2)"], ["(1 2 3)"], ["(1 2)", "(3 4)"]]:
        H = subgroup_generated(s4, [parse_cycles(t, 4) for t in gens])
        assert s4.order % H.order == 0


def _indices_by_compare_all(G, perms):
    """Each Perm's row compared with every element row at once."""
    rows = np.array([p.array for p in perms]).reshape(len(perms), 1, G.degree)
    found, idx = (G.element_array == rows).all(axis=2).nonzero()
    return found, idx


def test_indices_of_matches_compare_all(corpus):
    """The base-key lookup finds every element of every corpus group and of
    ``cyclic(2049)`` (whose element rows are wider than 8 KiB) at its own
    row, and agrees with the compare with every element row on 20 seeded
    random permutations of each group's points: a perm outside the group,
    though it may share its base key with an element, raises
    ElementNotInGroup and is not ``in`` it, also in a list with elements
    or with a perm of another degree."""
    rng = np.random.default_rng(1)
    outside = 0
    for name, G in list(corpus) + [("cyclic:2049", cyclic(2049))]:
        assert (G.indices_of(G.elements) == np.arange(G.order)).all(), name
        for _ in range(20):
            perm = Perm._from_array(rng.permutation(G.degree))
            found, idx = _indices_by_compare_all(G, [perm])
            if len(idx):
                assert G.index_of(perm) == idx[0] and perm in G, name
                continue
            outside += 1
            assert perm not in G, name
            with pytest.raises(ElementNotInGroup):
                G.indices_of([G.elements[-1], perm])
    assert outside > 500
    with pytest.raises(ElementNotInGroup):
        symmetric(4).index_of(parse_cycles("(1 2)", 5))
    s4 = symmetric(4)
    with pytest.raises(ElementNotInGroup):
        s4.indices_of([s4.elements[1], parse_cycles("(1 2)", 5)])


def brute_normalizer(G, H):
    mem = set(H.members)
    return [g for g in G.elements
            if all(g.inverse() * h * g in mem for h in mem)]


def test_normalizer_examples_and_oracle():
    s4 = symmetric(4)
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    n = normalizer(s4, c4)
    assert n.order == 8
    assert n.contains(c4)
    a4 = alternating(4)
    h = subgroup_generated(a4, [parse_cycles("(1 2)(3 4)", 4)])
    assert normalizer(a4, h).order == 4
    # H normal => normalizer is everything
    v4 = subgroup_generated(s4, [parse_cycles("(1 2)(3 4)", 4),
                                 parse_cycles("(1 3)(2 4)", 4)])
    assert normalizer(s4, v4).order == 24
    # brute-force agreement
    for H in (c4, v4, h.ambient.trivial_subgroup()):
        G = H.ambient
        assert sorted(p.images for p in normalizer(G, H).members) == \
            sorted(p.images for p in brute_normalizer(G, H))


def test_core_examples():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [parse_cycles("(1 2)(3 4)", 4),
                                 parse_cycles("(1 3)(2 4)", 4)])
    assert core(s4, v4).order == 4  # normal: core = H
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    # independent oracle: intersect all conjugates directly
    mem = set(c4.members)
    inter = set(mem)
    for g in s4.elements:
        inter &= {g.inverse() * h * g for h in mem}
    got = core(s4, c4)
    assert {p.images for p in got.members} == {p.images for p in inter}
    assert got.order == 1  # the three C4's of S4 meet trivially
    assert got.is_normal()
    s3 = symmetric(3)
    c2 = subgroup_generated(s3, [parse_cycles("(1 2)", 3)])
    assert core(s3, c2).order == 1


def test_quotient_examples():
    s4 = symmetric(4)
    v4 = subgroup_generated(s4, [parse_cycles("(1 2)(3 4)", 4),
                                 parse_cycles("(1 3)(2 4)", 4)])
    q = quotient(s4, v4)
    assert q.target.order == 6
    assert is_isomorphic(q.target, symmetric(3))
    g = cyclic(6)
    assert quotient(g, g.trivial_subgroup()).target.order == 6
    assert quotient(g, g.as_subgroup()).target.order == 1
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(NotNormal):
        quotient(s4, c4)


@pytest.mark.parametrize("builder", [
    lambda: symmetric(4),
    lambda: dicyclic(12),
    lambda: semidirect_product(3, 2, [[2, 0], [0, 2]], 2),
])
def test_quotient_push_is_homomorphism_exhaustive(builder):
    G = builder()
    assert G.order <= 100
    from partialpi.chiefs import normal_subgroups
    for N in normal_subgroups(G):
        q = quotient(G, N)
        assert q.target.order * N.order == G.order
        push = q.push
        for g1, g2 in itertools.product(G.elements, G.elements):
            assert push(g1 * g2) == push(g1) * push(g2)
        for h in q.target.elements:
            assert q.push(q.pull(h)) == h


def test_direct_product():
    c2 = cyclic(2)
    v4 = direct_product(c2, c2)
    assert v4.order == 4
    assert all(int(o) <= 2 for o in v4.element_orders)
    big = direct_product(elementary_abelian(2, 2), elementary_abelian(2, 2))
    assert big.order == 16 and all(int(o) <= 2 for o in big.element_orders)
    s3c2 = direct_product(symmetric(3), cyclic(2))
    assert s3c2.order == 12
    with pytest.raises(ClosureCapExceeded):
        direct_product(symmetric(4), symmetric(4), caps=Caps(closure=100))


def test_semidirect_product():
    g = semidirect_product(2, 2, [[0, 1], [1, 1]], 3)
    assert g.order == 12
    assert is_isomorphic(g, alternating(4))
    s3 = semidirect_product(3, 1, [[2]], 2)
    assert s3.order == 6 and is_isomorphic(s3, symmetric(3))
    ea = semidirect_product(5, 1, [[1]], 1)
    assert ea.order == 5
    trivial_action = semidirect_product(2, 2, [[1, 0], [0, 1]], 3)
    assert trivial_action.order == 12  # direct product (C2)^2 x C3
    with pytest.raises(BadAction):
        semidirect_product(2, 2, [[1, 1], [1, 1]], 2)  # singular
    with pytest.raises(BadAction):
        semidirect_product(2, 2, [[0, 1], [1, 1]], 2)  # A^2 != I
    with pytest.raises(BadAction):
        semidirect_product(2, 1, [[1]], 2)  # gcd(m, p) != 1


def test_sylow_part_of_semidirect():
    g = semidirect_product(2, 4,
                           [[0, 1, 0, 0], [1, 1, 0, 0],
                            [0, 0, 0, 1], [0, 0, 1, 1]], 3)
    assert g.order == 48
    from partialpi.structure import sylow
    P = sylow(g, 2)
    assert P.order == 16
    assert all(int(o) <= 2 for o in g.element_orders[P.idx])


def test_named_constructors():
    assert trivial_group().order == 1
    assert cyclic(12).order == 12
    assert dihedral(16).order == 16
    assert dicyclic(16).order == 16
    assert semidihedral(16).order == 16
    assert special_linear_2_3().order == 24
    assert general_linear_3_2().order == 168
    assert vector_action_group(7, 2, [[[0, 6], [1, 6]], [[0, 1], [1, 0]]]).order == 294
    # defining relations of the dicyclic family: b^2 = a^n, a^b = a^-1
    for order in (8, 12, 16):
        q = dicyclic(order)
        a, b = q.generators if q.generators[0].order() > 2 else q.generators[::-1]
        n = order // 4
        assert a.order() == 2 * n
        assert b * b == a ** n
        assert b.inverse() * a * b == a.inverse()
    # semidihedral relation: a^b = a^(2^(n-2) - 1)
    sd = semidihedral(16)
    a = next(p for p in sd.elements if p.order() == 8)
    bs = [p for p in sd.elements if p.order() == 2
          and p.inverse() * a * p == a ** 3]
    assert bs, "semidihedral relation witness"


def test_is_isomorphic_examples():
    a4 = alternating(4)
    assert is_isomorphic(a4, a4)
    assert not is_isomorphic(dihedral(8), dicyclic(8))
    assert is_isomorphic(semidirect_product(2, 2, [[0, 1], [1, 1]], 3), a4)
    # different orders
    assert not is_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert not is_isomorphic(cyclic(6), symmetric(3))
    with pytest.raises(IsoCapExceeded):
        is_isomorphic(symmetric(4), symmetric(4), caps=Caps(iso=10))


def test_is_isomorphic_equivalence_relation(groups):
    names = ["S3", "A4", "Q8", "D8", "C12", "V4"]
    gs = [groups[n] for n in names]
    for g in gs:
        assert is_isomorphic(g, g)
    for a, b in itertools.combinations(gs, 2):
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
    # transitivity on a sampled triple of isomorphic groups
    from partialpi.groups import semidirect_product as sdp
    t1 = alternating(4)
    t2 = sdp(2, 2, [[0, 1], [1, 1]], 3)
    t3 = sdp(2, 2, [[1, 1], [1, 0]], 3)
    assert is_isomorphic(t1, t2) and is_isomorphic(t2, t3) \
        and is_isomorphic(t1, t3)


from hypothesis import given, settings, strategies as st


@given(st.lists(st.permutations(list(range(1, 6))), min_size=0, max_size=2))
@settings(max_examples=25, deadline=None)
def test_random_generated_group_invariants(images_list):
    gens = [__import__("partialpi.perms", fromlist=["Perm"]).Perm(imgs)
            for imgs in images_list]
    G = group_from_generators(5, gens)
    assert math.factorial(5) % G.order == 0
    for g in gens:
        assert g in G
    # closed under composition and inverse
    for a in G.elements[:6]:
        for b in G.elements[:6]:
            assert a * b in G
        assert a.inverse() in G
    H = subgroup_generated(G, gens[:1])
    N = normalizer(G, H)
    assert N.contains(H)
    assert core(G, H).is_normal()


def test_center_and_derived():
    s3 = symmetric(3)
    assert center(s3).order == 1
    assert derived_subgroup(s3).order == 3
    q8 = dicyclic(8)
    assert center(q8).order == 2
    assert derived_subgroup(symmetric(4)).order == 12


def _high_degree_cases():
    # 7 disjoint transpositions on 700 points: 700**7 > 2**63
    c2_7 = group_from_generators(700, [
        parse_cycles(f"({100 * k + 1},{100 * k + 100})", 700)
        for k in range(7)])
    # C3^6 as 6 disjoint 3-cycles on 900 points
    c3_6 = group_from_generators(900, [
        parse_cycles(f"({150 * k + 1},{150 * k + 75},{150 * k + 150})", 900)
        for k in range(6)])
    return [("C2^7 on 700", c2_7), ("C3^6 on 900", c3_6)]


def _table_cases(corpus):
    cases = [G for _, G in corpus if G.order <= 120]
    cases.append(trivial_group())
    return cases + [G for _, G in _high_degree_cases()]


def test_table_matches_perm_arithmetic(corpus):
    rng = np.random.default_rng(0)
    for G in _table_cases(corpus):
        n = G.order
        table = G.table
        assert table.shape == (n, n)
        if n <= 120:
            pairs = itertools.product(range(n), repeat=2)
            xs = range(n)
        else:  # the high-degree cases: seeded samples
            pairs = rng.integers(0, n, size=(1000, 2)).tolist()
            xs = rng.integers(0, n, size=4).tolist()
        for i, j in pairs:
            assert table[i, j] == G.index_of(G.perm(i) * G.perm(j)), (G, i, j)
        for x in range(n):
            assert G.perm(int(G.inverses[x])) == G.perm(x).inverse(), (G, x)
        elements = G.elements
        for x in xs:
            least = min(G.index_of(elements[x].conjugate(g)) for g in elements)
            assert G.class_reps[x] == least, (G, x)


def _pool_groups():
    """The groups of the check-pi benchmark pool, built from their
    directives."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
            / "check-pi-pool.json")
    pool = json.loads(path.read_text(encoding="utf-8"))["groups"]
    return [(g["name"], build_directive(g["directive"])) for g in pool]


def test_lex_sorted_matches_full_lexsort():
    """The prefix sort gives the order of a lexsort on every column: on
    shuffled rows of every check-pi pool group, and on C2 on points 9-10 at
    degrees 10 and 20, whose rows tie on their first 8 columns."""
    rng = np.random.default_rng(10)
    c2s = [group_from_generators(degree, [parse_cycles("(9 10)", degree)])
           for degree in (10, 20)]
    for G in c2s:
        assert (G.element_array[:, :8] == np.arange(8)).all()
    for G in [G for _, G in _pool_groups()] + c2s:
        rows = G.element_array[rng.permutation(G.order)]
        expected = rows[np.lexsort(rows[:, ::-1].T)]
        got = _lex_sorted(rows)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected), G


def test_whole_table_matches_composed_rows():
    """Every entry of the Cayley table against the composed image rows,
    elts[j][elts[i]] for element i then element j, on every check-pi pool
    group (orders up to 324) and the high-degree cases, in row blocks."""
    cases = _pool_groups() + _high_degree_cases()
    for name, G in cases:
        elts, table, n = G.element_array, G.table, G.order
        block = max(1, 2 ** 21 // (n * G.degree))
        for lo in range(0, n, block):
            rows = elts[lo:lo + block]
            composed = elts[:, rows].transpose(1, 0, 2)  # [i, j] = j after i
            assert np.array_equal(elts[table[lo:lo + block]], composed), \
                (name, lo)
    names = {name for name, _ in cases}
    assert {"GL(3,2)", "A4xA4", "F7^2:S3", "C3^4:C4"} <= names


def test_element_orders_match_perm_order(corpus):
    for name, G in corpus:
        if G.order > 120:
            continue
        expected = [x.order() for x in G.elements]
        assert G.element_orders.tolist() == expected, name
