import itertools

import numpy as np
import pytest

from partialpi.errors import (
    ActingGroupMismatch,
    HypothesisViolated,
    ModuleCapExceeded,
    NotElementaryAbelian,
    NotIrreducible,
    NotNormalized,
    NotSemisimpleContext,
)
from partialpi import _kernels, modrep
from partialpi.groups import group_from_generators, subgroup_generated
from partialpi.modrep import (
    FpModule,
    _all_spins,
    _subspace_key,
    are_isomorphic_modules,
    cyclicity_criterion_check,
    is_absolutely_irreducible,
    is_homogeneous,
    is_irreducible,
    matrix_group_order,
    minimal_submodules,
    module_hom_space_dim,
    nullspace,
    rref,
    section_as_module,
    submodules,
)
from partialpi.perms import parse_cycles
from partialpi.structure import o_p, sylow

A = np.array([[0, 1], [1, 1]])  # order 3 over F_2
R7 = np.array([[0, 6], [1, 6]])  # order 3 over F_7
S7 = np.array([[0, 1], [1, 0]])  # swap


def _diag(m, copies=2):
    k = m.shape[0]
    out = np.zeros((k * copies, k * copies), dtype=np.int64)
    for i in range(copies):
        out[i * k:(i + 1) * k, i * k:(i + 1) * k] = m
    return out


def test_rref_and_nullspace():
    m = np.array([[2, 4, 1], [1, 2, 4]])
    red, piv = rref(m, 5)
    assert red.shape[0] == 2 and piv == (0, 2)
    ns = nullspace(m, 5)
    assert ns.shape[0] == 1
    assert not (m @ ns.T % 5).any()
    # rref is idempotent
    red2, _ = rref(red, 5)
    assert np.array_equal(red, red2)


def test_section_as_module_a4(groups):
    a4 = groups["A4"]
    v4 = o_p(a4, 2)
    c3 = sylow(a4, 3)
    M = section_as_module(a4, v4, a4.trivial_subgroup(), c3, 2)
    assert M.dim == 2 and len(M.acting_gens) == 1
    g = M.acting_gens[0]
    assert np.array_equal(np.linalg.matrix_power(g, 3) % 2, np.eye(2))
    assert is_irreducible(M)


def test_section_trivial_action_and_degenerate(groups):
    a4 = groups["A4"]
    v4 = o_p(a4, 2)
    M = section_as_module(a4, v4, a4.trivial_subgroup(),
                          a4.trivial_subgroup(), 2)
    assert M.dim == 2 and M.acting_gens == ()
    M0 = section_as_module(a4, v4, v4, sylow(a4, 3), 2)
    assert M0.dim == 0


def test_section_errors(groups):
    s4 = groups["S4"]
    d8 = sylow(s4, 2)
    v4 = o_p(s4, 2)
    c3 = sylow(s4, 3)
    with pytest.raises(NotElementaryAbelian):
        # D8/1 is not abelian
        section_as_module(s4, d8, s4.trivial_subgroup(),
                          s4.trivial_subgroup(), 2)
    with pytest.raises(NotNormalized):
        # a C3 does not normalize D8
        section_as_module(s4, d8, s4.trivial_subgroup(), c3, 2)
    c4 = subgroup_generated(s4, [parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(NotElementaryAbelian):
        # C4 has exponent 4
        section_as_module(s4, c4, s4.trivial_subgroup(), c4, 2)
    assert section_as_module(s4, v4, s4.trivial_subgroup(), c3, 2).dim == 2
    # the Heisenberg group mod 3, (x, y) -> (x + a, y + bx + c) on F_3^2, has
    # exponent 3 but is not abelian
    heis = group_from_generators(9, [parse_cycles("(1 4 7)(2 5 8)(3 6 9)", 9),
                                     parse_cycles("(4 5 6)(7 9 8)", 9)])
    assert heis.order == 27
    with pytest.raises(NotElementaryAbelian, match="not abelian"):
        section_as_module(heis, heis.as_subgroup(), heis.trivial_subgroup(),
                          heis.trivial_subgroup(), 3)


def test_submodules_counts():
    M = FpModule(2, 2, [A])
    lat = submodules(M)
    assert len(lat) == 2  # irreducible: 0 and full only
    I2 = FpModule(2, 2, [np.eye(2)])
    assert len(submodules(I2)) == 5
    # identity action: total count is the Gaussian-binomial total and the
    # number of lines is 2^k - 1 (1, 3, 7, 15 for k = 1..4)
    for k, total in [(1, 2), (2, 5), (3, 16), (4, 67)]:
        lat = submodules(FpModule(2, k, [np.eye(k)]))
        assert len(lat) == total
        lines = [s for s in lat.submodules if s.shape[0] == 1]
        assert len(lines) == 2 ** k - 1
    with pytest.raises(ModuleCapExceeded):
        submodules(FpModule(2, 9, [np.eye(9)]))


def test_submodules_are_invariant():
    M = FpModule(2, 4, [_diag(A)])
    lat = submodules(M)
    for sub in lat.submodules:
        for g in M.acting_gens:
            for row in sub:
                img = (g @ row) % 2
                assert rref(np.vstack((sub, img)), 2)[0].shape[0] == sub.shape[0]
    # flags: irreducible = minimal nonzero
    mins = {s.tobytes() for s in minimal_submodules(M)}
    for sub, flag in zip(lat.submodules, lat.irreducible):
        assert flag == (sub.tobytes() in mins)


def test_doubled_module_minimal_counts():
    doubled_c3 = FpModule(2, 4, [_diag(A)])
    mins = minimal_submodules(doubled_c3)
    assert len(mins) == 5 and all(b.shape[0] == 2 for b in mins)
    # frozen spin-oracle regression values for the full invariant lattices:
    # minimals + zero + full (any two distinct minimals already span)
    assert len(submodules(doubled_c3)) == 7
    assert len(submodules(FpModule(7, 4, [_diag(R7), _diag(S7)]))) == 10
    doubled_s3 = FpModule(7, 4, [_diag(R7), _diag(S7)])
    mins = minimal_submodules(doubled_s3)
    assert len(mins) == 8 and all(b.shape[0] == 2 for b in mins)
    expected = {np.hstack((np.zeros((2, 2), np.int64),
                           np.eye(2, dtype=np.int64))).tobytes()}
    for m in range(7):
        expected.add(np.hstack((np.eye(2, dtype=np.int64),
                                m * np.eye(2, dtype=np.int64) % 7)).tobytes())
    assert {rref(b, 7)[0].tobytes() for b in mins} == expected


def test_homogeneity():
    assert is_homogeneous(FpModule(2, 4, [_diag(A)]))
    assert is_homogeneous(FpModule(2, 2, [np.eye(2)]))
    # mixed constituents: A on first block, identity on second
    mixed = np.eye(4, dtype=np.int64)
    mixed[:2, :2] = A
    assert not is_homogeneous(FpModule(2, 4, [mixed]))
    with pytest.raises(NotSemisimpleContext):
        # order-2 matrix group acting in characteristic 2
        is_homogeneous(FpModule(2, 2, [np.array([[1, 1], [0, 1]])]))


def test_hom_space_and_isomorphism():
    M = FpModule(2, 2, [A])
    assert module_hom_space_dim(M, M) == 2  # End = F_4
    assert are_isomorphic_modules(M, M)
    triv = FpModule(2, 1, [np.eye(1)])
    assert module_hom_space_dim(triv, M) == 0
    with pytest.raises(ActingGroupMismatch):
        module_hom_space_dim(M, FpModule(3, 2, [np.eye(2)]))
    with pytest.raises(ActingGroupMismatch):
        module_hom_space_dim(M, FpModule(2, 2, [A, A]))
    # non-isomorphic same-dimension modules
    triv2 = FpModule(2, 2, [np.eye(2)])
    assert not are_isomorphic_modules(M, triv2)
    # isomorphic under a change of basis
    P = np.array([[1, 1], [0, 1]])
    Pinv = np.array([[1, 1], [0, 1]])  # self-inverse mod 2
    conj = FpModule(2, 2, [(P @ A @ Pinv) % 2])
    assert are_isomorphic_modules(M, conj)


def test_hom_basis_matches_kron_reference():
    """The intertwiners X (X a_V(h) = a_W(h) X for every generator h) from
    broadcast blocks, against the nullspace of the stacked Kronecker
    blocks kron(a^T, 1) - kron(1, b), on modules of equal and of
    different dimensions."""
    from partialpi.modrep import _hom_basis
    B = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    pairs = [(FpModule(2, 2, [A]), FpModule(2, 2, [A])),
             (FpModule(7, 2, [R7, S7]), FpModule(7, 2, [R7, S7])),
             (FpModule(2, 1, [np.eye(1)]), FpModule(2, 3, [B])),
             (FpModule(2, 3, [B]), FpModule(2, 2, [np.eye(2)])),
             (FpModule(3, 3, [B, B.T]), FpModule(3, 3, [B.T, B]))]
    for V, W in pairs:
        p = V.p
        blocks = [(np.kron(a.T, np.eye(W.dim, dtype=np.int64))
                   - np.kron(np.eye(V.dim, dtype=np.int64), b)) % p
                  for a, b in zip(V.acting_gens, W.acting_gens)]
        reference = [v.reshape(V.dim, W.dim).T % p
                     for v in nullspace(np.vstack(blocks), p)]
        basis = _hom_basis(V, W)
        assert len(basis) == len(reference)
        for x, y in zip(basis, reference):
            assert np.array_equal(x, y)
            for a, b in zip(V.acting_gens, W.acting_gens):
                assert not ((x @ a - b @ x) % p).any()
    assert [len(_hom_basis(V, W)) for V, W in pairs] == [2, 1, 1, 2, 3]


def test_absolute_irreducibility():
    assert not is_absolutely_irreducible(FpModule(2, 2, [A]))  # End = F_4
    assert is_absolutely_irreducible(FpModule(2, 1, [np.eye(1)]))
    s3mod = FpModule(7, 2, [R7, S7])
    assert is_absolutely_irreducible(s3mod)
    assert module_hom_space_dim(s3mod, s3mod) == 1
    with pytest.raises(NotIrreducible):
        is_absolutely_irreducible(FpModule(2, 2, [np.eye(2)]))


def test_schur_property_exhaustive():
    # every nonzero endomorphism of an irreducible module is invertible
    for mod in (FpModule(2, 2, [A]), FpModule(7, 2, [R7, S7]),
                FpModule(3, 2, [np.array([[0, 2], [1, 0]])])):
        assert is_irreducible(mod)
        from partialpi.modrep import _hom_basis
        basis = _hom_basis(mod, mod)
        p = mod.p
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if not any(coeffs):
                continue
            x = sum(c * b for c, b in zip(coeffs, basis)) % p
            assert rref(x, p)[0].shape[0] == mod.dim


def test_end_dimension_divides_dim():
    for mod in (FpModule(2, 2, [A]), FpModule(7, 2, [R7, S7]),
                FpModule(3, 2, [np.array([[0, 2], [1, 0]])]),
                FpModule(2, 4, [np.array([[0, 0, 0, 1], [1, 0, 0, 1],
                                          [0, 1, 0, 1], [0, 0, 1, 1]])])):
        if is_irreducible(mod):
            e = module_hom_space_dim(mod, mod)
            assert mod.dim % e == 0


def test_homogeneity_basis_invariant():
    rng = np.random.default_rng(99)
    base = FpModule(2, 4, [_diag(A)])
    expected = is_homogeneous(base)
    found = 0
    while found < 3:
        P = rng.integers(0, 2, size=(4, 4)).astype(np.int64)
        if round(np.linalg.det(P)) % 2 == 0:
            continue
        found += 1
        red, piv = rref(P, 2)
        # inverse mod 2 via augmented elimination
        aug = np.hstack((P, np.eye(4, dtype=np.int64)))
        r, _ = rref(aug, 2)
        Pinv = r[:, 4:]
        conj = FpModule(2, 4, [(P @ _diag(A) @ Pinv) % 2])
        assert is_homogeneous(conj) == expected


def test_matrix_group_order():
    assert matrix_group_order([A], 2) == 3
    assert matrix_group_order([R7, S7], 7) == 6
    assert matrix_group_order([], 5) == 1


def test_cyclicity_criterion(groups):
    a4 = groups["A4"]
    c3 = sylow(a4, 3)
    M = section_as_module(a4, o_p(a4, 2), a4.trivial_subgroup(), c3, 2)
    assert cyclicity_criterion_check(c3, M)  # cyclic, End = F_4
    # S3 on F_7^2: noncyclic, absolutely irreducible
    s3 = groups["S3"]
    sub = s3.as_subgroup()
    mats = [S7 if g.order() == 2 else R7 for g in sub.generators]
    assert cyclicity_criterion_check(sub, FpModule(7, 2, mats))
    with pytest.raises(HypothesisViolated):
        cyclicity_criterion_check(c3, FpModule(2, 1, [np.eye(1)]))  # dim 1
    with pytest.raises(HypothesisViolated):
        cyclicity_criterion_check(c3, FpModule(3, 2, [np.eye(2)]))  # p | |H|
    with pytest.raises(HypothesisViolated):
        # reducible: identity action of the wrong shape
        cyclicity_criterion_check(c3, FpModule(2, 2, [np.eye(2)]))


def _direct_sum(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


I1, I2, I4, I6, I8 = (np.eye(k, dtype=np.int64) for k in (1, 2, 4, 6, 8))
J2 = np.array([[1, 1], [0, 1]])  # order 5 over F_5, not semisimple


@pytest.mark.parametrize("V, W, expected", [
    # hom space of F_2-dimension 4: every nonzero intertwiner is tried
    (FpModule(2, 2, [I2]), FpModule(2, 2, [I2]), True),
    (FpModule(2, 4, [_direct_sum(A, A)]), FpModule(2, 4, [_direct_sum(A, I2)]),
     False),
    # dimension 64: seeded sampling finds an invertible intertwiner
    (FpModule(2, 8, [I8]), FpModule(2, 8, [I8]), True),
    # dimension 28, nothing invertible: semisimple, constituents differ
    (FpModule(2, 8, [_direct_sum(I6, A)]),
     FpModule(2, 8, [_direct_sum(I4, A, A)]), False),
    # dimension 6 over F_5, not semisimple: the exhaustive last resort
    (FpModule(5, 3, [_direct_sum(J2, I1)]), FpModule(5, 3, [np.eye(3)]),
     False),
], ids=["exhaustive-iso", "exhaustive-not-iso", "sampling",
        "constituents", "last-resort"])
def test_isomorphism_fallbacks(V, W, expected):
    assert are_isomorphic_modules(V, W) is expected


def _all_spins_every_vector(M):
    """Reference for ``modrep._all_spins``: spin every nonzero vector, not
    one per line."""
    mats = M.gens_array()
    spins = {}
    for v in itertools.product(range(M.p), repeat=M.dim):
        if any(v):
            basis, _, nrows = _kernels.spin_basis(
                mats, np.array(v, dtype=np.int64), M.p)
            sub = basis[:nrows].copy()
            spins.setdefault(_subspace_key(sub), sub)
    return spins


def _random_modules(p, rng, count=12):
    """Modules of dimension 1-3 with 0-2 invertible generators; half of them
    block upper triangular, so reducible ones come up too."""
    modules = []
    while len(modules) < count:
        k = int(rng.integers(1, 4))
        split, count_gens = int(rng.integers(1, k + 1)), int(rng.integers(0, 3))
        gens = []
        while len(gens) < count_gens:
            m = rng.integers(0, p, size=(k, k)).astype(np.int64)
            if len(modules) % 2:
                m[split:, :split] = 0
            if rref(m, p)[0].shape[0] == k:
                gens.append(m)
        modules.append(FpModule(p, k, gens))
    return modules


@pytest.mark.parametrize("p", [3, 5, 7])
def test_spins_of_one_vector_per_line_match_every_vector(p, monkeypatch):
    """Submodules, minimal submodules and irreducibility from one spun vector
    per line equal those from every nonzero vector."""
    kinds = set()
    for M in _random_modules(p, np.random.default_rng(p)):
        reference = _all_spins_every_vector(M)
        assert _all_spins(M).keys() == reference.keys()
        got = (submodules(M), minimal_submodules(M), is_irreducible(M))
        with monkeypatch.context() as patch:
            patch.setattr(modrep, "_all_spins", _all_spins_every_vector)
            expected = (submodules(M), minimal_submodules(M))
        for a, b in [(got[0].submodules, expected[0].submodules),
                     (got[1], expected[1])]:
            assert len(a) == len(b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert got[0].irreducible == expected[0].irreducible
        irreducible = all(s.shape[0] == M.dim for s in reference.values())
        assert got[2] == irreducible
        kinds.add(irreducible)
    assert kinds == {True, False}
