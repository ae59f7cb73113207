"""The batched module layer against the loop implementations it replaced.

``modrep`` row-reduces and spins whole stacks at once (``_kernels.echelon``
and ``_kernels.spin_basis``). The references below are the row-by-row,
vector-by-vector and coset-by-coset loops that did the same work before:
a pivot search and one row operation at a time, one spin per line vector,
pairwise containment tests, pairwise sums, and a dictionary walk over the
cosets of a section. Every output is compared exactly: bases, key order,
flags and matrices.
"""

import numpy as np
import pytest

from partialpi import theorems
from partialpi.corpus import builtin_corpus
from partialpi.errors import ClosureCapExceeded, NotSemisimpleContext
from partialpi.modrep import (
    FpModule,
    _all_spins,
    _subspace_key,
    homogeneous_constituents,
    is_irreducible,
    matrix_group_order,
    minimal_submodules,
    module_hom_space_dim,
    nullspace,
    rref,
    section_as_module,
    submodules,
)
from test_kernels import _spin_basis_loop

PRIMES = (2, 3, 5, 7)


# -- loop references -----------------------------------------------------------


def _rref_loop(mat, p):
    """(reduced row echelon form, pivot columns); zero rows dropped."""
    m = np.array(mat, dtype=np.int64) % p
    if m.ndim != 2:
        m = m.reshape(1, -1)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if m[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], tuple(pivots)


def _nullspace_loop(mat, p):
    mat = np.array(mat, dtype=np.int64) % p
    if mat.size == 0:
        return np.eye(mat.shape[1] if mat.ndim == 2 else 0, dtype=np.int64)
    red, pivots = _rref_loop(mat, p)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        out[i, f] = 1
        for r, c in enumerate(pivots):
            out[i, c] = (-red[r, f]) % p
    return out


def _contains_loop(big, small, p):
    if small.shape[0] == 0:
        return True
    return _rref_loop(np.vstack((big, small)), p)[0].shape[0] == big.shape[0]


def _line_vectors_loop(p, k):
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for j in range(k):
        for code in range(p ** j, 2 * p ** j):
            yield (code // weights) % p


def _all_spins_loop(M):
    mats = np.array([np.array(a) for a in M.acting_gens],
                    dtype=np.int64).reshape(-1, M.dim, M.dim)
    spins = {}
    for v in _line_vectors_loop(M.p, M.dim):
        basis, _, nrows = _spin_basis_loop(mats, v, M.p)
        sub = basis[:nrows].copy()
        spins.setdefault(_subspace_key(sub), sub)
    return spins


def _minimal_loop(spins, p):
    subs = [spins[key] for key in sorted(spins)]
    return [s for s in subs if not any(
        0 < t.shape[0] < s.shape[0] and _contains_loop(s, t, p)
        for t in subs)]


def _submodules_loop(M):
    p = M.p
    zero = np.zeros((0, M.dim), dtype=np.int64)
    spins = _all_spins_loop(M)
    found = {_subspace_key(zero): zero}
    found.update(spins)
    work = list(found.values())
    while work:
        a = work.pop()
        for b in list(found.values()):
            if a.shape[0] == 0 or b.shape[0] == 0:
                continue
            s, _ = _rref_loop(np.vstack((a, b)), p)
            key = _subspace_key(s)
            if key not in found:
                found[key] = s
                work.append(s)
    subs = sorted(found.values(), key=lambda s: (s.shape[0], _subspace_key(s)))
    minimal = {_subspace_key(s) for s in _minimal_loop(spins, p)}
    return subs, [_subspace_key(s) in minimal for s in subs]


def _restrict_loop(M, basis):
    _, pivots = _rref_loop(basis, M.p)
    mats = []
    for a in M.acting_gens:
        images = basis @ a.T % M.p
        mats.append(images[:, list(pivots)].T % M.p)
    return mats


def _hom_dim_loop(V, W):
    if V.dim == 0 or W.dim == 0:
        return 0
    if not V.acting_gens:
        return V.dim * W.dim
    blocks = [(np.kron(a.T, np.eye(W.dim, dtype=np.int64))
               - np.kron(np.eye(V.dim, dtype=np.int64), b)) % V.p
              for a, b in zip(V.acting_gens, W.acting_gens)]
    return len(_nullspace_loop(np.vstack(blocks), V.p))


def _homogeneous_loop(M):
    """(homogeneous, constituent matrices) as the spin-by-spin code read
    them; the error the code raises when p divides the order of the acting
    image or the image is too large to enumerate."""
    if M.dim == 0:
        return True, []
    try:
        if matrix_group_order(M.acting_gens, M.p) % M.p == 0:
            return NotSemisimpleContext
    except ClosureCapExceeded:
        return ClosureCapExceeded
    mins = _minimal_loop(_all_spins_loop(M), M.p)
    constituents = [FpModule(M.p, len(b), _restrict_loop(M, b)) for b in mins]
    semisimple = _rref_loop(np.vstack(mins), M.p)[0].shape[0] == M.dim
    homog = semisimple and all(_hom_dim_loop(constituents[0], c) > 0
                               for c in constituents[1:])
    return homog, [c.acting_gens for c in constituents]


def _section_loop(G, above, below, H, p):
    """The coordinates of a section by a walk over its cosets."""
    table, inv = G.table, G.inverses
    ratio = above.order // below.order
    dim = 0
    while p ** dim < ratio:
        dim += 1
    coset_rep = table[below.idx, :].min(axis=0)
    reps = np.unique(coset_rep[above.idx])
    assigned = {int(reps[0]): ()}
    basis_elems = []
    for r in reps:
        r = int(r)
        if r in assigned:
            continue
        basis_elems.append(r)
        extended = dict(assigned)
        for x_rep, vec in assigned.items():
            cur = x_rep
            for t in range(1, p):
                cur = int(coset_rep[table[cur, r]])
                extended[cur] = vec + (t,)
        for x_rep, vec in assigned.items():
            extended[x_rep] = vec + (0,)
        assigned = extended
    mats = []
    for hi in G.indices_of(H.generators):
        col = [assigned[int(coset_rep[int(table[table[int(inv[hi]), b], hi])])]
               for b in basis_elems]
        mats.append(np.array(col, dtype=np.int64).reshape(dim, dim).T % p)
    return dim, mats


# -- inputs ----------------------------------------------------------------------

# the largest dimension whose every line the loop references can spin, and
# whose subspaces their pairwise closure can sum, per prime
MAX_DIM = {2: 6, 3: 4, 5: 3, 7: 3}


def _invertible(rng, p, k):
    while True:
        m = rng.integers(0, p, size=(k, k))
        if _rref_loop(m, p)[0].shape[0] == k:
            return m


def _random_modules(p, rng, count):
    """Modules of dim 1 .. MAX_DIM[p] with 0 - 3 generators: random
    invertible ones, block upper triangular ones (reducible), unipotent
    ones (p divides the image order, so not semisimple), and redundant
    ones (a generator repeated, the identity, a scalar)."""
    modules = []
    for i in range(count):
        k = int(rng.integers(1, MAX_DIM[p] + 1))
        kind = i % 4
        gens = [_invertible(rng, p, k) for _ in range(int(rng.integers(0, 3)))]
        if kind == 1 and k > 1:  # reducible: block upper triangular
            split = int(rng.integers(1, k))
            for g in gens:
                g[split:, :split] = 0
            gens = [g for g in gens if _rref_loop(g, p)[0].shape[0] == k]
        elif kind == 2:  # unipotent: upper unitriangular
            gens = [np.triu(rng.integers(0, p, size=(k, k)), 1) + np.eye(k, dtype=np.int64)
                    for _ in range(int(rng.integers(1, 3)))]
        elif kind == 3:  # redundant generators
            gens = gens + gens[:1] + [np.eye(k, dtype=np.int64),
                                      (p - 1) * np.eye(k, dtype=np.int64)]
        modules.append(FpModule(p, k, gens))
    return modules


def _same_bases(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


# -- the kernels and linear algebra ----------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_rref_and_nullspace_match_loops(p):
    """From 1 x 1 up to 80 x 16: random, sparse, zero, rank-deficient and
    wide matrices, and a vector."""
    rng = np.random.default_rng(100 + p)
    shapes = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (7, 3), (8, 8),
              (12, 6), (20, 16), (80, 16)]
    cases = [np.zeros((3, 4), np.int64), np.zeros((0, 4), np.int64),
             rng.integers(-20, 20, size=6)]
    for rows, cols in shapes:
        cases.append(rng.integers(0, p, size=(rows, cols)))
        cases.append(rng.integers(0, p, size=(rows, cols))
                     * (rng.random((rows, cols)) < 0.3))
        low = rng.integers(0, p, size=(rows, 2)) @ rng.integers(0, p, size=(2, cols))
        cases.append(low)
    for mat in cases:
        red, pivots = rref(mat, p)
        ref_red, ref_pivots = _rref_loop(mat, p)
        assert red.dtype == ref_red.dtype
        assert np.array_equal(red, ref_red) and pivots == ref_pivots
        assert red.tobytes() == ref_red.tobytes()
        if np.asarray(mat).ndim == 2:
            assert np.array_equal(nullspace(mat, p), _nullspace_loop(mat, p))


# -- module algebra on random modules ---------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_random_modules_match_loops(p):
    rng = np.random.default_rng(200 + p)
    kinds = set()
    for M in _random_modules(p, rng, 16):
        spins = _all_spins(M)
        reference = _all_spins_loop(M)
        assert list(spins) == list(reference)
        assert _same_bases(list(spins.values()), list(reference.values()))
        assert _same_bases(minimal_submodules(M), _minimal_loop(reference, p))
        lattice = submodules(M)
        subs, flags = _submodules_loop(M)
        assert _same_bases(lattice.submodules, subs)
        assert lattice.irreducible == flags
        irreducible = all(s.shape[0] == M.dim for s in reference.values())
        assert is_irreducible(M) == irreducible
        kinds.add(irreducible)
        assert module_hom_space_dim(M, M) == _hom_dim_loop(M, M)
        expected = _homogeneous_loop(M)
        if isinstance(expected, type):
            kinds.add(expected)
            with pytest.raises(expected):
                homogeneous_constituents(M)
            continue
        homog, constituents = homogeneous_constituents(M)
        assert homog == expected[0]
        assert len(constituents) == len(expected[1])
        for c, gens in zip(constituents, expected[1]):
            assert _same_bases(c.acting_gens, gens)
    assert {True, False, NotSemisimpleContext} <= kinds


def test_hom_dims_between_random_modules_match_loops():
    """Hom spaces between distinct modules over one acting group, of equal
    and of different dimensions."""
    rng = np.random.default_rng(7)
    for p in PRIMES:
        for _ in range(6):
            count = int(rng.integers(0, 3))
            v, w = (int(x) for x in rng.integers(1, 4, size=2))
            V = FpModule(p, v, [_invertible(rng, p, v) for _ in range(count)])
            W = FpModule(p, w, [_invertible(rng, p, w) for _ in range(count)])
            assert module_hom_space_dim(V, W) == _hom_dim_loop(V, W)
            assert module_hom_space_dim(W, V) == _hom_dim_loop(W, V)


# -- every section of the builtin sweep --------------------------------------------


@pytest.fixture(scope="module")
def sweep_sections(monkeypatch_module):
    """The arguments and modules of every section the builtin sweep builds."""
    built = []
    inner = theorems.section_as_module

    def recorded(*args):
        module = inner(*args)
        built.append((args, module))
        return module
    monkeypatch_module.setattr(theorems, "section_as_module", recorded)
    theorems.run_corpus(builtin_corpus())
    return built


@pytest.fixture(scope="module")
def monkeypatch_module():
    patch = pytest.MonkeyPatch()
    yield patch
    patch.undo()


def test_sweep_sections_match_loops(sweep_sections):
    """Every module the sweep builds, and every analysis the verifiers make
    of it, match the loops: the coordinate map, the spins, the minimal
    submodules and the submodule lattice, irreducibility, homogeneity with
    its constituents, and the End dimensions."""
    assert len(sweep_sections) >= 20
    for (G, above, below, H, p), module in sweep_sections:
        dim, mats = _section_loop(G, above, below, H, p)
        again = section_as_module(G, above, below, H, p)
        assert module.dim == again.dim == dim
        assert _same_bases(again.acting_gens, mats)
        M = FpModule(p, dim, mats)
        reference = _all_spins_loop(M)
        assert list(_all_spins(M)) == list(reference)
        assert _same_bases(minimal_submodules(M), _minimal_loop(reference, p))
        lattice = submodules(M)
        subs, flags = _submodules_loop(M)
        assert _same_bases(lattice.submodules, subs)
        assert lattice.irreducible == flags
        assert is_irreducible(M) == (dim > 0 and all(
            s.shape[0] == dim for s in reference.values()))
        expected = _homogeneous_loop(M)
        if isinstance(expected, type):
            with pytest.raises(expected):
                homogeneous_constituents(M)
            continue
        homog, constituents = homogeneous_constituents(M)
        assert homog == expected[0]
        assert len(constituents) == len(expected[1])
        for c, gens in zip(constituents, expected[1]):
            assert _same_bases(c.acting_gens, gens)
            assert module_hom_space_dim(c, c) == _hom_dim_loop(c, c)
