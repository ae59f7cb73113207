"""The numpy kernels against an independent plain-Python loop reference.

Each ``_kernels.<name>`` must return exactly what its ``_<name>_loop``
below returns on identical inputs; ``class_min_rep`` reads the conjugation
rows of G's generators, while its loop conjugates by every element through
the Cayley table. The loops are written element by element, with no
vectorisation, so they share no indexing tricks with the kernels they
check."""

import numpy as np
import pytest

from partialpi import _kernels
from partialpi.groups import cyclic, dicyclic, symmetric, trivial_group
from partialpi.perms import _DTYPE
from test_groups import _high_degree_cases


# -- loop reference ----------------------------------------------------------

def _closure_idx_loop(table, gens):
    n = table.shape[0]
    member = np.zeros(n, np.bool_)
    stack = np.empty(n, np.int32)
    member[0] = True
    stack[0] = 0
    top = 1
    for g in gens:
        if not member[g]:
            member[g] = True
            stack[top] = g
            top += 1
    head = 0
    while head < top:
        x = stack[head]
        head += 1
        for g in gens:
            y = table[x, g]
            if not member[y]:
                member[y] = True
                stack[top] = y
                top += 1
    return member


def _normalizer_mask_loop(table, inv, sub_idx, elements=None):
    n = table.shape[0]
    if elements is None:
        elements = range(n)
    member = np.zeros(n, np.bool_)
    for s in sub_idx:
        member[s] = True
    out = np.zeros(len(elements), np.bool_)
    for i, g in enumerate(elements):
        gi = inv[g]
        ok = True
        for s in sub_idx:
            if not member[table[table[gi, s], g]]:
                ok = False
                break
        out[i] = ok
    return out


def _centralizer_mask_loop(table, sub_idx):
    n = table.shape[0]
    out = np.zeros(n, np.bool_)
    for g in range(n):
        ok = True
        for s in sub_idx:
            if table[g, s] != table[s, g]:
                ok = False
                break
        out[g] = ok
    return out


def _class_min_rep_loop(table, inv):
    n = table.shape[0]
    rep = np.empty(n, _DTYPE)
    for x in range(n):
        m = x
        for g in range(n):
            c = table[table[inv[g], x], g]
            if c < m:
                m = c
        rep[x] = m
    return rep


def _product_mask_loop(table, a_idx, b_idx):
    n = table.shape[0]
    out = np.zeros(n, np.bool_)
    for a in a_idx:
        for b in b_idx:
            out[table[a, b]] = True
    return out


def _modinv(a, p):
    # Fermat: a^(p-2) mod p
    result = 1
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def _spin_basis_loop(mats, v, p):
    """Smallest invariant subspace containing v, as a reduced echelon basis.

    Returns (basis, pivots, nrows); rows basis[:nrows] are in RREF ordered
    by pivot column, which is the canonical form used for deduplication.
    """
    g = mats.shape[0]
    k = v.shape[0]
    basis = np.zeros((k, k), np.int64)
    pivots = np.full(k, -1, np.int64)
    nrows = 0
    work = np.zeros((k * g + 1, k), np.int64)
    work[0] = v % p
    wp = 1
    head = 0
    while head < wp and nrows < k:
        w = work[head].copy()
        head += 1
        for r in range(nrows):
            c = w[pivots[r]]
            if c:
                for j in range(k):
                    w[j] = (w[j] - c * basis[r, j]) % p
        piv = -1
        for j in range(k):
            if w[j] != 0:
                piv = j
                break
        if piv == -1:
            continue
        c = _modinv(w[piv], p)
        for j in range(k):
            w[j] = w[j] * c % p
        basis[nrows] = w
        pivots[nrows] = piv
        nrows += 1
        if nrows == k:
            break
        for t in range(g):
            row = work[wp]
            for i in range(k):
                s = 0
                for j in range(k):
                    s += mats[t, i, j] * w[j]
                row[i] = s % p
            wp += 1
    # sort rows by pivot column, then back-substitute to full RREF
    order = np.argsort(pivots[:nrows])
    basis[:nrows] = basis[order]
    sp = pivots[order].copy()
    pivots[:nrows] = sp
    for r in range(nrows):
        for r2 in range(nrows):
            if r2 != r:
                c = basis[r2, pivots[r]]
                if c:
                    for j in range(k):
                        basis[r2, j] = (basis[r2, j] - c * basis[r, j]) % p
    return basis, pivots, nrows


def _echelon_loop(mats, p):
    """Square echelon forms, one matrix and one row at a time: row j is
    the reduced row with its pivot at column j, or zero."""
    b, rows, cols = mats.shape
    out = np.zeros((b, cols, cols), np.int64)
    for i in range(b):
        m = [[int(x) % p for x in row] for row in mats[i]]
        pivots = []
        for c in range(cols):
            r = len(pivots)
            piv = next((rr for rr in range(r, rows) if m[rr][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            scale = _modinv(m[r][c], p)
            m[r] = [x * scale % p for x in m[r]]
            for rr in range(rows):
                if rr != r and m[rr][c]:
                    f = m[rr][c]
                    m[rr] = [(x - f * y) % p for x, y in zip(m[rr], m[r])]
            pivots.append(c)
        for r, c in enumerate(pivots):
            out[i, c] = m[r]
    return out


REFERENCE = {
    "echelon": _echelon_loop,
    "closure_idx": _closure_idx_loop,
    "normalizer_mask": _normalizer_mask_loop,
    "centralizer_mask": _centralizer_mask_loop,
    "class_min_rep": _class_min_rep_loop,
    "product_mask": _product_mask_loop,
    "spin_basis": _spin_basis_loop,
}


# -- tests -------------------------------------------------------------------

@pytest.fixture(scope="module")
def s4():
    return symmetric(4)


@pytest.fixture(scope="module")
def f294(corpus):
    return corpus.group("F7^2:S3")


def _impls():
    """The kernels as called in the package, then their loop references."""
    return [{name: getattr(_kernels, name) for name in REFERENCE}, REFERENCE]


def _random_generator_sets(order, count=30, seed=294):
    rng = np.random.default_rng(seed)
    return [rng.choice(order, size=rng.integers(0, 3), replace=False
                       ).astype(_DTYPE) for _ in range(count)]


def test_backends_available():
    assert _kernels.BACKEND == "numpy"


@pytest.mark.parametrize("name", ["closure_idx", "normalizer_mask",
                                  "centralizer_mask", "product_mask"])
def test_subgroup_kernels_agree(s4, f294, name):
    s4_seeds = [np.array([], dtype=_DTYPE),
                np.array([1], dtype=_DTYPE),
                np.array([5, 9], dtype=_DTYPE),
                np.arange(0, 24, 3, dtype=_DTYPE)]
    for G, seeds in [(s4, s4_seeds),
                     (f294, _random_generator_sets(f294.order))]:
        table, inv = G.table, G.inverses
        for seed in seeds:
            results = []
            for impl in _impls():
                if name == "closure_idx":
                    results.append(impl[name](table, seed))
                elif name == "product_mask":
                    results.append(impl[name](table, seed, np.array([0, 2], dtype=_DTYPE)))
                else:
                    sub = np.flatnonzero(impl["closure_idx"](table, seed)).astype(_DTYPE)
                    results.append(impl[name](table, inv, sub) if name == "normalizer_mask"
                                   else impl[name](table, sub))
            kernel, reference = results
            assert kernel.dtype == reference.dtype
            assert np.array_equal(kernel, reference)
            if name == "normalizer_mask":
                # only the elements of a subgroup tested, as N_P(S) is
                within = np.flatnonzero(
                    _kernels.closure_idx(table, seed[:1])).astype(_DTYPE)
                kernel, reference = (impl[name](table, inv, sub, within)
                                     for impl in _impls())
                assert kernel.dtype == reference.dtype
                assert np.array_equal(kernel, reference)
                assert np.array_equal(kernel, results[0][within])
        if name == "normalizer_mask":
            # 2-D batches of equal-order subgroups, one per row, as the
            # layer walk passes them (the seeds' closures and the cyclic
            # subgroups), against the reference row by row
            subs = {}
            for seed in seeds + [[x] for x in range(G.order)]:
                sub = np.flatnonzero(_kernels.closure_idx(table, seed))
                subs.setdefault(len(sub), {})[sub.tobytes()] = sub
            assert max(len(batch) for batch in subs.values()) > 1
            for batch in subs.values():
                rows = np.stack(list(batch.values())).astype(_DTYPE)
                within = rows[-1]
                for elements in (None, within):
                    kernel = _kernels.normalizer_mask(table, inv, rows,
                                                      elements)
                    assert kernel.shape == (len(rows), G.order if elements
                                            is None else len(within))
                    for row, out in zip(rows, kernel):
                        assert np.array_equal(out, _normalizer_mask_loop(
                            table, inv, row, elements))


@pytest.mark.parametrize("group", ["s4", "f294"])
def test_closure_and_product_edge_cases(request, group):
    """The identity and repeated indices among the closure's generators, and
    empty or repeated index sets in a product, against the loop references."""
    G = request.getfixturevalue(group)
    table, last = G.table, G.order - 1

    def idx(*values):
        return np.array(values, dtype=_DTYPE)

    for gens in [idx(0), idx(0, 0), idx(1, 1), idx(0, 5, 5, 0, last),
                 idx(last, last, last)]:
        kernel, reference = (impl["closure_idx"](table, gens)
                             for impl in _impls())
        assert kernel.dtype == reference.dtype
        assert np.array_equal(kernel, reference), gens
    sub = np.flatnonzero(_closure_idx_loop(table, idx(1, 5))).astype(_DTYPE)
    index_sets = [idx(), idx(0), idx(3, 3, 3), idx(0, last, 0, last), sub,
                  np.concatenate((sub, sub[::-1]))]
    for a in index_sets:
        for b in index_sets:
            kernel, reference = (impl["product_mask"](table, a, b)
                                 for impl in _impls())
            assert kernel.dtype == reference.dtype
            assert np.array_equal(kernel, reference), (a, b)
            assert kernel.any() == bool(len(a) and len(b))


def test_random_generator_sets_reach_every_kind(f294):
    """The seeded F7^2:S3 sets above give 1, G and proper subgroups."""
    orders = {int(_kernels.closure_idx(f294.table, seed).sum())
              for seed in _random_generator_sets(f294.order)}
    assert {1, 294} <= orders and len(orders) > 3


def test_class_reps_agree(s4, f294):
    """The orbits of G's generator-conjugation rows against conjugation by
    every element, on S4 (5 classes), F7^2:S3 (20, counted by Perm
    conjugation), the trivial group (no generators), C12 (abelian, every
    class a point) and the 700- and 900-point cases (orders 128 and 729)."""
    cases = [(s4, 5), (f294, 20), (trivial_group(), 1), (cyclic(12), 12)]
    cases += [(G, G.order) for _, G in _high_degree_cases()]
    for G, classes in cases:
        kernel = _kernels.class_min_rep(G.conjugation)
        reference = _class_min_rep_loop(G.table, G.inverses)
        assert kernel.dtype == reference.dtype
        assert np.array_equal(kernel, reference), G
        assert len(np.unique(kernel)) == classes, G


def test_closure_matches_brute_force(s4):
    table = s4.table
    gens = np.array([s4.index_of(p) for p in s4.generators], dtype=_DTYPE)
    for impl in _impls():
        mask = impl["closure_idx"](table, gens)
        assert int(mask.sum()) == 24
    # subgroup generated by a transposition and a 3-cycle fixing a point: S3
    from partialpi.perms import parse_cycles
    sub_gens = np.array([s4.index_of(parse_cycles("(1 2)", 4)),
                         s4.index_of(parse_cycles("(1 2 3)", 4))], dtype=_DTYPE)
    for impl in _impls():
        assert int(impl["closure_idx"](table, sub_gens).sum()) == 6


def _spin_outputs(mats, v, p):
    outs = []
    for impl in _impls():
        basis, pivots, nrows = impl["spin_basis"](mats, v, p)
        outs.append((basis[:nrows].copy(), pivots[:nrows].copy(), nrows))
    return outs


def test_spin_basis_agree():
    q8 = dicyclic(8)  # just to have deterministic seeds around
    rng = np.random.default_rng(7)
    for p, k in [(2, 3), (3, 2), (5, 2), (7, 2)]:
        for _ in range(5):
            g = rng.integers(1, 3)
            mats = []
            while len(mats) < g:
                cand = rng.integers(0, p, size=(k, k)).astype(np.int64)
                if round(np.linalg.det(cand)) % p:
                    mats.append(cand)
            mats = np.stack(mats)
            v = rng.integers(0, p, size=k).astype(np.int64)
            if not v.any():
                v[0] = 1
            outs = [basis for basis, _, _ in _spin_outputs(mats, v, p)]
            for r in outs[1:]:
                assert np.array_equal(outs[0], r)
            # invariance re-check: every basis image stays inside the span
            span = outs[0]
            for m in mats:
                for row in span:
                    img = (m @ row) % p
                    aug = np.vstack((span, img))
                    from partialpi.modrep import rref
                    assert rref(aug, p)[0].shape[0] == span.shape[0]


@pytest.mark.parametrize("p, v", [(5, [0, 3, 4]), (2, [1, 0, 1, 1]),
                                  (7, [0, 0])])
def test_spin_basis_no_generators(p, v):
    """With no matrices the spun subspace is the line through v (or 0)."""
    v = np.array(v, dtype=np.int64)
    k = v.shape[0]
    mats = np.zeros((0, k, k), dtype=np.int64)
    (kb, kp, kn), (rb, rp, rn) = _spin_outputs(mats, v, p)
    assert kn == rn == int(v.any())
    assert np.array_equal(kb, rb) and np.array_equal(kp, rp)
    if kn:
        assert kb[0, kp[0]] == 1
        assert not ((kb[0] * v[kp[0]] - v) % p).any()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_agree(p):
    """Stacks of random, sparse and low-rank matrices, with no rows, one
    row and more rows than columns; a stack of none."""
    rng = np.random.default_rng(p)
    for b, rows, cols in [(0, 3, 3), (1, 0, 4), (1, 1, 1), (3, 1, 5), (4, 2, 2),
                          (5, 6, 3), (6, 4, 4), (2, 12, 6), (3, 9, 9)]:
        dense = rng.integers(0, p, size=(b, rows, cols))
        sparse = dense * (rng.random((b, rows, cols)) < 0.3)
        low = rng.integers(0, p, size=(b, rows, 1)) * rng.integers(0, p, size=(b, 1, cols))
        for mats in (dense, sparse, low, dense - 3 * p):
            outs = [impl["echelon"](mats, p) for impl in _impls()]
            assert outs[0].shape == outs[1].shape == (b, cols, cols)
            assert np.array_equal(outs[0], outs[1])


def test_spin_basis_batch_agree():
    """A stack of vectors, the zero vector among them, spins to what each
    vector spins to alone, with its pivots and row count."""
    rng = np.random.default_rng(11)
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 3), (2, 6)]:
        for g in range(4):
            mats = rng.integers(0, p, size=(g, k, k))
            vecs = rng.integers(0, p, size=(9, k))
            vecs[0] = 0
            basis, pivots, nrows = _kernels.spin_basis(mats, vecs, p)
            for i, v in enumerate(vecs):
                rb, rp, rn = _spin_basis_loop(mats, v, p)
                assert nrows[i] == rn
                assert np.array_equal(basis[i], rb)
                assert np.array_equal(pivots[i][:rn], rp[:rn])
                assert (pivots[i][rn:] == -1).all()
