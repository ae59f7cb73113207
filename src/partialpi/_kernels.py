"""Hot kernels over Cayley-table index arrays and F_p matrices.

Every kernel is written twice, and runs three ways: the loop functions in
``LOOP_IMPL`` are compiled with ``@njit`` (the default backend), the same
loop functions run as plain Python in tests when numba is absent, and
``NUMPY_IMPL`` holds a vectorized pure-numpy fallback. Set
``PARTIALPI_NUMBA=0`` to select the numpy path, e.g. on platforms where numba
is unavailable or for debugging. ``benchmarks/bench_kernels.py`` compares the
numba and numpy backends.

Conventions: a group of order n is a Cayley table ``table[i, j]`` = index of
element i composed-then j, ``inv[i]`` = index of the inverse, and index 0 is
always the identity (element lists are kept lexicographically sorted and the
identity is the lex-least permutation).
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("PARTIALPI_NUMBA", "auto").lower()
NUMBA_ENABLED = _env not in ("0", "false", "no")
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ENABLED = False


# -- loop implementations (numba-compilable, also valid plain python) -----

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


def _normalizer_mask_loop(table, inv, sub_idx):
    n = table.shape[0]
    member = np.zeros(n, np.bool_)
    for s in sub_idx:
        member[s] = True
    out = np.zeros(n, np.bool_)
    for g in range(n):
        gi = inv[g]
        ok = True
        for s in sub_idx:
            if not member[table[table[gi, s], g]]:
                ok = False
                break
        out[g] = ok
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
    rep = np.empty(n, np.int32)
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


# -- vectorized numpy fallbacks -------------------------------------------

def _closure_idx_numpy(table, gens):
    n = table.shape[0]
    member = np.zeros(n, np.bool_)
    member[0] = True
    frontier = np.unique(np.concatenate((np.zeros(1, np.int32), gens)))
    member[frontier] = True
    gens = np.asarray(gens, np.int32)
    while frontier.size and gens.size:
        prods = table[np.ix_(frontier, gens)].ravel()
        fresh = np.unique(prods[~member[prods]])
        member[fresh] = True
        frontier = fresh
    return member


def _normalizer_mask_numpy(table, inv, sub_idx):
    n = table.shape[0]
    member = np.zeros(n, np.bool_)
    member[sub_idx] = True
    if len(sub_idx) == 0:
        return np.ones(n, np.bool_)
    conj = table[table[inv][:, sub_idx], np.arange(n, dtype=np.int32)[:, None]]
    return member[conj].all(axis=1)


def _centralizer_mask_numpy(table, sub_idx):
    n = table.shape[0]
    if len(sub_idx) == 0:
        return np.ones(n, np.bool_)
    return (table[:, sub_idx] == table[sub_idx, :].T).all(axis=1)


def _class_min_rep_numpy(table, inv):
    n = table.shape[0]
    conj = table[table[inv], np.arange(n, dtype=np.int32)[:, None]]
    return conj.min(axis=0).astype(np.int32)


def _product_mask_numpy(table, a_idx, b_idx):
    n = table.shape[0]
    out = np.zeros(n, np.bool_)
    if len(a_idx) and len(b_idx):
        out[table[np.ix_(a_idx, b_idx)].ravel()] = True
    return out


def _spin_basis_numpy(mats, v, p):
    g, k = mats.shape[0], v.shape[0]
    basis = np.zeros((k, k), np.int64)
    pivots = np.full(k, -1, np.int64)
    nrows = 0
    queue = [np.asarray(v, np.int64) % p]
    while queue and nrows < k:
        w = queue.pop(0).copy()
        for r in range(nrows):
            c = int(w[pivots[r]])
            if c:
                w = (w - c * basis[r]) % p
        nz = np.flatnonzero(w)
        if nz.size == 0:
            continue
        piv = int(nz[0])
        w = w * pow(int(w[piv]), -1, p) % p
        basis[nrows] = w
        pivots[nrows] = piv
        nrows += 1
        if nrows == k:
            break
        for t in range(g):
            queue.append((mats[t] @ w) % p)
    order = np.argsort(pivots[:nrows])
    basis[:nrows] = basis[order]
    pivots[:nrows] = pivots[order]
    for r in range(nrows):
        col = pivots[r]
        for r2 in range(nrows):
            if r2 != r and basis[r2, col]:
                basis[r2] = (basis[r2] - basis[r2, col] * basis[r]) % p
    return basis, pivots, nrows


NUMPY_IMPL = {
    "closure_idx": _closure_idx_numpy,
    "normalizer_mask": _normalizer_mask_numpy,
    "centralizer_mask": _centralizer_mask_numpy,
    "class_min_rep": _class_min_rep_numpy,
    "product_mask": _product_mask_numpy,
    "spin_basis": _spin_basis_numpy,
}

# The loop kernels run as plain Python in tests when numba is absent.
LOOP_IMPL = {
    "closure_idx": _closure_idx_loop,
    "normalizer_mask": _normalizer_mask_loop,
    "centralizer_mask": _centralizer_mask_loop,
    "class_min_rep": _class_min_rep_loop,
    "product_mask": _product_mask_loop,
    "spin_basis": _spin_basis_loop,
}

if NUMBA_ENABLED:
    _modinv = njit(cache=True)(_modinv)
    NUMBA_IMPL = {name: njit(cache=True)(fn) for name, fn in LOOP_IMPL.items()}
    ACTIVE = NUMBA_IMPL
    BACKEND = "numba"
else:
    NUMBA_IMPL = None
    ACTIVE = NUMPY_IMPL
    BACKEND = "numpy"

closure_idx = ACTIVE["closure_idx"]
normalizer_mask = ACTIVE["normalizer_mask"]
centralizer_mask = ACTIVE["centralizer_mask"]
class_min_rep = ACTIVE["class_min_rep"]
product_mask = ACTIVE["product_mask"]
spin_basis = ACTIVE["spin_basis"]
