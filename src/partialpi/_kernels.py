"""Hot kernels over Cayley-table index arrays and F_p matrices.

One vectorised numpy implementation of each kernel; ``tests/test_kernels.py``
checks every one against a plain-Python loop reference.

Conventions: a group of order n is a Cayley table ``table[i, j]`` = index of
element i composed-then j, ``inv[i]`` = index of the inverse, and index 0 is
always the identity (element lists are kept lexicographically sorted and the
identity is the lex-least permutation). ``class_min_rep`` takes neither:
it reads the m x n conjugation rows of G's generators
(``Group.conjugation``), so conjugacy classes cost m gathers of length n a
step, not an n x n gather.

A kernel call is small, so numpy's fixed cost per call is most of its time.
No kernel calls ``np.unique`` or ``np.ix_``: element indices lie in
``range(n)``, so a set of them is deduped by scattering into a boolean row
of length n (``row[idx] = True``), and a block ``table[a x b]`` is indexed
by broadcasting (``table[a[:, None], b]``).

Callers reach the kernels as module attributes (``_kernels.closure_idx(...)``),
never through ``from ._kernels import ...``, so that a tracer or a counting
benchmark can rebind an attribute here and see every call.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def closure_idx(table, gens):
    n = table.shape[0]
    gens = np.asarray(gens, np.int32)
    member = np.zeros(n, np.bool_)
    member[0] = True
    member[gens] = True
    frontier = member.nonzero()[0]
    while frontier.size and gens.size:
        fresh = np.zeros(n, np.bool_)
        fresh[table[frontier[:, None], gens]] = True
        fresh &= ~member
        member |= fresh
        frontier = fresh.nonzero()[0]
    return member


def normalizer_mask(table, inv, sub_idx, elements=None):
    """out[i]: does elements[i] (range(n) when None) normalise sub_idx?

    A 2-D ``sub_idx`` is a batch of equal-order subgroups, one per row, and
    out[s, i] answers for row s: one gather conjugates every row by every
    element, and row s reads its own membership row, at offset s*n of one
    flat mask. A 1-D ``sub_idx`` is a batch of one row."""
    n = table.shape[0]
    elements = np.arange(n, dtype=np.int32) if elements is None else elements
    sub_idx = np.asarray(sub_idx)
    if sub_idx.shape[-1] == 0:
        return np.ones(sub_idx.shape[:-1] + (len(elements),), np.bool_)
    batch = sub_idx if sub_idx.ndim == 2 else sub_idx[None]
    offset = np.arange(0, len(batch) * n, n)[:, None]
    member = np.zeros(len(batch) * n, np.bool_)
    member[batch + offset] = True
    conj = table[table[inv[elements]][:, batch], elements[:, None, None]]
    out = member[conj + offset].all(axis=2).T
    return out if sub_idx.ndim == 2 else out[0]


def centralizer_mask(table, sub_idx):
    n = table.shape[0]
    if len(sub_idx) == 0:
        return np.ones(n, np.bool_)
    return (table[:, sub_idx] == table[sub_idx, :].T).all(axis=1)


def class_min_rep(conj):
    """label[x] = the least element of x's orbit under the rows of conj.

    Each row of ``conj`` (m x n) is a permutation of ``range(n)``; for the
    conjugation rows of G's generators (``Group.conjugation``) the orbits
    are the conjugacy classes. Labels start at x. Each step lowers x's
    label to the least of its own and its images' labels, then to the
    label of that label. A label always lies in x's orbit and never grows.
    Once a step changes nothing, no label exceeds its images' labels, so
    each orbit, which the rows permute, carries one label; its least
    element has kept its own, so that is the label.
    """
    label = np.arange(conj.shape[1], dtype=np.int32)
    if not len(conj):
        return label
    while True:
        new = np.minimum(label, label[conj].min(axis=0))
        new = new[new]
        if (new == label).all():
            return label
        label = new


def product_mask(table, a_idx, b_idx):
    n = table.shape[0]
    out = np.zeros(n, np.bool_)
    if len(a_idx) and len(b_idx):
        out[table[a_idx[:, None], b_idx]] = True
    return out


def spin_basis(mats, v, p):
    """Smallest invariant subspace containing v, as a reduced echelon basis.

    Returns (basis, pivots, nrows); rows basis[:nrows] are in RREF ordered
    by pivot column, which is the canonical form used for deduplication.
    """
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
