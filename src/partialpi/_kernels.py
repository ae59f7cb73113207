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

import functools

import numpy as np

BACKEND = "numpy"


def closure_idx(table, gens):
    n = table.shape[0]
    gens = np.asarray(gens, np.intp)
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
    elements = np.arange(n, dtype=np.intp) if elements is None else elements
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
    label = np.arange(conj.shape[1], dtype=np.intp)
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


# Batched reductions run in blocks of at most this many matrix entries.
BLOCK = 1 << 18


def blocks(count, entries):
    """Slices of range(count), each of at most BLOCK entries when every
    item has ``entries`` of them (and one item at least)."""
    size = BLOCK // max(entries, 1) + 1
    return [slice(lo, lo + size) for lo in range(0, count, size)]


@functools.lru_cache(maxsize=None)
def _inverse_table(p):
    """inverse[a] = a^-1 mod p for 0 < a < p, and inverse[0] = 0 (one
    read-only array per p)."""
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)], np.int64)
    inverse.setflags(write=False)
    return inverse


def echelon(mats, p):
    """Row-reduce a b x r x c stack of matrices over F_p at once.

    Returns the b x c x c square echelon forms: row j of ``out[i]`` is the
    reduced-row-echelon basis vector of ``mats[i]``'s row space whose pivot
    is column j, or zero when no row pivots at j, so the RREF of
    ``mats[i]`` is ``out[i][diag != 0]`` and the rank is the trace. A
    vector x lies in the row space iff ``x @ out[i] == x`` mod p.

    One step per column, each a few whole-stack operations, with no loop
    over rows or members: the input rows sit above c output rows, all zero.
    At column j every member takes as pivot the row with the largest entry
    in column j among its input rows (any nonzero entry would do: the RREF
    does not depend on which), scales it to lead with 1 and subtracts its
    multiples from every row, its own included, which so becomes zero and
    is never chosen again; the scaled row becomes output row j. A member
    with no nonzero entry picks a zero one, whose inverse 0 makes its step
    change nothing.
    """
    b, rows, cols = mats.shape
    m = np.zeros((b, rows + cols, cols), np.int64)
    np.remainder(mats, p, out=m[:, :rows])
    inverse = _inverse_table(p)
    at = np.arange(b)
    for j in range(cols if rows else 0):
        prow = m[at, m[:, :rows, j].argmax(1)]
        prow *= inverse[prow[:, j, None]]
        m -= m[:, :, j, None] * prow[:, None]
        m[:, rows + j] = prow
        m %= p
    return m[:, rows:]


# Spins multiply by at most this many words per dimension.
_WORDS_PER_DIM = 4


def _spin_words(mats, p, k):
    """(the distinct non-scalar words of length 1 .. L in the matrices, L):
    L as large as keeps the number of words, repeats included, within
    _WORDS_PER_DIM k, but at most k - 1 and at least 1. A scalar word maps
    every subspace into itself, so it adds nothing to a spin."""
    g, length, count = len(mats), 1, len(mats)
    if not g:
        return mats, length
    while length < k - 1 and count + g ** (length + 1) <= _WORDS_PER_DIM * k:
        length += 1
        count += g ** length
    words = [mats % p]
    for _ in range(length - 1):
        words.append((words[-1][:, None] @ mats).reshape(-1, k, k) % p)
    flat = np.concatenate(words).reshape(-1, k * k)
    keep = ~(flat == flat[:, :1] * np.eye(k, dtype=np.int64).ravel()).all(axis=1)
    if len(flat) > 1:  # drop repeats
        keep &= ~np.triu((flat[:, None] == flat).all(axis=2), 1).any(axis=0)
    return flat[keep].reshape(-1, k, k), length


def spin_basis(mats, v, p):
    """Smallest invariant subspaces containing the vectors v, as reduced
    echelon bases.

    ``v`` is one vector of F_p^k or a b x k stack of them, all spun at once
    in rounds W <- echelon[W; W X_1^T; ...; W X_n^T] from W = <v>, the X
    the words of length at most L in the matrices (``_spin_words``). The
    words of length below k already span the spin of v (the spans of the
    words of length at most i grow until they stop, within k - 1 steps),
    so ceil((k - 1) / L) rounds suffice, whatever the order of the group
    the matrices generate; the rounds stop early once every W is the whole
    space or none grew. Returns (basis, pivots, nrows), each with a leading
    batch axis when v is a stack: rows basis[:nrows] are in RREF ordered by
    pivot column, which is the canonical form used for deduplication, the
    rows below are zero and the pivots below nrows are -1.
    """
    vecs = np.asarray(v, np.int64)
    k = vecs.shape[-1]
    flat = vecs.reshape(-1, k)
    words, length = _spin_words(np.asarray(mats, np.int64), p, k)
    step = words.transpose(0, 2, 1)
    rounds = -(-(k - 1) // length) if len(words) else 0
    square = np.empty((len(flat), k, k), np.int64)
    for part in blocks(len(flat), (len(step) + 1) * k * k):
        span = flat[part, None, :]
        if not rounds:
            span = echelon(span, p)
        for r in range(rounds):
            images = (span[:, None] @ step).reshape(len(span), -1, k)
            grown = echelon(np.concatenate((span, images), axis=1), p)
            rank = grown.trace(axis1=1, axis2=2)
            done = (rank == k).all() or (r and (rank == last).all())
            span, last = grown, rank
            if done:
                break
        square[part] = span
    # row j of a square form is zero or pivots at j: nonzero rows first
    has = square.diagonal(axis1=1, axis2=2) != 0
    order = np.argsort(~has, axis=1, kind="stable")
    at = np.arange(len(square))[:, None]
    basis = square[at, order]
    pivots = np.where(has[at, order], order, -1)
    nrows = has.sum(axis=1)
    if vecs.ndim == 1:
        return basis[0], pivots[0], int(nrows[0])
    return basis, pivots, nrows
