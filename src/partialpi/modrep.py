"""F_p[H]-modules extracted from elementary abelian sections.

Vectors are columns over F_p; a module is one invertible matrix per acting
generator. Subspaces are represented by reduced-row-echelon bases (rows),
which is the canonical form used for deduplication everywhere.

All row reduction goes through one batched kernel, ``_kernels.echelon``,
which reduces a stack of matrices at once into square echelon forms (row j
the basis vector with pivot j, or zero), and ``_kernels.spin_basis`` spins
a whole stack of vectors on it. Submodule enumeration spins one nonzero
vector per line, all in one call, then closes the spins under sums; at the
configured dimension cap this is cheaper and more transparent than
meataxe-style factorization. A vector x lies in the subspace with square
echelon form E iff x E = x, so containment is a matrix product. Minimal
submodules, being irreducible, are compared by Schur's lemma.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import _kernels
from .chiefs import _is_prime
from .config import Caps, DEFAULT_CAPS
from .errors import (
    ActingGroupMismatch,
    ClosureCapExceeded,
    HypothesisViolated,
    ModuleCapExceeded,
    NotElementaryAbelian,
    NotIrreducible,
    NotNormalized,
    NotSemisimpleContext,
)
from .groups import Group, Subgroup
from .structure import _p_part

# -- F_p linear algebra -------------------------------------------------------


def rref(mat, p: int):
    """(reduced row echelon form, pivot columns); zero rows dropped."""
    m = np.asarray(mat, dtype=np.int64)
    if m.ndim != 2:
        m = m.reshape(1, -1)
    square = _kernels.echelon(m[None], p)[0]
    pivots = square.diagonal().nonzero()[0]
    return square[pivots], tuple(pivots.tolist())


def nullspace(mat, p: int) -> np.ndarray:
    """Basis (rows) of the right nullspace of mat over F_p."""
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return np.eye(mat.shape[1] if mat.ndim == 2 else 0, dtype=np.int64)
    if mat.ndim != 2:
        mat = mat.reshape(1, -1)
    square = _kernels.echelon(mat[None], p)[0]
    free = np.flatnonzero(square.diagonal() == 0)
    # x_f = 1 at a free column f, x_c = -E[c, f] at the pivots c: column f
    # of I - E, whose free rows are zero but for its own
    kernel = np.eye(mat.shape[1], dtype=np.int64) - square
    return np.ascontiguousarray(kernel[:, free].T % p)


def _subspace_key(basis: np.ndarray) -> bytes:
    return basis.astype(np.int64).tobytes()


def _square(bases, k: int) -> np.ndarray:
    """The square echelon forms (``_kernels.echelon``) of RREF bases."""
    ranks = [len(b) for b in bases]
    rows = np.concatenate(bases) if bases else np.zeros((0, k), np.int64)
    out = np.zeros((len(bases), k, k), np.int64)
    out[np.repeat(np.arange(len(bases)), ranks), (rows != 0).argmax(axis=1)] = rows
    return out


def _compact(square: np.ndarray) -> np.ndarray:
    """The RREF rows of one square echelon form."""
    return square[square.diagonal() != 0]


# -- the module type ----------------------------------------------------------


class FpModule:
    """p, dimension, one invertible matrix per acting-group generator."""

    def __init__(self, p: int, dim: int, acting_gens, provenance=None):
        self.p = int(p)
        self.dim = int(dim)
        mats = np.array(acting_gens, dtype=np.int64)
        mats = mats.reshape(len(mats), self.dim, self.dim) % self.p
        mats.setflags(write=False)
        self._mats = mats
        self.acting_gens = tuple(mats)
        self.provenance = provenance
        self._spins = None  # filled by _all_spins

    def gens_array(self) -> np.ndarray:
        """The acting matrices as one read-only g x dim x dim array."""
        return self._mats

    def __repr__(self):
        return f"FpModule<F_{self.p}^{self.dim}, {len(self.acting_gens)} gens>"


def section_as_module(G: Group, above: Subgroup, below: Subgroup,
                      H: Subgroup, p: int) -> FpModule:
    """The elementary abelian section above/below as a module for H acting
    by conjugation, in the basis of canonically least coset generators."""
    table, inv = G.table, G.inverses
    if not above.contains(below):
        raise NotNormalized("below is not contained in above")
    hs = G.indices_of(H.generators)
    if not (below.is_normal() and above.is_normal()):
        norm_below = _kernels.normalizer_mask(
            table, inv, below.idx, np.concatenate((above.idx, hs)))
        if not norm_below[:above.order].all():
            raise NotNormalized("below is not normal in above")
        if not (norm_below[above.order:].all()
                and _kernels.normalizer_mask(table, inv, above.idx, hs).all()):
            raise NotNormalized("H does not normalize the section")
    ratio = above.order // below.order
    if ratio == 1:
        return FpModule(p, 0, [np.zeros((0, 0))] * len(H.generators),
                        provenance=(G, above, below, H))
    if _p_part(ratio, p) != ratio:
        raise NotElementaryAbelian(f"section order {ratio} is not a power of {p}")
    dim = 0
    while p ** dim < ratio:
        dim += 1
    coset_rep = table[below.idx, :].min(axis=0)
    is_rep = np.zeros(G.order, bool)
    is_rep[coset_rep[above.idx]] = True
    reps = np.flatnonzero(is_rep)
    position = np.zeros(G.order, np.intp)
    position[reps] = np.arange(ratio)
    # greedy canonical basis: ascending coset reps, new rep = new direction;
    # the span of the first j directions, as the cosets u b^t (0 <= t < p)
    # for u in the span before b, takes coordinates (coords(u), t)
    coords = np.zeros((ratio, dim), np.int64)
    spanned = np.zeros(ratio, bool)
    spanned[0] = True
    span = np.zeros(1, np.intp)
    basis = np.zeros(dim, np.intp)
    for j in range(dim):
        basis[j] = b = reps[int(spanned.argmin())]
        powers = [0, b]
        while len(powers) < p:
            powers.append(table[powers[-1], b])
        cosets = position[coset_rep[table[reps[span][:, None], powers]]]
        coords[cosets] = coords[span][:, None, :]
        coords[cosets, j] = np.arange(p)
        spanned[cosets] = True
        span = cosets.ravel()
    # the section is elementary abelian iff the directions, whose cosets
    # the walk has spread over all p^dim cosets if it is, have order p and
    # commute: then they generate the section, and the walk's spans were
    # the subgroups they generate
    power = basis
    for _ in range(p - 1):
        power = table[power, basis]  # b^p for every direction b
    if not below.mask[power].all():
        raise NotElementaryAbelian("section has exponent larger than p")
    # [x, y] = x^-1 y^-1 x y for every pair of directions
    if not below.mask[table[table[inv[basis][:, None], inv[basis]],
                            table[basis[:, None], basis]]].all():
        raise NotElementaryAbelian("section is not abelian")
    conj = table[table[inv[hs][:, None], basis], hs[:, None]]
    mats = coords[position[coset_rep[conj]]].transpose(0, 2, 1)  # column i: image of b_i
    return FpModule(p, dim, mats, provenance=(G, above, below, H))


# -- submodule enumeration -----------------------------------------------------


class SubmoduleLattice:
    """All invariant subspaces, as canonical echelon bases."""

    def __init__(self, module: FpModule, submodules, irreducible):
        self.module = module
        self.submodules = submodules  # list of (rank x dim) arrays, canonical
        self.irreducible = irreducible  # parallel flags: minimal nonzero

    def __len__(self):
        return len(self.submodules)


@functools.lru_cache(maxsize=None)
def _line_vectors(p: int, k: int) -> np.ndarray:
    """One nonzero vector of F_p^k per line, the one whose first nonzero
    coordinate is 1; a vector and its nonzero multiples spin to the same
    submodule. Read as base-p numbers, first coordinate most significant,
    these vectors are the codes p^j .. 2 p^j - 1 for j < k, in increasing
    order, one row each (read-only: one array per (p, k) is kept)."""
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = np.concatenate([np.arange(p ** j, 2 * p ** j, dtype=np.int64)
                            for j in range(k)])
    lines = codes[:, None] // weights % p
    lines.setflags(write=False)
    return lines


def _all_spins(M: FpModule) -> dict:
    """Canonical basis per cyclic submodule, keyed by subspace key, in the
    order of the line vectors that first spin to them; one
    ``spin_basis`` call for all the lines, kept on M."""
    if M._spins is None:
        M._spins = {}
        if M.dim:
            basis, _, nrows = _kernels.spin_basis(
                M.gens_array(), _line_vectors(M.p, M.dim), M.p)
            flat = np.ascontiguousarray(basis).reshape(len(basis), -1)
            first = np.unique(flat.view(np.dtype((np.void, 8 * flat.shape[1]))),
                              return_index=True)[1]
            for i in np.sort(first):
                sub = basis[i, :nrows[i]].copy()
                M._spins[_subspace_key(sub)] = sub
    return M._spins


def submodules(M: FpModule, caps: Caps = DEFAULT_CAPS) -> SubmoduleLattice:
    """Every invariant subspace: spin one vector per line, then close
    under sums. A minimal submodule is cyclic, so it is a spin: the
    irreducible flags are read off the minimal spins.

    The sums are formed in rounds, each the sums of the subspaces the last
    round found with all found so far, reduced in one batch."""
    if M.dim > caps.module_dim:
        raise ModuleCapExceeded(f"dim {M.dim} exceeds cap {caps.module_dim}")
    p, k = M.p, M.dim
    zero = np.zeros((0, k), dtype=np.int64)
    spins = _all_spins(M)
    found = {_subspace_key(zero): zero}
    found.update(spins)
    known = _square(list(spins.values()), k)
    seen = {s.tobytes() for s in known}
    fresh = known
    while len(fresh):
        sums = np.concatenate([_kernels.echelon(np.concatenate(
            (np.repeat(fresh[part], len(known), axis=0),
             np.tile(known, (len(fresh[part]), 1, 1))), axis=1), p)
            for part in _kernels.blocks(len(fresh), len(known) * 2 * k * k)])
        new = []
        for s in np.unique(sums, axis=0):
            if s.tobytes() not in seen:
                seen.add(s.tobytes())
                sub = _compact(s)
                found[_subspace_key(sub)] = sub
                new.append(s)
        fresh = np.array(new, np.int64).reshape(-1, k, k)
        known = np.concatenate((known, fresh))
    subs = sorted(found.values(), key=lambda s: (s.shape[0], _subspace_key(s)))
    minimal = {_subspace_key(s) for s in _minimal(spins, p)}
    return SubmoduleLattice(M, subs, [_subspace_key(s) in minimal for s in subs])


def _minimal(spins: dict, p: int) -> list:
    """The spins that contain no smaller nonzero spin, in key order. T lies
    in S iff T's square echelon form times S's is T's, which one batched
    product tests for every pair."""
    subs = [spins[key] for key in sorted(spins)]
    rank = np.array([len(s) for s in subs])
    smaller = rank[:, None] < rank  # [t, s]: t has the smaller rank
    if not smaller.any():  # spins of one rank contain no other
        return subs
    k = subs[0].shape[1]
    square = _square(subs, k)
    minimal = np.ones(len(subs), bool)
    for part in _kernels.blocks(len(subs), len(subs) * k * k):
        inside = ((square[:, None] @ square[None, part] % p)
                  == square[:, None]).all(axis=(2, 3))  # [t, s]: t <= s
        minimal[part] = ~(inside & smaller[:, part]).any(axis=0)
    return [s for s, keep in zip(subs, minimal) if keep]


def minimal_submodules(M: FpModule, caps: Caps = DEFAULT_CAPS) -> list:
    """Minimal nonzero invariant subspaces (every one is a spin)."""
    if M.dim > caps.module_dim:
        raise ModuleCapExceeded(f"dim {M.dim} exceeds cap {caps.module_dim}")
    return _minimal(_all_spins(M), M.p)


def is_irreducible(M: FpModule) -> bool:
    """Exactly two invariant subspaces: every nonzero vector spins to all."""
    if M.dim == 0:
        return False
    return all(s.shape[0] == M.dim for s in _all_spins(M).values())


def restrict_to_submodule(M: FpModule, basis: np.ndarray) -> FpModule:
    """The action restricted to an invariant subspace (RREF basis rows)."""
    return _restrictions(M, [basis])[0]


def _restrictions(M: FpModule, bases) -> list:
    """``restrict_to_submodule`` for every basis, those of one rank in one
    batch: generator t applied to basis vector i of basis b has its
    coordinates at the pivots of b, where its RREF rows lead."""
    out = [None] * len(bases)
    by_rank: dict = {}
    for i, b in enumerate(bases):
        by_rank.setdefault(len(b), []).append(i)
    step = M.gens_array().transpose(0, 2, 1)
    for r, where in by_rank.items():
        stack = np.stack([bases[i] for i in where])
        # pick[b, c, i] = [c is the pivot of row i of basis b]
        pick = np.eye(M.dim, dtype=np.int64)[(stack != 0).argmax(axis=2)]
        coeffs = stack[:, None] @ step @ pick.transpose(0, 2, 1)[:, None]
        for i, mats in zip(where, coeffs.transpose(0, 1, 3, 2)):
            out[i] = FpModule(M.p, r, mats)
    return out


def matrix_group_order(mats, p: int, cap: int = 100_000) -> int:
    """Order of the matrix group generated by mats over F_p."""
    if not len(mats):
        return 1
    k = mats[0].shape[0]
    if k == 0:
        return 1
    ident = np.eye(k, dtype=np.int64)
    seen = {ident.tobytes(): ident}
    work = [ident]
    # the identity and repeated generators add no element
    gens = list({a.tobytes(): a for a in (np.array(m, dtype=np.int64) % p
                                          for m in mats)}.values())
    gens = [a for a in gens if not np.array_equal(a, ident)]
    while work:
        x = work.pop()
        for g in gens:
            y = (x @ g) % p
            key = y.tobytes()
            if key not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded("matrix group exceeds cap")
                seen[key] = y
                work.append(y)
    return len(seen)


def is_homogeneous(M: FpModule, caps: Caps = DEFAULT_CAPS) -> bool:
    """Semisimple with pairwise isomorphic irreducible summands.

    Requires the acting image to have order coprime to p (Maschke), else
    NotSemisimpleContext.
    """
    return homogeneous_constituents(M, caps)[0]


def homogeneous_constituents(M: FpModule, caps: Caps = DEFAULT_CAPS):
    """(is_homogeneous(M), the minimal submodules of M as modules). These
    are irreducible: by Schur, two are isomorphic iff a nonzero hom joins
    them, and irreducibles of different dimensions are not. M is
    semisimple by Maschke, as p does not divide the order of its image, so
    its minimal submodules span it."""
    if M.dim == 0:
        return True, []
    order = matrix_group_order(M.acting_gens, M.p)
    if order % M.p == 0:
        raise NotSemisimpleContext(
            f"acting image order {order} is divisible by {M.p}")
    constituents = _restrictions(M, minimal_submodules(M, caps))
    first = constituents[0]
    return all(c.dim == first.dim for c in constituents) and bool(
        (_hom_dims([(first, c) for c in constituents[1:]]) > 0).all()), constituents


# -- homomorphism spaces --------------------------------------------------------


def module_hom_space_dim(V: FpModule, W: FpModule) -> int:
    """dim of {X : X a_V(h) = a_W(h) X for every generator h}."""
    if V.p != W.p or len(V.acting_gens) != len(W.acting_gens):
        raise ActingGroupMismatch("modules over different acting groups")
    if V.dim == 0 or W.dim == 0:
        return 0
    return int(_hom_dims([(V, W)])[0])


def _hom_systems(a, b, p: int) -> np.ndarray:
    """The intertwiner equations of a batch of module pairs, from their
    stacked matrices a (n x g x v x v) and b (n x g x w x w): one block
    kron(a.T, 1_w) - kron(1_v, b) per generator pair, its entry
    ((i, k), (j, l)) being a[j, i] [k == l] - [i == j] b[k, l]."""
    n, g, v, _ = a.shape
    w = b.shape[2]
    a = a.transpose(0, 1, 3, 2)[:, :, :, None, :, None]
    b = b[:, :, None, :, None, :]
    eye_v = np.eye(v, dtype=np.int64)[:, None, :, None]
    eye_w = np.eye(w, dtype=np.int64)[None, :, None, :]
    return (a * eye_w - eye_v * b).reshape(n, g * v * w, v * w) % p


def _hom_dims(pairs) -> np.ndarray:
    """dim Hom(V, W) for every pair (V, W) of modules over one acting
    group, the pairs of one shape reduced in one batch."""
    dims = np.zeros(len(pairs), np.int64)
    by_shape: dict = {}
    for i, (V, W) in enumerate(pairs):
        by_shape.setdefault((V.dim, W.dim), []).append(i)
    for (v, w), where in by_shape.items():
        if not pairs[0][0].acting_gens:
            dims[where] = v * w
            continue
        p = pairs[0][0].p
        systems = _hom_systems(np.stack([pairs[i][0].gens_array() for i in where]),
                               np.stack([pairs[i][1].gens_array() for i in where]), p)
        dims[where] = v * w - _kernels.echelon(systems, p).trace(axis1=1, axis2=2)
    return dims


def _hom_basis(V: FpModule, W: FpModule) -> list:
    p, v, w = V.p, V.dim, W.dim
    if not len(V.acting_gens):
        vecs = np.eye(v * w, dtype=np.int64)
    else:
        vecs = nullspace(_hom_systems(V.gens_array()[None],
                                      W.gens_array()[None], p)[0], p)
    return [x.reshape(v, w).T % p for x in vecs]


def _some_invertible(basis: list, p: int, coefficients) -> bool:
    """Is some combination of ``basis`` with the given coefficient rows an
    invertible matrix? The rows are taken in blocks, each block's
    combinations reduced in one batch."""
    stack = np.stack(basis)
    dim = stack.shape[1]
    rows = iter(coefficients)
    size = _kernels.BLOCK // (dim * dim) + 1
    while True:
        block = np.array(list(itertools.islice(rows, size)), np.int64)
        if not len(block):
            return False
        combos = np.tensordot(block, stack, axes=1) % p
        if (_kernels.echelon(combos, p).trace(axis1=1, axis2=2) == dim).any():
            return True


def _nonzero_coefficients(p: int, e: int):
    """Every nonzero coefficient row of length e over F_p."""
    return itertools.islice(itertools.product(range(p), repeat=e), 1, None)


def are_isomorphic_modules(V: FpModule, W: FpModule,
                           caps: Caps = DEFAULT_CAPS) -> bool:
    """Is there an invertible intertwiner?

    Enumerates the hom space when small, falls back to seeded sampling and
    then to constituent matching (sound for semisimple modules; irreducible
    pairs short-circuit through Schur's lemma).
    """
    if V.p != W.p or len(V.acting_gens) != len(W.acting_gens):
        raise ActingGroupMismatch("modules over different acting groups")
    if V.dim != W.dim:
        return False
    if V.dim == 0:
        return True
    basis = _hom_basis(V, W)
    e = len(basis)
    if e == 0:
        return False
    p = V.p
    if is_irreducible(V) and is_irreducible(W):
        return True  # Schur: a nonzero hom between irreducibles is invertible
    if p ** e <= 4096:
        return _some_invertible(basis, p, _nonzero_coefficients(p, e))
    rng = np.random.default_rng(20240801)
    if _some_invertible(basis, p,
                        (rng.integers(0, p, size=e) for _ in range(500))):
        return True
    # complete fallback: compare constituent multisets (semisimple case)
    mins_v = minimal_submodules(V, caps)
    mins_w = minimal_submodules(W, caps)
    cons_v = [restrict_to_submodule(V, b) for b in mins_v]
    cons_w = [restrict_to_submodule(W, b) for b in mins_w]
    sem_v, _ = rref(np.vstack(mins_v), p) if mins_v else (np.zeros((0, V.dim)), ())
    sem_w, _ = rref(np.vstack(mins_w), p) if mins_w else (np.zeros((0, W.dim)), ())
    if sem_v.shape[0] == V.dim and sem_w.shape[0] == W.dim:
        unmatched = list(range(len(cons_w)))
        for cv in cons_v:
            hit = next((j for j in unmatched
                        if are_isomorphic_modules(cv, cons_w[j], caps)), None)
            if hit is None:
                return False
            unmatched.remove(hit)
        return not unmatched
    # last resort: exhaustive (only reachable for large non-semisimple spaces)
    return _some_invertible(basis, p, _nonzero_coefficients(p, e))


def is_absolutely_irreducible(V: FpModule) -> bool:
    """Endomorphism algebra of dimension 1 over F_p."""
    if not is_irreducible(V):
        raise NotIrreducible("absolute irreducibility needs an irreducible module")
    return module_hom_space_dim(V, V) == 1


def cyclicity_criterion_check(H: Subgroup, V: FpModule) -> bool:
    """For a faithful irreducible prime-dimension module of a p'-group:
    is (H cyclic) == (V not absolutely irreducible)?

    A False return is a verification failure, not an error. Hypothesis
    violations (p | |H|, non-faithful action, reducible V, composite dim)
    raise HypothesisViolated.
    """
    p = V.p
    if H.order % p == 0:
        raise HypothesisViolated(f"|H| = {H.order} is divisible by {p}")
    if len(V.acting_gens) != len(H.generators):
        raise HypothesisViolated("module generators do not match H's")
    if matrix_group_order(V.acting_gens, p) != H.order:
        raise HypothesisViolated("action is not faithful")
    if not is_irreducible(V):
        raise HypothesisViolated("module is not irreducible")
    if not _is_prime(V.dim):
        raise HypothesisViolated(f"dimension {V.dim} is not prime")
    return _cyclicity_criterion(H, V)


def _cyclicity_criterion(H: Subgroup, V: FpModule) -> bool:
    """(H cyclic) == (End(V) has dimension > 1): for an irreducible V,
    the criterion itself, as V is absolutely irreducible iff End(V) = F_p."""
    cyclic = int(H.ambient.element_orders[H.idx].max()) == H.order
    return cyclic == (module_hom_space_dim(V, V) > 1)
