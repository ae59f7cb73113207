"""F_p[H]-modules extracted from elementary abelian sections.

Vectors are columns over F_p; a module is one invertible matrix per acting
generator. Subspaces are represented by reduced-row-echelon bases (rows),
which is the canonical form used for deduplication everywhere.

Submodule enumeration spins one nonzero vector per line, then closes the
spins under sums; at the configured dimension cap this is cheaper and more
transparent than meataxe-style factorization. Minimal submodules, being
irreducible, are compared by Schur's lemma.
"""

from __future__ import annotations

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


def nullspace(mat, p: int) -> np.ndarray:
    """Basis (rows) of the right nullspace of mat over F_p."""
    mat = np.array(mat, dtype=np.int64) % p
    if mat.size == 0:
        return np.eye(mat.shape[1] if mat.ndim == 2 else 0, dtype=np.int64)
    red, pivots = rref(mat, p)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        out[i, f] = 1
        for r, c in enumerate(pivots):
            out[i, c] = (-red[r, f]) % p
    return out


def _subspace_key(basis: np.ndarray) -> bytes:
    return basis.astype(np.int64).tobytes()


def _contains_subspace(big: np.ndarray, small: np.ndarray, p: int) -> bool:
    if small.shape[0] == 0:
        return True
    stacked, _ = rref(np.vstack((big, small)), p)
    return stacked.shape[0] == big.shape[0]


# -- the module type ----------------------------------------------------------


class FpModule:
    """p, dimension, one invertible matrix per acting-group generator."""

    def __init__(self, p: int, dim: int, acting_gens, provenance=None):
        self.p = int(p)
        self.dim = int(dim)
        mats = []
        for a in acting_gens:
            a = np.array(a, dtype=np.int64).reshape(dim, dim) % p
            a.setflags(write=False)
            mats.append(a)
        self.acting_gens = tuple(mats)
        self.provenance = provenance

    def gens_array(self) -> np.ndarray:
        if not self.acting_gens:
            return np.zeros((0, self.dim, self.dim), dtype=np.int64)
        return np.stack(self.acting_gens)

    def __repr__(self):
        return f"FpModule<F_{self.p}^{self.dim}, {len(self.acting_gens)} gens>"


def section_as_module(G: Group, above: Subgroup, below: Subgroup,
                      H: Subgroup, p: int) -> FpModule:
    """The elementary abelian section above/below as a module for H acting
    by conjugation, in the basis of canonically least coset generators."""
    table, inv = G.table, G.inverses
    if not above.contains(below):
        raise NotNormalized("below is not contained in above")
    norm_below = _kernels.normalizer_mask(table, inv, below.idx)
    norm_above = _kernels.normalizer_mask(table, inv, above.idx)
    if not norm_below[above.idx].all():
        raise NotNormalized("below is not normal in above")
    if not (norm_below[H.idx].all() and norm_above[H.idx].all()):
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
    reps = np.unique(coset_rep[above.idx])
    below_mask = below.mask
    power = reps
    for _ in range(p - 1):
        power = table[power, reps]  # x^p for every coset rep x
    if not below_mask[power].all():
        raise NotElementaryAbelian("section has exponent larger than p")
    # [x, y] = x^-1 y^-1 x y for every pair of coset reps
    if not below_mask[table[table[inv[reps][:, None], inv[reps]],
                            table[reps[:, None], reps]]].all():
        raise NotElementaryAbelian("section is not abelian")
    # greedy canonical basis: ascending coset reps, new rep = new direction
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
        col = []
        for b in basis_elems:
            conj = int(table[table[int(inv[hi]), b], hi])
            vec = assigned[int(coset_rep[conj])]
            col.append(vec)
        mats.append(np.array(col, dtype=np.int64).T % p)
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


def _line_vectors(p: int, k: int):
    """One nonzero vector of F_p^k per line, the one whose first nonzero
    coordinate is 1; a vector and its nonzero multiples spin to the same
    submodule. Read as base-p numbers, first coordinate most significant,
    these vectors are the codes p^j .. 2 p^j - 1 for j < k, yielded in
    increasing order."""
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for j in range(k):
        for code in range(p ** j, 2 * p ** j):
            yield (code // weights) % p


def _all_spins(M: FpModule) -> dict:
    """Canonical basis per cyclic submodule, keyed by subspace key."""
    p, k = M.p, M.dim
    mats = M.gens_array()
    spins = {}
    for v in _line_vectors(p, k):
        basis, _, nrows = _kernels.spin_basis(mats, v, p)
        sub = basis[:nrows].copy()
        spins.setdefault(_subspace_key(sub), sub)
    return spins


def submodules(M: FpModule, caps: Caps = DEFAULT_CAPS) -> SubmoduleLattice:
    """Every invariant subspace: spin one vector per line, then close
    under sums. A minimal submodule is cyclic, so it is a spin: the
    irreducible flags are read off the minimal spins."""
    if M.dim > caps.module_dim:
        raise ModuleCapExceeded(f"dim {M.dim} exceeds cap {caps.module_dim}")
    p = M.p
    zero = np.zeros((0, M.dim), dtype=np.int64)
    spins = _all_spins(M)
    found = {_subspace_key(zero): zero}
    found.update(spins)
    work = list(found.values())
    while work:
        a = work.pop()
        for b in list(found.values()):
            if a.shape[0] == 0 or b.shape[0] == 0:
                continue
            s, _ = rref(np.vstack((a, b)), p)
            key = _subspace_key(s)
            if key not in found:
                found[key] = s
                work.append(s)
    subs = sorted(found.values(), key=lambda s: (s.shape[0], _subspace_key(s)))
    minimal = {_subspace_key(s) for s in _minimal(spins, p)}
    return SubmoduleLattice(M, subs, [_subspace_key(s) in minimal for s in subs])


def _minimal(spins: dict, p: int) -> list:
    """The spins that contain no smaller nonzero spin, in key order."""
    subs = [spins[key] for key in sorted(spins)]
    return [s for s in subs if not any(
        0 < t.shape[0] < s.shape[0] and _contains_subspace(s, t, p)
        for t in subs)]


def minimal_submodules(M: FpModule, caps: Caps = DEFAULT_CAPS) -> list:
    """Minimal nonzero invariant subspaces (every one is a spin)."""
    if M.dim > caps.module_dim:
        raise ModuleCapExceeded(f"dim {M.dim} exceeds cap {caps.module_dim}")
    return _minimal(_all_spins(M), M.p)


def is_irreducible(M: FpModule) -> bool:
    """Exactly two invariant subspaces: every nonzero vector spins to all."""
    if M.dim == 0:
        return False
    p, k = M.p, M.dim
    mats = M.gens_array()
    for v in _line_vectors(p, k):
        _, _, nrows = _kernels.spin_basis(mats, v, p)
        if nrows < k:
            return False
    return True


def restrict_to_submodule(M: FpModule, basis: np.ndarray) -> FpModule:
    """The action restricted to an invariant subspace (RREF basis rows)."""
    _, pivots = rref(basis, M.p)
    r = basis.shape[0]
    mats = []
    for a in M.acting_gens:
        images = basis @ a.T % M.p  # row i = action applied to basis vector i
        coeffs = images[:, list(pivots)]  # RREF: coordinates sit at pivots
        mats.append(coeffs.T % M.p)
    return FpModule(M.p, r, mats)


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
    gens = [np.array(a, dtype=np.int64) % p for a in mats]
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
    them."""
    if M.dim == 0:
        return True, []
    order = matrix_group_order(M.acting_gens, M.p)
    if order % M.p == 0:
        raise NotSemisimpleContext(
            f"acting image order {order} is divisible by {M.p}")
    mins = minimal_submodules(M, caps)
    constituents = [restrict_to_submodule(M, b) for b in mins]
    semisimple = rref(np.vstack(mins), M.p)[0].shape[0] == M.dim  # by Maschke
    return semisimple and all(module_hom_space_dim(constituents[0], c) > 0
                              for c in constituents[1:]), constituents


# -- homomorphism spaces --------------------------------------------------------


def module_hom_space_dim(V: FpModule, W: FpModule) -> int:
    """dim of {X : X a_V(h) = a_W(h) X for every generator h}."""
    if V.p != W.p or len(V.acting_gens) != len(W.acting_gens):
        raise ActingGroupMismatch("modules over different acting groups")
    if V.dim == 0 or W.dim == 0:
        return 0
    return len(_hom_basis(V, W))


def _hom_basis(V: FpModule, W: FpModule) -> list:
    p, v, w = V.p, V.dim, W.dim
    if not len(V.acting_gens):
        vecs = np.eye(v * w, dtype=np.int64)
    else:
        # one block kron(a.T, 1_w) - kron(1_v, b) per generator pair,
        # its entry ((i, k), (j, l)) being a[j, i] [k == l] - [i == j] b[k, l]
        a = np.stack(V.acting_gens).transpose(0, 2, 1)[:, :, None, :, None]
        b = np.stack(W.acting_gens)[:, None, :, None, :]
        eye_v = np.eye(v, dtype=np.int64)[:, None, :, None]
        eye_w = np.eye(w, dtype=np.int64)[None, :, None, :]
        rows = len(V.acting_gens) * v * w
        vecs = nullspace((a * eye_w - eye_v * b).reshape(rows, v * w) % p, p)
    return [x.reshape(v, w).T % p for x in vecs]


def _some_invertible(basis: list, p: int, coefficients) -> bool:
    """Is some combination of ``basis`` with the given coefficient rows an
    invertible matrix?"""
    dim = basis[0].shape[0]
    for coeffs in coefficients:
        x = sum(int(c) * b for c, b in zip(coeffs, basis)) % p
        if rref(x, p)[0].shape[0] == dim:
            return True
    return False


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
