"""Permutation groups with Cayley-table index arithmetic.

A Group owns a lexicographically sorted element table (one row per element,
0-based images); all heavier machinery (multiplication table, inverses,
element orders, conjugacy classes) is computed lazily and cached. Caches are
pure functions of the element table, so recomputation is idempotent and the
observable behaviour is that of an immutable value.

Every per-group cache goes through ``memo``: ``fn(G, *args)`` is keyed by
all its arguments, caps included, so a cached value answers only a call with
equal arguments and equal caps.

Subgroups are index arrays into the ambient element table. Index 0 is always
the identity because the identity is the lex-least permutation.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from . import _kernels
from .config import Caps, DEFAULT_CAPS
from .errors import (
    BadAction,
    ClosureCapExceeded,
    ElementNotInGroup,
    IsoCapExceeded,
    NotNormal,
)
from .perms import Perm, _DTYPE


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    if len(rows) == 0:
        return rows
    order = np.lexsort(rows[:, ::-1].T)
    return np.ascontiguousarray(rows[order])


_MISSING = object()


def memo(key: str):
    """Cache ``fn(G, *args)`` in ``G._cache``, the only code that writes it.

    The value is stored under ``key`` when fn takes G alone and under
    ``(key, *args)`` otherwise, omitted defaults filled in first, so
    ``f(G)`` and ``f(G, DEFAULT_CAPS)`` share one entry. A whole ``Caps``
    value is an argument like any other: a cached value answers only a call
    with equal arguments and equal caps. The signature is read per call
    only for keyword arguments or a missing required one.
    """
    def decorate(fn):
        signature = inspect.signature(fn)
        params = list(signature.parameters.values())[1:]
        defaults = tuple(p.default for p in params)
        required = sum(p.default is p.empty for p in params)

        @functools.wraps(fn)
        def cached(G, *args, **kwargs):
            if kwargs or len(args) < required:
                bound = signature.bind(G, *args, **kwargs)
                bound.apply_defaults()
                args = bound.args[1:]
            elif len(args) < len(defaults):
                args += defaults[len(args):]
            cache_key = (key, *args) if args else key
            value = G._cache.get(cache_key, _MISSING)
            if value is _MISSING:
                value = G._cache[cache_key] = fn(G, *args)
            return value
        return cached
    return decorate


class Group:
    """A finite permutation group on {1..degree}."""

    def __init__(self, degree: int, elements: np.ndarray, generators=(), name=None):
        """Internal constructor; use group_from_generators or the named builders.

        ``elements`` must be the full, closed element set (rows of 0-based
        images); it is sorted here so callers need not pre-sort.
        """
        self.degree = int(degree)
        elts = np.asarray(elements, dtype=_DTYPE).reshape(-1, degree)
        elts = _lex_sorted(elts)
        elts.setflags(write=False)
        self._elts = elts
        self.name = name
        self._gens = tuple(generators)
        self._cache: dict = {}
        # (parent, idx) when built by Subgroup.as_group: row i is parent[idx[i]]
        self.lift_parent = None

    # -- bookkeeping -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._elts)

    @property
    def element_array(self) -> np.ndarray:
        return self._elts

    @property
    @memo("elements")
    def elements(self) -> tuple:
        """All elements as Perm objects, in canonical (lexicographic) order."""
        return tuple(Perm._from_array(r) for r in self._elts)

    @property
    def generators(self) -> tuple:
        if not self._gens and self.order > 1:
            sub = Subgroup(self, np.arange(self.order, dtype=_DTYPE), None)
            self._gens = sub.generators
        return self._gens

    @property
    @memo("key_index")
    def _key_index(self) -> dict:
        return {row.tobytes(): i for i, row in enumerate(self._elts)}

    def index_of(self, perm: Perm) -> int:
        """Index of a Perm in the element table; ElementNotInGroup if absent."""
        if perm.degree != self.degree:
            raise ElementNotInGroup(f"degree {perm.degree} != {self.degree}")
        idx = self._key_index.get(perm.array.tobytes())
        if idx is None:
            raise ElementNotInGroup(f"{perm!r} not in group")
        return idx

    def __contains__(self, perm: Perm) -> bool:
        return (perm.degree == self.degree
                and perm.array.tobytes() in self._key_index)

    def perm(self, index: int) -> Perm:
        return Perm._from_array(self._elts[index])

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        return f"Group<{label}, order {self.order}>"

    # -- table machinery ---------------------------------------------------

    @property
    @memo("table")
    def table(self) -> np.ndarray:
        """Cayley table: table[i, j] = index of element_i-then-element_j."""
        n = self.order
        index = self._key_index
        table = np.empty((n, n), dtype=_DTYPE)
        for i in range(n):
            # row j of prods is elements[i]-then-elements[j]
            prods = self._elts[:, self._elts[i]]
            table[i] = [index[row.tobytes()] for row in prods]
        table.setflags(write=False)
        return table

    @property
    @memo("inverses")
    def inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=_DTYPE)
        rows, cols = np.nonzero(self.table == 0)
        inv[rows] = cols
        inv.setflags(write=False)
        return inv

    @property
    @memo("element_orders")
    def element_orders(self) -> np.ndarray:
        orders = np.array(
            [Perm._from_array(r).order() for r in self._elts], dtype=_DTYPE)
        orders.setflags(write=False)
        return orders

    @property
    @memo("class_reps")
    def class_reps(self) -> np.ndarray:
        """class_reps[x] = least index in the conjugacy class of x."""
        reps = _kernels.class_min_rep(self.table, self.inverses)
        reps.setflags(write=False)
        return reps

    # -- subgroup constructors --------------------------------------------

    def subgroup(self, idx, generators=None) -> "Subgroup":
        idx = np.asarray(idx, dtype=_DTYPE)
        return Subgroup(self, np.sort(idx), generators)

    def subgroup_from_mask(self, mask, generators=None) -> "Subgroup":
        return Subgroup(self, np.flatnonzero(mask).astype(_DTYPE), generators)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup(np.zeros(1, dtype=_DTYPE), generators=())

    def as_subgroup(self) -> "Subgroup":
        return self.subgroup(np.arange(self.order, dtype=_DTYPE),
                             generators=self.generators)


class Subgroup:
    """A subgroup of an ambient Group, held as a sorted element-index array."""

    __slots__ = ("ambient", "idx", "_gens", "_mask", "_key")

    def __init__(self, ambient: Group, idx: np.ndarray, generators=None):
        self.ambient = ambient
        idx = np.asarray(idx, dtype=_DTYPE)
        idx.setflags(write=False)
        self.idx = idx
        self._gens = tuple(generators) if generators is not None else None
        self._mask = None
        self._key = (id(ambient), idx.tobytes())

    @property
    def order(self) -> int:
        return len(self.idx)

    @property
    def mask(self) -> np.ndarray:
        if self._mask is None:
            m = np.zeros(self.ambient.order, dtype=bool)
            m[self.idx] = True
            m.setflags(write=False)
            self._mask = m
        return self._mask

    @property
    def members(self) -> tuple:
        return tuple(Perm._from_array(self.ambient.element_array[i])
                     for i in self.idx)

    @property
    def generators(self) -> tuple:
        if self._gens is None:
            G = self.ambient
            gens_idx: list = []
            member = None
            for x in self.idx:
                x = int(x)
                if x == 0 or (member is not None and member[x]):
                    continue
                gens_idx.append(x)
                member = _kernels.closure_idx(
                    G.table, np.array(gens_idx, dtype=_DTYPE))
            self._gens = tuple(G.perm(i) for i in gens_idx)
        return self._gens

    def contains(self, other: "Subgroup") -> bool:
        return bool(self.mask[other.idx].all())

    def conjugate_by_index(self, g: int) -> "Subgroup":
        G = self.ambient
        gi = int(G.inverses[g])
        conj = G.table[G.table[gi, self.idx], g]
        return G.subgroup(conj)

    def is_normal(self) -> bool:
        G = self.ambient
        norm = _kernels.normalizer_mask(G.table, G.inverses, self.idx)
        return bool(norm.all())

    def as_group(self) -> Group:
        """Standalone Group on the same points with this subgroup's elements."""
        G = self.ambient
        sub = Group(G.degree, G.element_array[self.idx],
                    generators=self.generators)
        sub.lift_parent = (G, self.idx)
        return sub

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subgroup<order {self.order} of {self.ambient!r}>"


def lift_subgroup(sub_of_sub: Subgroup, parent: Group) -> Subgroup:
    """Reinterpret a subgroup of S.as_group() as a subgroup of S's ambient."""
    small = sub_of_sub.ambient
    if small is parent:
        return parent.subgroup(sub_of_sub.idx)
    if small.lift_parent is not None and small.lift_parent[0] is parent:
        return parent.subgroup(small.lift_parent[1][sub_of_sub.idx])
    index = parent._key_index
    rows = small.element_array[sub_of_sub.idx]
    return parent.subgroup(np.array([index[r.tobytes()] for r in rows],
                                    dtype=_DTYPE))


# -- closure from generators ------------------------------------------------


def group_from_generators(degree: int, gens, caps: Caps = DEFAULT_CAPS,
                          name=None) -> Group:
    """Close a generating set of Perms into a Group.

    Raises ClosureCapExceeded as soon as the closure grows past caps.closure.
    """
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    ident = np.arange(degree, dtype=_DTYPE)
    known = {ident.tobytes(): ident}
    work = [ident]
    gen_arrays = [g.array for g in gens]
    while work:
        x = work.pop()
        for g_arr in gen_arrays:
            y = g_arr[x]
            key = y.tobytes()
            if key not in known:
                if len(known) >= caps.closure:
                    raise ClosureCapExceeded(
                        f"closure exceeds cap {caps.closure}")
                known[key] = y
                work.append(y)
    elts = np.stack(list(known.values())) if known else ident[None, :]
    return Group(degree, elts, generators=tuple(sorted(gens)), name=name)


def subgroup_generated(G: Group, perms) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    perms = tuple(perms)
    gens_idx = np.array([G.index_of(p) for p in perms], dtype=_DTYPE)
    member = _kernels.closure_idx(G.table, gens_idx)
    return G.subgroup_from_mask(member, generators=tuple(sorted(perms)))


# -- normalizer / centralizer / core ----------------------------------------


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    """N_G(H) = {g : H^g = H}; always contains H."""
    mask = _kernels.normalizer_mask(G.table, G.inverses, H.idx)
    return G.subgroup_from_mask(mask)


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    mask = _kernels.centralizer_mask(G.table, H.idx)
    return G.subgroup_from_mask(mask)


@memo("center")
def center(G: Group) -> Subgroup:
    return centralizer(G, G.as_subgroup())


@memo("derived")
def derived_subgroup(G: Group) -> Subgroup:
    """Commutator subgroup [G, G]."""
    n = G.order
    table, inv = G.table, G.inverses
    comms = table[table[inv[:, None], inv[None, :]],
                  table[np.arange(n)[:, None], np.arange(n)[None, :]]]
    seeds = np.unique(comms.ravel()).astype(_DTYPE)
    member = _kernels.closure_idx(table, seeds)
    return G.subgroup_from_mask(member)


def core(G: Group, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside H (intersection of conjugates)."""
    table, inv = G.table, G.inverses
    norm = _kernels.normalizer_mask(table, inv, H.idx)
    reps = np.unique(table[np.flatnonzero(norm), :].min(axis=0))
    mask = H.mask.copy()
    for r in reps:
        r = int(r)
        conj = table[table[inv[r], H.idx], r]
        conj_mask = np.zeros(G.order, dtype=bool)
        conj_mask[conj] = True
        mask &= conj_mask
        if mask.sum() == 1:
            break
    return G.subgroup_from_mask(mask)


# -- quotients ---------------------------------------------------------------


class QuotientMap:
    """G -> G/N realized as the regular action of G on right cosets of N.

    push is a surjective homomorphism with kernel N; pull is the section
    choosing the lexicographically least preimage of each target element.
    """

    def __init__(self, source: Group, kernel: Subgroup):
        self.source = source
        self.kernel = kernel
        table = source.table
        n = source.order
        coset_rep = table[kernel.idx, :].min(axis=0)  # rep of coset N*x
        reps = np.unique(coset_rep)
        m = len(reps)
        rep_to_cid = {int(r): c for c, r in enumerate(reps)}
        cid = np.array([rep_to_cid[int(r)] for r in coset_rep], dtype=_DTYPE)
        # the permutation each g induces on cosets: c -> coset(rep_c * g)
        rows = np.empty((n, m), dtype=_DTYPE)
        for g in range(n):
            rows[g] = cid[coset_rep[table[reps, g]]]
        key_map: dict = {}
        target_rows = []
        push_idx = np.empty(n, dtype=_DTYPE)
        for g in range(n):
            key = rows[g].tobytes()
            if key not in key_map:
                key_map[key] = len(target_rows)
                target_rows.append(rows[g])
            push_idx[g] = key_map[key]
        raw = np.stack(target_rows)
        gen_perms = tuple(sorted({Perm._from_array(rows[source.index_of(p)])
                                  for p in source.generators
                                  if push_idx[source.index_of(p)] != 0}))
        self.target = Group(m, raw, generators=gen_perms,
                            name=(f"{source.name}/N" if source.name else None))
        # reindex push through the target's canonical (sorted) order
        reorder = np.array([self.target.index_of(Perm._from_array(r))
                            for r in raw], dtype=_DTYPE)
        self.push_idx = reorder[push_idx]
        self.push_idx.setflags(write=False)
        pull = np.full(self.target.order, -1, dtype=_DTYPE)
        for g in range(n):  # ascending g: first hit is the lex-least preimage
            t = self.push_idx[g]
            if pull[t] < 0:
                pull[t] = g
        self.pull_idx = pull
        self.pull_idx.setflags(write=False)

    @property
    def index(self) -> int:
        return self.target.order

    def push(self, perm: Perm) -> Perm:
        return self.target.perm(int(self.push_idx[self.source.index_of(perm)]))

    def pull(self, perm: Perm) -> Perm:
        return self.source.perm(int(self.pull_idx[self.target.index_of(perm)]))

    def push_subgroup(self, S: Subgroup) -> Subgroup:
        return self.target.subgroup(np.unique(self.push_idx[S.idx]))

    def preimage(self, S: Subgroup) -> Subgroup:
        mask = np.zeros(self.target.order, dtype=bool)
        mask[S.idx] = True
        return self.source.subgroup_from_mask(mask[self.push_idx])


@memo("quotient")
def quotient(G: Group, N: Subgroup) -> QuotientMap:
    """Quotient map with target the coset action of G on N's right cosets."""
    if not N.is_normal():
        raise NotNormal("kernel is not normal")
    return QuotientMap(G, N)


# -- products ----------------------------------------------------------------


def direct_product(A: Group, B: Group, caps: Caps = DEFAULT_CAPS,
                   name=None) -> Group:
    """A x B on deg(A)+deg(B) points, the two factors commuting."""
    if A.order * B.order > caps.closure:
        raise ClosureCapExceeded(
            f"product order {A.order * B.order} exceeds cap {caps.closure}")
    da, db = A.degree, B.degree
    ea, eb = A.element_array, B.element_array
    rows = np.empty((A.order * B.order, da + db), dtype=_DTYPE)
    rows[:, :da] = np.repeat(ea, B.order, axis=0)
    rows[:, da:] = np.tile(eb + da, (A.order, 1))
    idb = np.arange(db, dtype=_DTYPE) + da
    ida = np.arange(da, dtype=_DTYPE)
    gens = [Perm._from_array(np.concatenate((g.array, idb)))
            for g in A.generators]
    gens += [Perm._from_array(np.concatenate((ida, g.array + da)))
             for g in B.generators]
    return Group(da + db, rows, generators=tuple(sorted(gens)), name=name)


def _vector_points(p: int, k: int) -> tuple:
    """All vectors of F_p^k in mixed-radix order, plus the encoding weights."""
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    count = p ** k
    codes = np.arange(count, dtype=np.int64)
    vecs = (codes[:, None] // weights[None, :]) % p
    return vecs, weights


def _translation_perms(p: int, k: int, extra: int = 0) -> list:
    vecs, weights = _vector_points(p, k)
    tail = np.arange(extra, dtype=_DTYPE) + p ** k
    out = []
    for i in range(k):
        shifted = vecs.copy()
        shifted[:, i] = (shifted[:, i] + 1) % p
        images = (shifted @ weights).astype(_DTYPE)
        out.append(Perm._from_array(np.concatenate((images, tail))))
    return out


def _matrix_perm(p: int, mat: np.ndarray, extra_images=None) -> Perm:
    k = mat.shape[0]
    vecs, weights = _vector_points(p, k)
    images = (((vecs @ mat.T) % p) @ weights).astype(_DTYPE)
    if extra_images is not None:
        images = np.concatenate((images, np.asarray(extra_images, _DTYPE)))
    return Perm._from_array(images)


def _det_mod(mat: np.ndarray, p: int) -> int:
    m = np.array(mat, dtype=np.int64) % p
    k = m.shape[0]
    det = 1
    for c in range(k):
        piv = None
        for r in range(c, k):
            if m[r, c] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = -det
        det = det * m[c, c] % p
        inv = pow(int(m[c, c]), -1, p)
        for r in range(c + 1, k):
            if m[r, c]:
                m[r] = (m[r] - m[r, c] * inv * m[c]) % p
    return det % p


def semidirect_product(p: int, k: int, mat, m: int,
                       caps: Caps = DEFAULT_CAPS, name=None) -> Group:
    """(C_p)^k : C_m with the C_m generator acting by an invertible matrix.

    Realized on p^k vector points plus an m-cycle of extra points; the extra
    cycle keeps the C_m factor faithful even when the matrix has order < m.
    The Sylow p-subgroup is the translated vector group.
    """
    mat = np.array(mat, dtype=np.int64).reshape(k, k) % p
    if math.gcd(m, p) != 1:
        raise BadAction(f"gcd({m}, {p}) != 1")
    if _det_mod(mat, p) == 0:
        raise BadAction("action matrix is singular mod p")
    power = np.eye(k, dtype=np.int64)
    for _ in range(m):
        power = (power @ mat) % p
    if not np.array_equal(power, np.eye(k, dtype=np.int64) % p):
        raise BadAction(f"matrix^{m} != identity mod {p}")
    base = p ** k
    extra = (np.arange(m, dtype=_DTYPE) + 1) % m + base
    gens = _translation_perms(p, k, extra=m)
    gens.append(_matrix_perm(p, mat, extra_images=extra))
    return group_from_generators(base + m, gens, caps=caps, name=name)


def vector_action_group(p: int, k: int, mats, caps: Caps = DEFAULT_CAPS,
                        name=None) -> Group:
    """(C_p)^k : <mats> acting on the p^k vector points.

    Faithful iff the matrix group is; use for non-cyclic point stabilizers.
    """
    mats = [np.array(a, dtype=np.int64).reshape(k, k) % p for a in mats]
    for a in mats:
        if _det_mod(a, p) == 0:
            raise BadAction("action matrix is singular mod p")
    gens = _translation_perms(p, k)
    gens += [_matrix_perm(p, a) for a in mats]
    return group_from_generators(p ** k, gens, caps=caps, name=name)


def matrix_group_on_nonzero_vectors(p: int, k: int, mats,
                                    caps: Caps = DEFAULT_CAPS,
                                    name=None) -> Group:
    """Matrix group acting on the p^k - 1 nonzero vectors of F_p^k."""
    mats = [np.array(a, dtype=np.int64).reshape(k, k) % p for a in mats]
    vecs, weights = _vector_points(p, k)
    gens = []
    for a in mats:
        if _det_mod(a, p) == 0:
            raise BadAction("matrix is singular mod p")
        codes = ((vecs @ a.T) % p) @ weights
        gens.append(Perm._from_array((codes[1:] - 1).astype(_DTYPE)))
    return group_from_generators(p ** k - 1, gens, caps=caps, name=name)


# -- named constructors ------------------------------------------------------


def trivial_group() -> Group:
    return Group(1, np.zeros((1, 1), dtype=_DTYPE), name="1")


def cyclic(n: int) -> Group:
    if n == 1:
        return trivial_group()
    gen = Perm._from_array((np.arange(n, dtype=_DTYPE) + 1) % n)
    return group_from_generators(n, [gen], name=f"C{n}")


def symmetric(n: int) -> Group:
    if n < 2:
        return trivial_group()
    cycle = Perm._from_array((np.arange(n, dtype=_DTYPE) + 1) % n)
    swap = Perm.from_cycles([[1, 2]], n)
    return group_from_generators(n, [swap, cycle], name=f"S{n}")


def alternating(n: int) -> Group:
    if n < 3:
        return trivial_group() if n < 2 else Group(
            n, np.arange(n, dtype=_DTYPE)[None, :], name=f"A{n}")
    three = Perm.from_cycles([[1, 2, 3]], n)
    if n % 2 == 1:
        big = Perm._from_array((np.arange(n, dtype=_DTYPE) + 1) % n)
    else:
        big = Perm.from_cycles([list(range(2, n + 1))], n)
    return group_from_generators(n, [three, big], name=f"A{n}")


def dihedral(order: int) -> Group:
    """Dihedral group of the given (even, >= 6) order on order/2 points."""
    if order % 2 or order < 6:
        raise ValueError("dihedral order must be even and >= 6")
    n = order // 2
    rot = Perm._from_array((np.arange(n, dtype=_DTYPE) + 1) % n)
    refl = Perm._from_array((-np.arange(n, dtype=_DTYPE)) % n)
    return group_from_generators(n, [rot, refl], name=f"D{order}")


def dicyclic(order: int) -> Group:
    """Dicyclic group of order 4n (Q8 = dicyclic(8), Q16 = dicyclic(16))."""
    if order % 4:
        raise ValueError("dicyclic order must be divisible by 4")
    n = order // 4
    two_n = 2 * n
    i = np.arange(two_n, dtype=_DTYPE)
    a = np.concatenate(((i + 1) % two_n, two_n + (i - 1) % two_n))
    b = np.concatenate((two_n + i, (i + n) % two_n))
    name = f"Q{order}" if order in (8, 16, 32) else f"Dic{n}"
    return group_from_generators(
        2 * two_n, [Perm._from_array(a), Perm._from_array(b)], name=name)


def semidihedral(order: int) -> Group:
    """Semidihedral 2-group of order 2^n >= 16, acting on Z_{2^(n-1)}."""
    if order < 16 or order & (order - 1):
        raise ValueError("semidihedral order must be a power of 2, >= 16")
    half = order // 2
    i = np.arange(half, dtype=_DTYPE)
    a = Perm._from_array((i + 1) % half)
    b = Perm._from_array((i * (half // 2 - 1)) % half)
    return group_from_generators(half, [a, b], name=f"SD{order}")


def elementary_abelian(p: int, k: int) -> Group:
    """(C_p)^k as a direct product of k disjoint p-cycles (degree p*k)."""
    g = cyclic(p)
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    out.name = f"C{p}^{k}"
    return out


def special_linear_2_3() -> Group:
    """SL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    return matrix_group_on_nonzero_vectors(
        3, 2, [[[0, 2], [1, 0]], [[1, 1], [0, 1]]], name="SL(2,3)")


def general_linear_3_2() -> Group:
    """GL(3,2) (simple, order 168) on the 7 nonzero vectors of F_2^3."""
    return matrix_group_on_nonzero_vectors(
        2, 3, [[[0, 0, 1], [1, 0, 0], [0, 1, 0]],
               [[1, 1, 0], [0, 1, 0], [0, 0, 1]]], name="GL(3,2)")


# -- isomorphism testing -----------------------------------------------------


def _iso_invariants(G: Group):
    hist = tuple(sorted((int(o), int(c)) for o, c in
                        zip(*np.unique(G.element_orders, return_counts=True))))
    ab = quotient(G, derived_subgroup(G)).target
    ab_hist = tuple(sorted((int(o), int(c)) for o, c in
                           zip(*np.unique(ab.element_orders, return_counts=True))))
    return (G.order, hist, center(G).order, ab.order, ab_hist)


def _class_sizes(G: Group) -> np.ndarray:
    reps, counts = np.unique(G.class_reps, return_counts=True)
    size_of_rep = dict(zip(reps.tolist(), counts.tolist()))
    return np.array([size_of_rep[int(r)] for r in G.class_reps], dtype=_DTYPE)


def is_isomorphic(A: Group, B: Group, caps: Caps = DEFAULT_CAPS) -> bool:
    """Generator-image backtracking with invariant pruning."""
    if A.order > caps.iso or B.order > caps.iso:
        raise IsoCapExceeded(
            f"orders {A.order}, {B.order} exceed iso cap {caps.iso}")
    if A.order != B.order:
        return False
    if A.order == 1:
        return True
    if _iso_invariants(A) != _iso_invariants(B):
        return False

    gens = [A.index_of(g) for g in A.as_subgroup().generators]
    ord_a, ord_b = A.element_orders, B.element_orders
    cs_a, cs_b = _class_sizes(A), _class_sizes(B)
    ta, tb = A.table, B.table
    n = A.order

    candidates = []
    for g in gens:
        mask = (ord_b == ord_a[g]) & (cs_b == cs_a[g])
        candidates.append(np.flatnonzero(mask).tolist())

    def try_map(images) -> bool:
        fmap = np.full(n, -1, dtype=_DTYPE)
        used = np.zeros(n, dtype=bool)
        fmap[0] = 0
        used[0] = True
        work = [0]
        pairs = list(zip(gens[:len(images)], images))
        for g, h in pairs:
            if fmap[g] == -1:
                if used[h]:
                    return False
                fmap[g] = h
                used[h] = True
                work.append(g)
            elif fmap[g] != h:
                return False
        head = 0
        while head < len(work):
            x = work[head]
            head += 1
            for g, h in pairs:
                y = int(ta[x, g])
                img = int(tb[fmap[x], h])
                if fmap[y] == -1:
                    if used[img]:
                        return False
                    fmap[y] = img
                    used[img] = True
                    work.append(y)
                elif fmap[y] != img:
                    return False
        return True

    def backtrack(depth, images) -> bool:
        if depth == len(gens):
            return True
        for h in candidates[depth]:
            trial = images + [h]
            if try_map(trial) and backtrack(depth + 1, trial):
                return True
        return False

    return backtrack(0, [])
