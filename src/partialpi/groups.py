"""Permutation groups with Cayley-table index arithmetic.

A Group owns a lexicographically sorted element table (one row per element,
0-based images); all heavier machinery (multiplication table, inverses,
element orders, conjugacy classes) is computed lazily and cached. Caches are
pure functions of the element table, so recomputation is idempotent and the
observable behaviour is that of an immutable value.

The table machinery (elements, Cayley table, inverses, element orders,
generator conjugation, class representatives) is held in
``functools.cached_property`` attributes, which a read takes straight from
the instance. Every other per-group cache goes through ``memo``:
``fn(G, *args)`` is keyed by all its arguments, caps included, so a cached
value answers only a call with equal arguments and equal caps.
A cached Subgroup refers back to G, so most memo values tie G into a
reference cycle; ``clear_memo`` empties the cache when a caller is done
with the group. The values that deciding one subgroup's partial Pi and
CAP properties fills (``chiefs``' class-closure layout and chief
children) hold arrays only, so such a G is freed as soon as its last
reference goes.

Subgroups are index arrays into the ambient element table. Index 0 is always
the identity because the identity is the lex-least permutation. One lookup
names elements: ``_base_lookup`` keys every element by its images on a base,
and serves both the Cayley table (``table``) and the indices of Perms
(``indices_of``). One greedy closure (``_greedy_closure``) picks generating
sets and, in ``structure``, maximal pi-subgroups.
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
    """The rows in lexicographic order, as a new contiguous array.

    Sorts on a prefix of the columns, doubling its width from 8 until
    adjacent sorted rows differ within it (then the prefix alone fixes
    the order) or the prefix is every column.
    """
    if len(rows) == 0:
        return rows
    degree = rows.shape[1]
    width = 8
    while True:
        width = min(width, degree)
        ordered = rows[np.lexsort(rows[:, width - 1::-1].T)]
        if width == degree or (ordered[1:, :width]
                               != ordered[:-1, :width]).any(axis=1).all():
            return np.ascontiguousarray(ordered)
        width *= 2


_MISSING = object()


def memo(key: str):
    """Cache ``fn(G, *args)`` in ``G._cache``, the only code that fills it.

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


def clear_memo(G: "Group") -> None:
    """Drop every value ``memo`` cached for G.

    A cached value that holds a Subgroup (a lattice, the normal
    subgroups, a Sylow subgroup, a family, a quotient map) refers back to
    G, so a group with one is part of a reference cycle that only a full
    garbage collection frees; emptied, it is freed as soon as its last
    reference goes. Values that hold arrays, bytes or verdicts only, such
    as the chief children, make no cycle. Later calls recompute what they
    need.
    """
    G._cache.clear()


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

    # -- bookkeeping -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._elts)

    @property
    def element_array(self) -> np.ndarray:
        return self._elts

    @functools.cached_property
    def elements(self) -> tuple:
        """All elements as Perm objects, in canonical (lexicographic) order."""
        return tuple(Perm._from_array(r) for r in self._elts)

    @property
    def generators(self) -> tuple:
        if not self._gens and self.order > 1:
            sub = Subgroup(self, np.arange(self.order, dtype=_DTYPE), None)
            self._gens = sub.generators
        return self._gens

    def index_of(self, perm: Perm) -> int:
        """Index of a Perm in the element table; ElementNotInGroup if absent."""
        return int(self.indices_of((perm,))[0])

    def indices_of(self, perms) -> np.ndarray:
        """Indices of Perms in the element table; ElementNotInGroup if one
        is absent.

        All the Perms are keyed in one pass through ``_base_lookup``. A Perm
        outside G can share its key with an element, so each named row is
        then compared with its Perm.
        """
        perms = tuple(perms)
        for perm in perms:
            if perm.degree != self.degree:
                raise ElementNotInGroup(
                    f"degree {perm.degree} != {self.degree}")
        rows = np.array([perm.array for perm in perms],
                        dtype=_DTYPE).reshape(len(perms), self.degree)
        steps, element_of = self._base_lookup
        key = np.zeros(len(rows), dtype=np.int64)
        for b, lut in steps:
            key = lut[key * self.degree + rows[:, b]]
        idx = element_of[key].astype(np.intp)
        absent = (self._elts[idx] != rows).any(axis=1)
        if absent.any():
            raise ElementNotInGroup(
                f"{perms[int(absent.argmax())]!r} not in group")
        return idx

    def __contains__(self, perm: Perm) -> bool:
        try:
            self.indices_of((perm,))
        except ElementNotInGroup:
            return False
        return True

    def perm(self, index: int) -> Perm:
        return Perm._from_array(self._elts[index])

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        return f"Group<{label}, order {self.order}>"

    # -- table machinery ---------------------------------------------------

    @functools.cached_property
    def _base_lookup(self) -> tuple:
        """``(steps, element_of)``: each element keyed exactly by its images
        on a base.

        The base points are chosen greedily, each kept when it separates
        more elements, until only the identity fixes them all. After each
        base point b the key ``key * degree + image`` is replaced by its
        rank among the elements' keys, so every key stays below order *
        degree. Each step ``(b, lut)`` stores a dense lookup array over all
        ``distinct * degree`` possible keys (``distinct`` counting the keys
        before the step): the running count of a boolean row with the keys
        the elements take scattered in, so each taken key maps to its rank,
        and any other key to a rank in range. The final rank of an element
        names it through ``element_of``. A lookup array has fewer than
        order * degree entries, no more than the element table itself.
        """
        n, degree = self.order, self.degree
        elts = self._elts
        key = np.zeros(n, dtype=np.int64)
        distinct = 1
        steps = []
        for b in range(degree):
            if distinct == n:
                break
            wide = key * degree + elts[:, b]
            seen = np.zeros(distinct * degree, dtype=np.bool_)
            seen[wide] = True
            lut = np.maximum(np.cumsum(seen) - 1, 0)
            count = int(lut[-1]) + 1
            if count > distinct:
                steps.append((b, lut))
                key, distinct = lut[wide], count
        element_of = np.empty(n, dtype=_DTYPE)
        element_of[key] = np.arange(n, dtype=_DTYPE)
        return steps, element_of

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Cayley table: table[i, j] = index of element_i-then-element_j.

        A product of two elements is an element, so its key takes the
        ranked steps of ``_base_lookup`` by one gather each, and the final
        rank names its element. Rows are built in blocks of 64 from the
        element table's columns.
        """
        n, degree = self.order, self.degree
        elts = self._elts
        steps, element_of = self._base_lookup
        table = np.empty((n, n), dtype=_DTYPE)
        columns = np.ascontiguousarray(elts.T)
        for lo in range(0, n, 64):
            rows = slice(lo, min(lo + 64, n))
            prod = np.zeros((rows.stop - lo, n), dtype=np.int64)
            for b, lut in steps:
                # row i, column j: image of b under element_i-then-element_j
                prod = lut[prod * degree + columns[elts[rows, b]]]
            table[rows] = element_of[prod]
        table.setflags(write=False)
        return table

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=_DTYPE)
        rows, cols = np.nonzero(self.table == 0)
        inv[rows] = cols
        inv.setflags(write=False)
        return inv

    @functools.cached_property
    def element_orders(self) -> np.ndarray:
        """orders[x] = least k >= 1 with x^k = 1, by powering every element
        at once through the table."""
        n = self.order
        orders = np.zeros(n, dtype=_DTYPE)
        power = np.arange(n, dtype=_DTYPE)  # x^k for every x
        k = 1
        while True:
            orders[(power == 0) & (orders == 0)] = k
            if orders.all():
                break
            power = self.table[power, np.arange(n)]
            k += 1
        orders.setflags(write=False)
        return orders

    @functools.cached_property
    def conjugation(self) -> np.ndarray:
        """conjugation[t, x] = index of x^g = g^-1 x g, for g the t-th
        generator: one row per generator, m x order in all.

        The generators generate G, so the orbits of these rows are the
        conjugacy classes, and a set closed under them is closed under
        conjugation by all of G. The generators are found by ``indices_of``,
        and the inverse of each is the one 0 in its table row.
        """
        gens = self.indices_of(self.generators)
        inv = (self.table[gens] == 0).nonzero()[1]
        conj = self.table[self.table[inv], gens[:, None]]
        conj.setflags(write=False)
        return conj

    @functools.cached_property
    def class_reps(self) -> np.ndarray:
        """class_reps[x] = least index in the conjugacy class of x."""
        reps = _kernels.class_min_rep(self.conjugation)
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
        """``generators`` are Perms; without them, the greedy closure over
        ``idx`` finds some when they are first read."""
        self.ambient = ambient
        idx = np.asarray(idx, dtype=_DTYPE)
        idx.setflags(write=False)
        self.idx = idx
        self._gens = tuple(generators) if generators is not None else None
        self._mask = None
        self._key = (id(ambient), idx.tobytes())

    @classmethod
    def _of_arrays(cls, ambient: Group, idx: np.ndarray, mask: np.ndarray,
                   key: bytes) -> "Subgroup":
        """A Subgroup on arrays already built for it: ``idx`` sorted and
        read-only, ``mask`` its read-only mask and ``key`` its
        ``idx.tobytes()``. They are used as they are, not copied, so
        values that hold only arrays can rebuild Subgroups cheaply."""
        S = cls.__new__(cls)
        S.ambient = ambient
        S.idx = idx
        S._gens = None
        S._mask = mask
        S._key = (id(ambient), key)
        return S

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
            gens, _ = _greedy_closure(G, self.idx.tolist(), lambda size: True,
                                      self.order)
            # index order is Perm order: the element table is lex-sorted
            self._gens = tuple(G.perm(i) for i in gens)
        return self._gens

    def contains(self, other: "Subgroup") -> bool:
        return bool(self.mask[other.idx].all())

    def conjugate_by_index(self, g: int) -> "Subgroup":
        G = self.ambient
        gi = int(G.inverses[g])
        conj = G.table[G.table[gi, self.idx], g]
        return G.subgroup(conj)

    def is_normal(self) -> bool:
        """Normal iff the union of the classes it meets: every element
        whose class representative occurs in it lies in it."""
        reps = self.ambient.class_reps
        met = np.zeros(self.ambient.order, dtype=bool)
        met[reps[self.idx]] = True
        return bool(self.mask[met[reps]].all())

    def as_group(self) -> Group:
        """Standalone Group on the same points with this subgroup's elements;
        both element tables are lex-sorted, so its row i is ``idx[i]``."""
        G = self.ambient
        return Group(G.degree, G.element_array[self.idx],
                     generators=self.generators)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subgroup<order {self.order} of {self.ambient!r}>"


def lift_subgroup(sub_of_sub: Subgroup, parent: Group) -> Subgroup:
    """A subgroup of S.as_group() read in S's ambient, by element set."""
    small = sub_of_sub.ambient
    if small is parent:
        return parent.subgroup(sub_of_sub.idx)
    return parent.subgroup(parent.indices_of(sub_of_sub.members))


# -- closure from generators ------------------------------------------------


def _greedy_closure(G: Group, candidates, accept, limit: int) -> tuple:
    """Add the candidates (element indices) in order, skipping those in the
    closure so far, keeping each one whose closure with the kept ones has
    an order that ``accept`` takes; stop once the closure has ``limit``
    elements. Returns ``(gens, member)``: the kept candidates, and the
    mask of their closure."""
    gens: list = []
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    size = 1
    for x in candidates:
        if size == limit:
            break
        if member[x]:
            continue
        trial = _kernels.closure_idx(G.table, np.array(gens + [x], dtype=_DTYPE))
        trial_size = int(trial.sum())
        if accept(trial_size):
            gens.append(x)
            member, size = trial, trial_size
    return gens, member


def group_from_generators(degree: int, gens, caps: Caps = DEFAULT_CAPS,
                          name=None) -> Group:
    """Close a generating set of Perms into a Group, level by level.

    Each level multiplies the whole frontier (the elements new at the last
    level) by every generator in one gather; the products not seen before
    are the next frontier. Raises ClosureCapExceeded on adding an element
    while caps.closure elements are already known; the identity is known
    from the start, so a nontrivial group builds iff its order is at most
    caps.closure.
    """
    gens = tuple(gens)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    frontier = np.arange(degree, dtype=_DTYPE)[None, :]
    known = {frontier.tobytes()}
    levels = [frontier]
    gen_arrays = np.array([g.array for g in gens],
                          dtype=_DTYPE).reshape(len(gens), degree)
    while len(frontier):
        products = gen_arrays[:, frontier].reshape(-1, degree)
        width = products.itemsize * degree
        flat = products.tobytes()
        new = []
        for i in range(len(products)):
            key = flat[i * width:(i + 1) * width]
            if key not in known:
                if len(known) >= caps.closure:
                    raise ClosureCapExceeded(
                        f"closure exceeds cap {caps.closure}")
                known.add(key)
                new.append(i)
        frontier = products[new]
        levels.append(frontier)
    return Group(degree, np.concatenate(levels),
                 generators=tuple(sorted(gens)), name=name)


def subgroup_generated(G: Group, perms) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    perms = tuple(perms)
    member = _kernels.closure_idx(G.table, G.indices_of(perms))
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

    Coset c is named by its least element reps[c], its lex-least preimage;
    all of it induces c' -> coset(reps[c'] * reps[c]), so the target's rows
    are one gather over the table.
    """

    def __init__(self, source: Group, kernel: Subgroup):
        self.source = source
        self.kernel = kernel
        table = source.table
        coset_rep = table[kernel.idx, :].min(axis=0)  # least element of N*x
        reps = np.unique(coset_rep)
        cid = np.searchsorted(reps, coset_rep).astype(_DTYPE)
        raw = cid[coset_rep[table[reps[:, None], reps]]].T
        # position of each coset's row in the target's canonical order
        position = np.empty(len(reps), dtype=_DTYPE)
        position[np.lexsort(raw[:, ::-1].T)] = np.arange(len(reps))
        gen_cosets = set(cid[source.indices_of(source.generators)].tolist())
        gen_perms = tuple(sorted(Perm._from_array(raw[c])
                                 for c in gen_cosets if c != 0))
        self.target = Group(len(reps), raw, generators=gen_perms,
                            name=(f"{source.name}/N" if source.name else None))
        self.push_idx = position[cid]
        self.push_idx.setflags(write=False)
        self.pull_idx = np.empty(len(reps), dtype=_DTYPE)
        self.pull_idx[position] = reps
        self.pull_idx.setflags(write=False)

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


def _singular(mat: np.ndarray, p: int) -> bool:
    """Is the square matrix singular over F_p (rank below its size)? The
    rank is the trace of its square echelon form."""
    return int(_kernels.echelon(mat[None], p)[0].trace()) < mat.shape[0]


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
    if _singular(mat, p):
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
        if _singular(a, p):
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
        if _singular(a, p):
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

    gens = A.indices_of(A.as_subgroup().generators).tolist()
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
