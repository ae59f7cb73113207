"""Normal subgroups, chief series enumeration and chief-factor classification.

A chief series is a maximal chain in the normal-subgroup lattice; every step
is a chief factor (nothing normal strictly between). The chief-factor DAG
joins each normal subgroup N to its chief children. ``normal_subgroups``
records the DAG's covers as it builds: it forms every product N·C with a
class closure C outside N, and the chief children of N are the minimal
such products, so ``_chief_children`` only reads them off. ``search_chains``
is the one enumeration: a DFS from the bottom in canonical order, streamed
lazily, which prunes any prefix a per-factor step function rejects.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Iterator

import numpy as np

from . import _kernels
from .config import Caps, DEFAULT_CAPS
from .errors import NotChief, NotNormal, SeriesCapExceeded
from .groups import Group, Subgroup, memo
from .perms import _DTYPE


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power(n: int):
    """Return p if n is a power of the prime p, else None."""
    ps = _prime_factors(n)
    return ps[0] if len(ps) == 1 else None


class NormalSubgroups(list):
    """The normal subgroups of G in canonical order, with the build's covers.

    ``position`` maps each member to its index. The distinct products N·C
    of each member N with the class closures C outside N are kept as
    indices, all members' in one array; the chief children of N are the
    minimal ones among them (see ``normal_subgroups``).
    """

    __slots__ = ("position", "_products", "_starts")

    def __init__(self, members, pairs: np.ndarray):
        """``members`` in canonical order; ``pairs`` holds, sorted, one
        ``owner * len(members) + product`` per distinct product, both as
        indices into ``members``."""
        super().__init__(members)
        m = len(self)
        self.position = {N: k for k, N in enumerate(self)}
        self._products = pairs % m
        self._starts = np.searchsorted(pairs, np.arange(m + 1) * m)

    def products(self, N: Subgroup) -> np.ndarray:
        """Indices, ascending, of the distinct products N·C for a member N."""
        k = self.position[N]
        return self._products[self._starts[k]:self._starts[k + 1]]


def _class_closures(G: Group) -> list:
    """The distinct normal closures of G's conjugacy classes, as index arrays.

    One closure is taken per rational class: the classes of g and of g^k
    with gcd(k, |g|) = 1 have the same closure, since each of g and g^k is a
    power of the other.
    """
    table, reps = G.table, G.class_reps
    done = np.zeros(G.order, dtype=bool)
    done[0] = True
    closures = {}
    for r in np.unique(reps):
        if done[r]:
            continue
        powers = [int(r)]  # powers[k - 1] = r^k, ending at the identity
        while powers[-1]:
            powers.append(int(table[powers[-1], r]))
        order = len(powers)
        for k in range(1, order):
            if gcd(k, order) == 1:
                done[reps[powers[k - 1]]] = True
        cls = np.flatnonzero(reps == r).astype(_DTYPE)
        mask = _kernels.closure_idx(table, cls)
        closures.setdefault(mask.tobytes(), np.flatnonzero(mask))
    return list(closures.values())


@memo("normals")
def normal_subgroups(G: Group) -> NormalSubgroups:
    """All normal subgroups of G, canonically ordered by (order, indices).

    Computed by extension with class closures: starting from the trivial
    subgroup, every normal subgroup N found so far is multiplied by each
    distinct normal closure C of a conjugacy class that N does not contain
    (N·C is a normal subgroup since both factors are). This is complete: a
    normal subgroup M is a union of classes, so M is the product of the
    closures of its classes, and that product is reached one closure at a
    time. All products N·C for one N come from one gather over N × (the
    closures' elements), scattered into one boolean row per closure.

    The build also records each N's distinct products, by position in the
    returned list (``NormalSubgroups.products``): they hold the covers of
    the chief-factor DAG. The chief children of N are exactly the minimal
    products. If K is normal with N < K < N·C, then N·C' <= K for C' the
    closure of any x in K outside N, so N·C is not minimal; and a child K
    of N is N·C' itself, as N < N·C' <= K.
    """
    n = G.order
    table = G.table
    members = _class_closures(G)
    triv = np.zeros(n, dtype=bool)
    triv[0] = True
    found = {triv.tobytes(): 0}   # mask bytes -> id, in order of discovery
    keys = list(found)
    products = [[]]               # id -> ids of its distinct products
    if members:
        sizes = [len(c) for c in members]
        flat = np.concatenate(members).astype(_DTYPE)
        starts = np.cumsum([0] + sizes[:-1])
        row_of = np.repeat(np.arange(len(members)), sizes)
        work = [0]
        while work:
            i = work.pop()
            N = np.frombuffer(keys[i], dtype=bool)
            outside = ~np.logical_and.reduceat(N[flat], starts)
            keep = outside[row_of]
            rows, cols = row_of[keep], flat[keep]
            prods = np.zeros((len(members), n), dtype=bool)
            prods[rows, table[np.flatnonzero(N)[:, None], cols]] = True
            block = prods[outside].tobytes()
            ids = products[i]
            for key in {block[lo:lo + n] for lo in range(0, len(block), n)}:
                j = found.setdefault(key, len(keys))
                if j == len(keys):
                    keys.append(key)
                    products.append([])
                    work.append(j)
                ids.append(j)
    subs = [G.subgroup_from_mask(np.frombuffer(key, dtype=bool))
            for key in keys]
    m = len(subs)
    ranked = sorted(range(m),
                    key=lambda i: (subs[i].order, subs[i].idx.tobytes()))
    rank = np.empty(m, dtype=np.intp)
    rank[ranked] = np.arange(m)
    counts = [len(ids) for ids in products]
    targets = np.fromiter(chain.from_iterable(products), dtype=np.intp,
                          count=sum(counts))
    pairs = np.sort(np.repeat(rank, counts) * m + rank[targets])
    return NormalSubgroups([subs[i] for i in ranked], pairs)


def minimal_normal_subgroups(G: Group) -> list:
    """The chief children of 1: a shared, memoised list."""
    return _chief_children(G, G.trivial_subgroup())


class ChiefFactor:
    """One factor above/below of a chief series, with classification flags."""

    __slots__ = ("below", "above", "order", "is_p_group", "is_central",
                 "is_frattini")

    def __init__(self, below, above, order, is_p_group, is_central,
                 is_frattini):
        self.below = below
        self.above = above
        self.order = order
        self.is_p_group = is_p_group
        self.is_central = is_central
        self.is_frattini = is_frattini

    def __repr__(self):
        p = f", p={self.is_p_group}" if self.is_p_group else ""
        return f"ChiefFactor<order {self.order}{p}>"


class ChiefSeries:
    """Ascending chain of normal subgroups from trivial to the whole group."""

    def __init__(self, ambient: Group, terms):
        self.ambient = ambient
        self.terms = tuple(terms)

    def __len__(self):
        return len(self.terms) - 1

    def factor_orders(self) -> tuple:
        return tuple(self.terms[i + 1].order // self.terms[i].order
                     for i in range(len(self)))

    def factors(self, with_frattini: bool = True) -> list:
        return [classify_factor(self.ambient, self.terms[i],
                                self.terms[i + 1], with_frattini)
                for i in range(len(self))]

    def __repr__(self):
        return ("ChiefSeries<" +
                " < ".join(str(t.order) for t in self.terms) + ">")


def _is_central_factor(G: Group, below: Subgroup, above: Subgroup) -> bool:
    """True iff [G, above] <= below."""
    table, inv = G.table, G.inverses
    below_mask = below.mask
    gen_idx = [G.index_of(g) for g in G.generators]
    for g in gen_idx:
        gi = int(inv[g])
        for a in above.idx:
            a = int(a)
            comm = table[table[int(inv[a]), gi], table[a, g]]
            if not below_mask[comm]:
                return False
    return True


def classify_factor(G: Group, below: Subgroup, above: Subgroup,
                    with_frattini: bool = True) -> ChiefFactor:
    """Fill order / p-group / centrality / Frattini flags for a chief factor.

    Raises NotNormal unless below and above are normal in G, and NotChief
    unless above is a chief child of below. with_frattini=False skips the
    flag (left None) when the subgroup lattice behind the Frattini subgroup
    is unwanted.
    """
    position = normal_subgroups(G).position
    if below not in position or above not in position:
        raise NotNormal("a chief factor lies between normal subgroups")
    if above not in _chief_children(G, below):
        raise NotChief("no chief factor: above is not a chief child of below")
    order = above.order // below.order
    frattini_flag = None
    if with_frattini:
        from .structure import frattini
        frattini_flag = frattini(G).contains(above)
    return ChiefFactor(below, above, order, _prime_power(order),
                       _is_central_factor(G, below, above), frattini_flag)


@memo("chief_children")
def _chief_children(G: Group, top: Subgroup) -> list:
    """Normal subgroups M > top with nothing normal strictly between: the
    minimal products recorded for the normal ``top``, in canonical order.

    The products come in canonical order, so any product inside a later
    one M leads down to a minimal product, already kept, that M contains.
    """
    normals = normal_subgroups(G)
    out = []
    for k in normals.products(top):
        M = normals[k]
        if not any(K.order < M.order and M.contains(K) for K in out):
            out.append(M)
    return out


def search_chains(G: Group, step=None, through: Subgroup | None = None,
                  caps: Caps = DEFAULT_CAPS) -> Iterator[tuple]:
    """Stream (series, records) over chief series of G in canonical DFS order.

    ``step(below, above, i)`` returns the record of factor i, or None to
    prune that prefix; with no step every record is True. ``through=N``
    keeps only the series having N as a term. Each complete chain and each
    pruned prefix counts against caps.series; children dropped by the
    through filter do not.
    """
    if through is not None and through not in normal_subgroups(G).position:
        raise NotNormal("series can only pass through a normal subgroup")
    step = step or (lambda below, above, i: True)
    explored = 0

    def count():
        nonlocal explored
        explored += 1
        if explored > caps.series:
            raise SeriesCapExceeded(f"explored over {caps.series} chains")

    def dfs(terms, records):
        top = terms[-1]
        if top.order == G.order:
            count()
            yield ChiefSeries(G, terms), records
            return
        below_n = through is not None and top.order < through.order
        for M in _chief_children(G, top):
            if below_n and not through.contains(M):
                continue
            rec = step(top, M, len(records))
            if rec is None:
                count()
                continue
            yield from dfs(terms + [M], records + [rec])

    yield from dfs([G.trivial_subgroup()], [])


def all_chief_series(G: Group, caps: Caps = DEFAULT_CAPS) -> Iterator[ChiefSeries]:
    """Stream every chief series of G in canonical DFS order."""
    for series, _ in search_chains(G, caps=caps):
        yield series


def chief_series_through(G: Group, N: Subgroup,
                         caps: Caps = DEFAULT_CAPS) -> Iterator[ChiefSeries]:
    """Only the chief series having N as a term."""
    for series, _ in search_chains(G, through=N, caps=caps):
        yield series
