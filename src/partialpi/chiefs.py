"""Normal subgroups, chief series enumeration and chief-factor classification.

A chief series is a maximal chain in the normal-subgroup lattice; every step
is a chief factor (nothing normal strictly between). ``search_chains`` is
the one enumeration: a DFS from the bottom in canonical order, streamed
lazily, which prunes any prefix a per-factor step function rejects.
"""

from __future__ import annotations

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


@memo("normals")
def normal_subgroups(G: Group) -> list:
    """All normal subgroups of G, canonically ordered by (order, indices).

    Computed by extension with class closures: starting from the trivial
    subgroup, every normal subgroup N found so far is multiplied by each
    distinct normal closure C of a conjugacy class that N does not contain
    (N·C is a normal subgroup since both factors are). This is complete: a
    normal subgroup M is a union of classes, so M is the product of the
    closures of its classes, and that product is reached one closure at a
    time. All products N·C for one N come from one gather over N × (the
    closures' elements), scattered into one boolean row per closure.
    """
    n = G.order
    table = G.table
    closures = {}
    for r in np.unique(G.class_reps):
        if r == 0:
            continue
        cls = np.flatnonzero(G.class_reps == r).astype(_DTYPE)
        mask = _kernels.closure_idx(table, cls)
        closures.setdefault(mask.tobytes(), np.flatnonzero(mask))
    triv = np.zeros(n, dtype=bool)
    triv[0] = True
    seen = {triv.tobytes(): triv}
    if closures:
        members = list(closures.values())
        sizes = [len(c) for c in members]
        flat = np.concatenate(members).astype(_DTYPE)
        starts = np.cumsum([0] + sizes[:-1])
        row_of = np.repeat(np.arange(len(members)), sizes)
        work = [triv]
        while work:
            N = work.pop()
            outside = ~np.logical_and.reduceat(N[flat], starts)
            keep = outside[row_of]
            rows, cols = row_of[keep], flat[keep]
            prods = np.zeros((len(members), n), dtype=bool)
            prods[rows, table[np.flatnonzero(N)[:, None], cols]] = True
            for prod in prods[outside]:
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = prod = prod.copy()
                    work.append(prod)
    subs = [G.subgroup_from_mask(m) for m in seen.values()]
    subs.sort(key=lambda s: (s.order, s.idx.tobytes()))
    return subs


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

    Raises NotChief if a normal subgroup of G sits strictly between.
    with_frattini=False skips the flag (left None) when the subgroup
    lattice behind the Frattini subgroup is unwanted.
    """
    if not (above.contains(below) and below.order < above.order):
        raise NotChief("below is not a proper subgroup of above")
    for N in normal_subgroups(G):
        if (below.order < N.order < above.order
                and N.contains(below) and above.contains(N)):
            raise NotChief("intermediate normal subgroup exists")
    order = above.order // below.order
    frattini_flag = None
    if with_frattini:
        from .structure import frattini
        frattini_flag = frattini(G).contains(above)
    return ChiefFactor(below, above, order, _prime_power(order),
                       _is_central_factor(G, below, above), frattini_flag)


@memo("chief_children")
def _chief_children(G: Group, top: Subgroup) -> list:
    """Normal subgroups M > top with nothing normal strictly between."""
    normals = normal_subgroups(G)
    above = [M for M in normals if M.order > top.order and M.contains(top)]
    out = []
    for M in above:
        if not any(K.order < M.order and M.contains(K) for K in above
                   if K.order > top.order):
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
    if through is not None and through not in normal_subgroups(G):
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
