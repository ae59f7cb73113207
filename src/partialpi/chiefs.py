"""Normal subgroups, chief series enumeration and chief-factor classification.

A chief series is a maximal chain in the normal-subgroup lattice; every step
is a chief factor (nothing normal strictly between). The chief-factor DAG
joins each normal subgroup N to its chief children, and is built lazily:
``_chief_children`` forms every product N·C with a class closure C outside
N and keeps the minimal ones, from N and the closures alone, so a search
pays only for the nodes it reaches. G's memo keeps the children of N as
arrays (index array, mask and index bytes, keyed by N's index bytes) and
each call builds their Subgroups afresh, so the DAG a search walks holds
no reference back to G. ``normal_subgroups`` is the set of
nodes reached from 1. ``search_chains`` is the one enumeration: a DFS from
the bottom in canonical order, streamed lazily, which prunes any prefix a
per-factor step function rejects.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

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


def _is_prime(n: int) -> bool:
    return _prime_power(n) == n


def _class_closures(G: Group) -> list:
    """The distinct normal closures of G's conjugacy classes, as index arrays.

    All come from one batched search: a boolean row per class
    representative r (the least of each non-identity class), grown from
    {1, r} level by level. Each level scatters the frontier's images under
    x -> x·r and under the conjugation rows of G's generators. The least
    set holding 1 and r and closed under both is <r^G>: a product of k
    conjugates of r is (v·r)^g with v a product of k - 1 of them. The rows
    lie end to end in one flat array, so that an entry's flat index less
    its element is its row's offset. They are deduped in representative
    order.
    """
    n, conj = G.order, G.conjugation
    reps = np.flatnonzero(G.class_reps == np.arange(n))[1:]
    right = G.table[:, reps].T.ravel()  # right[i * n + x] = x·reps[i]
    offsets = np.arange(len(reps)) * n
    member = np.zeros(len(reps) * n, dtype=bool)
    member[offsets] = True
    member[offsets + reps] = True
    frontier = member.copy()
    while True:
        flat = np.flatnonzero(frontier)
        if not flat.size:
            break
        xs = flat % n
        offset = flat - xs
        fresh = np.zeros_like(member)
        fresh[offset + right[flat]] = True
        fresh[offset + conj[:, xs]] = True
        frontier = fresh > member
        member |= frontier
    closures = {}
    for row in member.reshape(len(reps), n):
        closures.setdefault(row.tobytes(), row)
    return [np.flatnonzero(row) for row in closures.values()]


@memo("closure_layout")
def _closure_layout(G: Group) -> tuple:
    """The class closures flattened for one gather: (elements, start of
    each closure, closure of each element). G must be non-trivial."""
    closures = _class_closures(G)
    sizes = [len(c) for c in closures]
    flat = np.concatenate(closures).astype(_DTYPE)
    starts = np.cumsum([0] + sizes[:-1])
    return flat, starts, np.repeat(np.arange(len(closures)), sizes)


def _canonical(subgroups) -> list:
    """Subgroups in canonical order: by (order, index bytes)."""
    return sorted(subgroups, key=lambda S: (S.order, S.idx.tobytes()))


def _is_normal(G: Group, N: Subgroup) -> bool:
    """N is a subgroup of G and normal in it."""
    return N.ambient is G and N.is_normal()


def _bottom(G: Group, bottom: Subgroup | None) -> Subgroup:
    """The first term of a walk up the DAG: 1 when None, else normal."""
    if bottom is not None and not _is_normal(G, bottom):
        raise NotNormal("a chain of normal subgroups starts at a normal one")
    return G.trivial_subgroup() if bottom is None else bottom


def _chief_children(G: Group, top: Subgroup) -> list:
    """The chief children of the normal ``top``: the normal M > top with
    nothing normal strictly between, in canonical order.

    Each call builds them afresh from the arrays that ``_child_arrays``
    keeps in G's memo, which hold no Subgroup, so no memo value refers
    back to G.
    """
    return [Subgroup._of_arrays(G, idx, mask, key)
            for idx, mask, key in _child_arrays(G, top._key[1])]


@memo("chief_children")
def _child_arrays(G: Group, top: bytes) -> tuple:
    """(index array, mask, index bytes) of each chief child of the normal
    subgroup whose index bytes are ``top``, in canonical order, all
    read-only.

    The children are the minimal products top·C over the class closures C
    outside top. If K is normal with top < K < top·C, then top·C' <= K for
    C' the closure of any x in K outside top, so top·C is not minimal; and
    a child K of top is top·C' itself, as top < top·C' <= K. All products
    come from one gather over top × (the closures' elements), scattered
    into one boolean row per closure. Row i is dropped when some row j lies
    inside it (|P_i ∩ P_j| = |P_j|) and is smaller, or equal with j < i.
    The rows kept are the children's masks.
    """
    top_idx = np.frombuffer(top, dtype=_DTYPE)
    if len(top_idx) == G.order:
        return ()
    top_mask = np.zeros(G.order, dtype=bool)
    top_mask[top_idx] = True
    flat, starts, row_of = _closure_layout(G)
    outside = ~np.logical_and.reduceat(top_mask[flat], starts)
    keep = outside[row_of]
    prods = np.zeros((len(starts), G.order), dtype=bool)
    prods[row_of[keep], G.table[top_idx[:, None], flat[keep]]] = True
    prods = prods[outside]
    k = len(prods)
    f = prods.astype(np.float32)
    sizes = prods.sum(axis=1)
    rank = sizes * k + np.arange(k)               # by size, then by row
    drop = (((f @ f.T) == sizes) & (rank < rank[:, None])).any(axis=1)
    masks = prods[~drop]
    masks.setflags(write=False)
    cols = np.nonzero(masks)[1].astype(_DTYPE)
    cols.setflags(write=False)
    ends = np.cumsum(sizes[~drop]).tolist()
    children = [(cols[lo:hi], mask, cols[lo:hi].tobytes())
                for lo, hi, mask in zip([0] + ends, ends, masks)]
    return tuple(sorted(children, key=lambda c: (len(c[0]), c[2])))


@memo("normals")
def normal_subgroups(G: Group) -> list:
    """All normal subgroups of G, canonically ordered by (order, indices).

    They are the nodes of the chief-factor DAG reached from 1 over
    ``_chief_children``: every normal subgroup lies on some chief series,
    a maximal chain of normal subgroups from 1 to G.
    """
    seen = {G.trivial_subgroup()}
    work = list(seen)
    while work:
        for M in _chief_children(G, work.pop()):
            if M not in seen:
                seen.add(M)
                work.append(M)
    return _canonical(seen)


def minimal_normal_subgroups(G: Group) -> list:
    """The chief children of 1: a new list on each call, of Subgroups
    built from the arrays memoised for them."""
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
    """Ascending chain of normal subgroups from its first term to G."""

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
    """True iff [G, above] <= below: every commutator a^-1 a^g of an a in
    above and a generator g of G lies in below."""
    a = above.idx
    return bool(below.mask[G.table[G.inverses[a], G.conjugation[:, a]]].all())


def classify_factor(G: Group, below: Subgroup, above: Subgroup,
                    with_frattini: bool = True) -> ChiefFactor:
    """Fill order / p-group / centrality / Frattini flags for a chief factor.

    Raises NotNormal unless below and above are normal in G, and NotChief
    unless above is a chief child of below. with_frattini=False skips the
    flag (left None) when the subgroup lattice behind the Frattini subgroup
    is unwanted.
    """
    if not (_is_normal(G, below) and _is_normal(G, above)):
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


def search_chains(G: Group, step=None, through: Subgroup | None = None,
                  caps: Caps = DEFAULT_CAPS,
                  bottom: Subgroup | None = None) -> Iterator[tuple]:
    """Stream (series, records) over chief series of G in canonical DFS order.

    ``step(below, above, i)`` returns the record of factor i, or None to
    prune that prefix; with no step every record is True. ``through=N``
    keeps only the series having N as a term. Chains start at ``bottom``
    (1 when None), and from a normal K they are the chief series of G/K,
    read in G.

    Whether a step passes may depend only on (below, above), and the
    through filter depends only on the node, so a node whose children all
    failed to complete a chain is dead for the rest of the call: it joins
    ``dead`` and is never expanded again. Each complete chain, each pruned
    prefix and each skip of a dead child counts against caps.series;
    children dropped by the through filter do not. The counted prefixes
    extend to disjoint sets of chains, so a search counts at most as many
    as there are chief series from its bottom. A dead node has no passing
    completion, so the chains found, and their order, are those of the
    search without ``dead``.
    """
    if through is not None and not _is_normal(G, through):
        raise NotNormal("series can only pass through a normal subgroup")
    step = step or (lambda below, above, i: True)
    explored = 0
    dead = set()

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
        completed = False
        for M in _chief_children(G, top):
            if below_n and not through.contains(M):
                continue
            rec = None if M in dead else step(top, M, len(records))
            if rec is None:
                count()
                continue
            for found in dfs(terms + [M], records + [rec]):
                completed = True
                yield found
        if not completed:
            dead.add(top)

    try:
        yield from dfs([_bottom(G, bottom)], [])
    finally:
        del dfs  # dfs refers to itself: break the cycle that would keep G


def all_chief_series(G: Group, caps: Caps = DEFAULT_CAPS) -> Iterator[ChiefSeries]:
    """Stream every chief series of G in canonical DFS order."""
    for series, _ in search_chains(G, caps=caps):
        yield series


def chief_series_through(G: Group, N: Subgroup,
                         caps: Caps = DEFAULT_CAPS) -> Iterator[ChiefSeries]:
    """Only the chief series having N as a term."""
    for series, _ in search_chains(G, through=N, caps=caps):
        yield series
