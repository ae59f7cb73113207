"""Subgroup embedding predicates evaluated along chief series.

The central predicate asks for a chief series 1 = G_0 < ... < G_n = G such
that at every factor, writing D for the trace (H G_{i-1} cap G_i) G_{i-1},
the normalizer index of the factor image of D in G/G_{i-1} is divisible only
by primes dividing that image's order.

Every step reads the trace by one rule (``_image_order``). As
G_{i-1} <= G_i, Dedekind's rule gives D = (H cap G_i) G_{i-1}, so the
image of D in G/G_{i-1} has order |H cap G_i| / |H cap G_{i-1}|. Since
G_i/G_{i-1} is a chief factor, D is normal exactly when it is G_{i-1} or
G_i, that is when the image is 1 or |G_i : G_{i-1}|: there the index is 1
and nothing is built, and H covers the factor (G_i <= H G_{i-1}) or avoids
it (H cap G_i <= G_{i-1}). Any other D is built from the elements of
H cap G_i alone.

Two evaluation routes exist and must agree:

* the fast route stays inside G (correspondence theorem): the image of D in
  G/G_{i-1} has its order by the rule above and its quotient-normalizer
  index equals |G : N_G(D)|, so no quotient group is ever materialized;
* the oracle route builds each quotient G/G_{i-1} explicitly and evaluates
  the definition verbatim: an oracle for the tests, which no verdict uses.

The fast route is a step function for ``chiefs.search_chains``: the factor
condition depends only on (G_{i-1}, G_i, H), so the search abandons a failing
prefix whole. The partial CAP property and ``pi_series_through`` are step
functions for the same search.

Searched from a normal N, the same step reads HN/N in G/N inside G: at
(K, L) the trace of HN/N is (HK cap L)/N. Complements of a subgroup of a
normal Sylow P are sought among P's subgroups, also read in G's table.

The verifiers ask the Pi question for every subgroup H of a Sylow
subgroup P, and often from every normal N as well. ``pi_family`` answers
all of them at once: one pass bit per (chief factor, H), then one walk of
the chief-factor DAG up from 1 and one down from G. It judges a factor by
the same ``_pi_condition`` as the search, and it stands down (None) over
the lattice or series cap, where the callers search per pair. It keeps
its table of orders |H cap N|, over which the verifiers' exhaustive
lemmas reduce, and which gives every trace by the rule above, so every
H's partial CAP verdict too. ``complement_family`` reads off one more
such table, against G's normal subgroups inside P, which subgroups of an
abelian normal Sylow P are complemented (Schur-Zassenhaus). The
searches, with their witnesses, stay for single subgroups and as the
families' oracles.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .chiefs import (
    ChiefSeries,
    _chief_children,
    _is_prime,
    _prime_factors,
    _prime_power,
    all_chief_series,
    normal_subgroups,
    search_chains,
)
from .config import Caps, DEFAULT_CAPS
from .errors import HypothesisViolated
from .groups import Group, QuotientMap, Subgroup, memo, normalizer
from .perms import _DTYPE
from .structure import (
    _is_abelian_in,
    _maximal_pi_subgroup,
    _p_part,
    all_subgroups,
    subgroups_in,
    sylow,
)


class PiFactorRecord:
    """Per-factor evaluation record of the normalizer-index condition."""

    __slots__ = ("factor_index", "intersection_order", "normalizer_index",
                 "prime_set", "passed")

    def __init__(self, factor_index, intersection_order, normalizer_index,
                 prime_set, passed):
        self.factor_index = factor_index
        self.intersection_order = intersection_order
        self.normalizer_index = normalizer_index
        self.prime_set = tuple(prime_set)
        self.passed = passed

    def __repr__(self):
        return (f"factor {self.factor_index}: |D|={self.intersection_order} "
                f"index={self.normalizer_index} primes={self.prime_set} "
                f"{'ok' if self.passed else 'FAIL'}")


class PiWitness:
    """A chief series along which every factor check passed."""

    def __init__(self, series: ChiefSeries, per_factor):
        self.series = series
        self.per_factor = list(per_factor)

    def __repr__(self):
        return f"PiWitness<{self.series!r}>"


class CapWitness:
    """A chief series covered-or-avoided factorwise; one mode per factor."""

    def __init__(self, series: ChiefSeries, per_factor):
        self.series = series
        self.per_factor = list(per_factor)  # (factor_index, "covers"|"avoids")


def _image_order(H: Subgroup, K: Subgroup, L: Subgroup) -> int:
    """|HK cap L : K| = |H cap L| / |H cap K| for the chief factor K < L
    (Dedekind's rule: HK cap L = (H cap L)K, as K <= L)."""
    return int(L.mask[H.idx].sum()) // int(K.mask[H.idx].sum())


def _trace(G: Group, H: Subgroup, below: Subgroup, above: Subgroup) -> tuple:
    """(|D/below|, |G : N_G(D)|) for the trace D = (H below) cap above.

    An image of 1 or |above : below| makes D that term, which is normal,
    and its index is 1 with nothing built; any other D is built as
    (H cap above) below.
    """
    image = _image_order(H, below, above)
    if image in (1, above.order // below.order):
        return image, 1
    d_mask = _kernels.product_mask(G.table, H.idx[above.mask[H.idx]],
                                   below.idx)
    norm = _kernels.normalizer_mask(G.table, G.inverses,
                                    np.flatnonzero(d_mask).astype(_DTYPE))
    return image, G.order // int(norm.sum())


def _pi_condition(image_order: int, index: int) -> tuple:
    """(the primes of the image's order, whether every prime of the
    normaliser index is one of them): the factor condition."""
    primes = _prime_factors(image_order)
    return primes, all(q in primes for q in _prime_factors(index))


def _pi_step(G: Group, H: Subgroup, below: Subgroup, above: Subgroup,
             factor_index: int) -> PiFactorRecord:
    """Factor condition via subgroup arithmetic inside G."""
    image_order, index = _trace(G, H, below, above)
    primes, passed = _pi_condition(image_order, index)
    return PiFactorRecord(factor_index, image_order, index, primes, passed)


def satisfies_partial_pi(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS,
                         bottom: Subgroup | None = None):
    """(verdict, witness): does some chief series pass every factor check?

    The first witness in canonical DFS order is returned; chains explored
    are counted against caps.series. From ``bottom`` = N normal in G it is
    the verdict of HN/N in G/N, the witness running from N to G.
    """
    def step(below, above, i):
        rec = _pi_step(G, H, below, above, i)
        return rec if rec.passed else None

    found = next(search_chains(G, step, caps=caps, bottom=bottom), None)
    return found is not None, found and PiWitness(*found)


def _pi_verdict(G: Group, H: Subgroup, caps: Caps,
                bottom: Subgroup | None = None) -> bool:
    """``satisfies_partial_pi(G, H, caps, bottom)[0]``, memoised under the
    index bytes of H and bottom, so that the memo holds no Subgroup. The
    per-pair searches ask it again for each normal subgroup."""
    return _pi_verdict_of(G, H._key[1], caps,
                          None if bottom is None else bottom._key[1])


@memo("partial_pi")
def _pi_verdict_of(G: Group, h: bytes, caps: Caps,
                   bottom: bytes | None) -> bool:
    H = G.subgroup(np.frombuffer(h, dtype=_DTYPE))
    N = None if bottom is None else G.subgroup(np.frombuffer(bottom,
                                                             dtype=_DTYPE))
    return satisfies_partial_pi(G, H, caps, N)[0]


class PiFamily:
    """The Pi verdicts of every subgroup H of a p-subgroup P, from every
    normal subgroup N of G, as two boolean tables (node x column): ``co``,
    whether a chain of passing factors runs from N up to G, and ``reach``,
    whether one runs from 1 up to N; and ``cap_co``, whether a chain of
    factors that H covers or avoids runs from 1 up to G, one bit per
    column. ``meet`` (node x column too) is every |H cap N|, so its last
    row, at N = G, is every |H|, and ``order`` is every |N|: the
    verifiers' exhaustive lemmas are reductions over these arrays."""

    __slots__ = ("_node", "_column", "meet", "order", "reach", "co",
                 "cap_co")

    def __init__(self, node_of: dict, columns, meet, order, reach, co,
                 cap_co):
        self._node = node_of
        self._column = {H: j for j, H in enumerate(columns)}
        self.meet = meet
        self.order = order
        self.reach = reach
        self.co = co
        self.cap_co = cap_co

    def pi(self, H: Subgroup, bottom: Subgroup | None = None) -> bool:
        """``satisfies_partial_pi(G, H, caps, bottom)[0]``."""
        node = 0 if bottom is None else self._node[bottom]
        return bool(self.co[node, self._column[H]])

    def through(self, H: Subgroup, N: Subgroup) -> bool:
        """``pi_series_through(G, H, N, p, caps)[0]`` for H <= N with the
        property."""
        node, column = self._node[N], self._column[H]
        return bool(self.reach[node, column] and self.co[node, column])

    def cap(self, H: Subgroup) -> bool:
        """``satisfies_partial_cap(G, H, caps)[0]``."""
        return bool(self.cap_co[self._column[H]])


def _meet(P: Subgroup, columns, nodes) -> np.ndarray:
    """|H cap N| for every column H, a subgroup of P, and every node N, a
    subgroup of G, as one (node x column) matmul over P's elements: the
    columns' rows are scattered from their index arrays, the nodes' read
    off their masks. It runs in float32, whose sums of 0/1 products are
    exact below 2^24 > |P|, many times faster than an integer matmul."""
    position = np.zeros(P.ambient.order, dtype=np.intp)
    position[P.idx] = np.arange(P.order)
    h = np.zeros((len(columns), P.order), dtype=np.float32)
    h[np.repeat(np.arange(len(columns)), [H.order for H in columns]),
      position[np.concatenate([H.idx for H in columns])]] = 1
    n = np.stack([N.mask[P.idx] for N in nodes]).astype(np.float32)
    return (n @ h.T).astype(np.int32)


def _inner_passes(G: Group, K: Subgroup, L: Subgroup, inner, elements,
                  owner):
    """The pass bits at the factor K < L of every column, where those not
    flagged ``inner`` pass (their traces are K or L). The traces
    D = (H cap L)K of the inner ones come from one gather over the columns'
    elements in L (a column j's elements are ``elements[owner == j]``); the
    distinct D of one order take their normalisers from one batched
    ``normalizer_mask`` call, and each distinct D is judged once."""
    cols = np.flatnonzero(inner)
    pick = inner[owner] & L.mask[elements]
    rows = np.zeros((len(inner), G.order), dtype=bool)
    rows[owner[pick][:, None], G.table[elements[pick][:, None], K.idx]] = True
    rows = rows[cols]
    keys = rows.view(np.dtype((np.void, G.order))).ravel()
    _, first, back = np.unique(keys, return_index=True, return_inverse=True)
    traces = rows[first]
    sizes = traces.sum(axis=1)
    verdicts = np.zeros(len(traces), dtype=bool)
    for size in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == size)
        d_idx = np.nonzero(traces[same])[1].reshape(len(same), size)
        norm = _kernels.normalizer_mask(G.table, G.inverses, d_idx)
        verdicts[same] = [_pi_condition(size // K.order, G.order // n)[1]
                          for n in norm.sum(axis=1).tolist()]
    out = ~inner
    out[cols] = verdicts[back.reshape(-1)]
    return out


@memo("pi_family")
def pi_family(G: Group, P: Subgroup, caps: Caps = DEFAULT_CAPS):
    """The Pi and partial CAP verdicts of every subgroup of the p-subgroup
    P, the Pi ones in G and in every G/N, from one walk of the chief-factor
    DAG up and one down; None over a cap.

    The nodes are the normal subgroups in canonical order, which is by
    order and so topological; the edges K -> L are the chief factors, and
    the columns are ``subgroups_in(G, P, caps).all``. One matmul of the
    nodes' masks against the columns' gives every |H cap N| (``_meet``),
    which the family keeps, and so every image |D : K| by the trace rule
    (``_image_order``), a divisor of |L : K|. An image of 1 or |L : K|
    passes with index 1. Only a composite |L : K| leaves room for another
    D; those factors are compared over blocks of 512 edges, and only the D
    strictly between K and L are built, those of one factor in one gather,
    and their normalisers one batch per order (``_inner_passes``). The
    search and the family judge a factor by the same ``_pi_condition``.
    Only the edges with such an inner column keep a row of pass bits.

    The walks are ``reach[L] |= reach[K] & pass[K -> L]`` up from 1 and
    ``co[K] |= pass[K -> L] & co[L]`` down from G. By the correspondence
    theorem, the chief series of G/N are the paths from N to G, and the
    trace of HN/N at (K/N, L/N) is D/N with normaliser index
    |G : N_G(D)|; so ``co[N]`` is the search from N,
    ``satisfies_partial_pi(G, H, caps, N)``, and ``co[1]`` is the property
    of H. For a p-subgroup H the image D/K is a p-group, so the p-number
    step of ``pi_series_through`` and the Pi step accept the same factors,
    and ``reach[N] & co[N]`` is ``pi_series_through(G, H, N, p)``.

    The factors H covers or avoids are exactly those whose image is 1 or
    |L : K|, and the same walk down over those bits gives the partial CAP
    verdict of every column, its row at 1 (``cap_co``). The family's guard
    covers that search too.

    The family is None when |P| > caps.lattice, or when
    min(paths, E + 1) > caps.series, for the paths from 1 to G and the E
    edges of the DAG; the callers then search per pair. Under that guard
    no search the family replaces can raise, so both routes give the same
    verdicts. Each of them is read through ``next``, so it counts only up
    to its first chain. Each prefix it counts (the complete chain, a
    pruned prefix or a dead child) extends to its own chains, so it
    counts at most one per path from its bottom, and the paths from N
    number no more than those from 1. And before its first chain a search
    expands each node at most once: a node whose expansion ends without a
    chain is dead, and one whose expansion completes one lies on the
    chain found. So it counts at most once per edge out of an expanded
    node, plus once for the chain: at most E + 1. The path bound is the
    smaller one on a DAG that is nearly one chain. ``all_chief_series``
    reads every chain, so the edge bound does not hold for it; it is no
    consumer of the family.
    """
    if P.order > caps.lattice:
        return None
    nodes = normal_subgroups(G)
    node_of = {N: i for i, N in enumerate(nodes)}
    edges = [(k, node_of[L]) for k, K in enumerate(nodes)
             for L in _chief_children(G, K)]
    paths = [1] + [0] * (len(nodes) - 1)
    for k, l in edges:
        paths[l] += paths[k]
    if min(paths[-1], len(edges) + 1) > caps.series:
        return None
    columns = subgroups_in(G, P, caps).all
    m = len(columns)
    elements = np.concatenate([H.idx for H in columns])
    owner = np.repeat(np.arange(m), [H.order for H in columns])
    meet = _meet(P, columns, nodes)  # node x column
    order = np.array([N.order for N in nodes])
    below, above = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    factor = order[above] // order[below]
    prime = {r: _is_prime(r) for r in set(factor.tolist())}
    # the image |H cap L| / |H cap K| divides |L : K|: only a composite
    # factor order leaves room for a D strictly between K and L
    wide = np.flatnonzero([not prime[r] for r in factor.tolist()])
    ends, passed = {}, {}  # edge -> its columns' bits, where some is inner
    for start in range(0, len(wide), 512):
        block = wide[start:start + 512]
        low, high = meet[below[block]], meet[above[block]]
        inner = (low < high) & (high < factor[block, None] * low)
        for i in np.flatnonzero(inner.any(axis=1)):
            e = int(block[i])
            ends[e] = ~inner[i]
            passed[e] = _inner_passes(G, nodes[below[e]], nodes[above[e]],
                                      inner[i], elements, owner)
    reach = np.zeros((len(nodes), m), dtype=bool)
    co = np.zeros_like(reach)
    cap = np.zeros_like(reach)
    reach[0] = co[-1] = cap[-1] = True
    for e, (k, l) in enumerate(edges):
        reach[l] |= reach[k] & passed.get(e, True)
    for e in range(len(edges) - 1, -1, -1):
        k, l = edges[e]
        co[k] |= passed.get(e, True) & co[l]
        cap[k] |= ends.get(e, True) & cap[l]
    return PiFamily(node_of, columns, meet, order, reach, co, cap[0])


def evaluate_series(G: Group, H: Subgroup, series: ChiefSeries) -> list:
    """Unpruned per-factor records along one given series (fast route)."""
    return [_pi_step(G, H, series.terms[i], series.terms[i + 1], i)
            for i in range(len(series))]


# -- quotient-materializing oracle -------------------------------------------


def evaluate_series_by_quotients(G: Group, H: Subgroup, series: ChiefSeries,
                                 maps: dict | None = None) -> list:
    """Per-factor records computed verbatim in materialized quotients.

    Each G/N is built as a ``QuotientMap`` and kept in ``maps`` (N -> map;
    a new dict when None), never in G's memo, so a caller can share the
    quotients among series and G holds none of them.
    """
    maps = {} if maps is None else maps
    out = []
    for i in range(len(series)):
        below, above = series.terms[i], series.terms[i + 1]
        q = maps.get(below)
        if q is None:
            q = maps[below] = QuotientMap(G, below)
        h_bar = q.push_subgroup(H)
        a_bar = q.push_subgroup(above)
        d_bar = q.target.subgroup_from_mask(h_bar.mask & a_bar.mask)
        index = q.target.order // normalizer(q.target, d_bar).order
        primes = _prime_factors(d_bar.order)
        passed = all(x in primes for x in _prime_factors(index))
        out.append(PiFactorRecord(i, d_bar.order, index, primes, passed))
    return out


def satisfies_partial_pi_by_quotients(G: Group, H: Subgroup,
                                      caps: Caps = DEFAULT_CAPS):
    """Oracle evaluation over every chief series, no pruning, no shortcuts.
    The series share one quotient per term, built for this call only."""
    maps = {}
    for series in all_chief_series(G, caps):
        records = evaluate_series_by_quotients(G, H, series, maps)
        if all(r.passed for r in records):
            return True, PiWitness(series, records)
    return False, None


# -- partial CAP property -----------------------------------------------------


def satisfies_partial_cap(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS):
    """(verdict, witness): some chief series is covered-or-avoided by H.

    Covers at a factor: G_i <= H G_{i-1}, that is the image
    |H G_{i-1} cap G_i : G_{i-1}| is |G_i : G_{i-1}|; avoids:
    H cap G_i <= G_{i-1}, that is the image is 1.
    """
    def step(below, above, i):
        image = _image_order(H, below, above)
        if image == above.order // below.order:
            return (i, "covers")
        if image == 1:
            return (i, "avoids")
        return None

    found = next(search_chains(G, step, caps=caps), None)
    return found is not None, found and CapWitness(*found)


# -- complements ----------------------------------------------------------------


def is_complemented(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS):
    """(verdict, complement): is there K with G = HK and H cap K = 1?

    When H lies in a normal Sylow p-subgroup P, the search needs only P's
    subgroups, not the lattice of G (``_complemented_in_normal_sylow``),
    and the complement it returns, though deterministic, need not be the
    first in canonical lattice order. Otherwise the complement is the first
    K in canonical lattice order with |K| = |G|/|H| and trivial
    intersection (then G = HK by counting).
    """
    if H.order == 1:
        return True, G.as_subgroup()
    p = _prime_power(H.order)
    if p is not None:
        P = sylow(G, p)
        if P.contains(H) and P.is_normal():
            return _complemented_in_normal_sylow(G, H, P, caps)
    return _complemented_by_lattice(G, H, caps)


def _complemented_by_lattice(G: Group, H: Subgroup, caps: Caps):
    target = G.order // H.order
    for K in all_subgroups(G, caps).of_order(target):
        if int((K.mask & H.mask).sum()) == 1:
            return True, K
    return False, None


def _complemented_in_normal_sylow(G: Group, H: Subgroup, P: Subgroup,
                                  caps: Caps):
    """is_complemented for H inside the normal Sylow p-subgroup P.

    H has a complement in G iff some complement T of H in P has
    |N_G(T)|_{p'} = |G|_{p'}. If K complements H, then T = K cap P
    complements H in P and K <= N_G(T). Conversely a Hall p'-subgroup R of
    N_G(T), which exists by Schur-Zassenhaus, gives the complement TR. The
    T are taken in P's canonical lattice order. R is grown as a maximal
    p'-subgroup of N_G(T), which is a Hall one since N_G(T) has a normal
    Sylow p-subgroup, so that its p'-subgroups are all conjugate into R.
    """
    p_prime = G.order // P.order
    for T in subgroups_in(G, P, caps).of_order(P.order // H.order):
        if H.mask[T.idx[1:]].any():
            continue
        norm = _kernels.normalizer_mask(G.table, G.inverses, T.idx)
        if int(norm.sum()) % p_prime:
            continue
        R = _maximal_pi_subgroup(G, _prime_factors(p_prime), norm)
        return True, G.subgroup_from_mask(_kernels.product_mask(
            G.table, T.idx, np.flatnonzero(R).astype(_DTYPE)))
    return False, None


@memo("complement_family")
def complement_family(G: Group, P: Subgroup,
                      caps: Caps = DEFAULT_CAPS) -> dict:
    """{H: is H complemented in G} for every subgroup H of the abelian
    normal Sylow p-subgroup P, from one matmul.

    H <= P is complemented in G iff some normal subgroup N of G inside P
    has |N cap H| = 1 and |N| |H| = |P|. If so, take a complement R of P
    (Schur-Zassenhaus): NR is a subgroup, H cap NR = H cap N(P cap R) =
    H cap N = 1 by Dedekind's rule, and |H| |NR| = |G|. Conversely, if K
    complements H, then T = K cap P has order |P|/|H| and meets H
    trivially; T is normal in K as P is normal in G, and normal in P as P
    is abelian, so T is normal in KP = G (Kurzweil and Stellmacher, *The
    Theory of Finite Groups*, 2004, ch. 3). The columns are
    ``subgroups_in(G, P, caps).all``, so the lattice cap bites where the
    per-H search does; HypothesisViolated unless P is an abelian normal
    Sylow subgroup. ``is_complemented``, with its complement as witness,
    stays for single subgroups and as the family's oracle.
    """
    if (math.gcd(P.order, G.order // P.order) != 1 or not P.is_normal()
            or not _is_abelian_in(G, P)):
        raise HypothesisViolated("P is not an abelian normal Sylow subgroup")
    columns = subgroups_in(G, P, caps).all
    inside = [N for N in normal_subgroups(G) if P.contains(N)]
    meet = _meet(P, columns, inside)
    fits = (np.array([H.order for H in columns])
            == P.order // np.array([[N.order] for N in inside]))
    verdicts = ((meet == 1) & fits).any(axis=0)
    return dict(zip(columns, verdicts.tolist()))


# -- chief series through a prescribed normal subgroup ---------------------------


def pi_series_through(G: Group, H: Subgroup, N: Subgroup, p: int,
                      caps: Caps = DEFAULT_CAPS):
    """Search for a chief series through N whose every factor has
    |G : N_G(H G*_{i-1} cap G*_i)| a p-number.

    Input contract: H a p-subgroup of the normal subgroup N, and H satisfies
    the partial pi-property in G.
    """
    if _p_part(H.order, p) != H.order:
        raise HypothesisViolated("H is not a p-group")
    if not N.contains(H):
        raise HypothesisViolated("H is not contained in N")
    if not _pi_verdict(G, H, caps):
        raise HypothesisViolated("H does not satisfy the partial pi-property")
    def step(below, above, i):
        image_order, index = _trace(G, H, below, above)
        if _p_part(index, p) != index:
            return None
        return PiFactorRecord(i, image_order, index, (p,), True)

    found = next(search_chains(G, step, through=N, caps=caps), None)
    return found is not None, found and PiWitness(*found)
