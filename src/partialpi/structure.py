"""Enumerative structure theory: lattices, Sylow/Hall subgroups, solubility.

Everything here is deterministic: subgroup lattices are kept in canonical
order (by order, then the bytes of the element-index array), and ``sylow``
and ``hall`` pick the canonically least candidate.

The subgroup lattice has two routes. A p-group's lattice is walked up one
order at a time: each subgroup of order p^(j+1) is a union of p cosets of
a normal subgroup of order p^j, so the walk takes no closure. Any other
group's lattice comes from cyclic extension of one subgroup per conjugacy
class; the oracle tests compare the two routes on p-groups. A p-subgroup
P of G is read in G's own table, with no standalone group: its lattice
by the same walk, Phi(P) = P'P^p, and its Q8 sections for the
quaternion-free test.

Sylow subgroups, and the Hall subgroups of a soluble G (every chief
factor of prime-power order), come from one maximal-pi routine: a
pi-subgroup grown element by element, read as its least conjugate
(``_hall_by_closure``; Sylow, P. Hall). The subgroup lattice of G is the
route to the Hall subgroups of any other G and to some Phi(G).
``_frattini_in`` is the one Frattini dispatcher, for G, a
p-subgroup or a normal subgroup E, from two facts: Phi(E) <= Phi(G) for
a normal E, and the Phi of a nilpotent group is the product of its
Sylow subgroups' own. A nilpotent P gives P'P^r (r the product of its
primes); a soluble G the cores of its maximal subgroups, read off its
chief-factor DAG; a normal E of a soluble G meeting Phi(G) trivially
has Phi(E) = 1; so does a G whose Fitting subgroup is 1, as Phi(G) is
nilpotent; G's lattice serves any other non-soluble G. Any other E is built
as a group of its own. The oracle tests use the lattice route as
reference.

O_p, O_p', the upper p-series, Z_U and Z_{U_p} are one climb up G's
chief-factor DAG, to a chief child while its factor's order passes the
subgroup's test (``_climb``). Started at a normal K instead of 1, the
climb gives the preimage in G of the like subgroup of G/K.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chiefs import (
    ChiefSeries,
    _bottom,
    _chief_children,
    _is_prime,
    _prime_factors,
    _prime_power,
    all_chief_series,
    minimal_normal_subgroups,
    normal_subgroups,
)
from .config import Caps, DEFAULT_CAPS
from .errors import LatticeCapExceeded, NoHallSubgroup, NotPSoluble
from .groups import (
    Group,
    Subgroup,
    _greedy_closure,
    clear_memo,
    derived_subgroup,
    memo,
)
from .perms import _DTYPE


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def _p_part(n: int, p: int) -> int:
    return p ** _valuation(n, p)


def _pi_part(n: int, pi) -> int:
    out = 1
    for p in pi:
        out *= _p_part(n, p)
    return out


def _is_abelian_in(G: Group, P: Subgroup) -> bool:
    """Do the elements of the subgroup P commute pairwise, read off G's
    table?"""
    block = G.table[np.ix_(P.idx, P.idx)]
    return bool((block == block.T).all())


# -- subgroup lattice --------------------------------------------------------


class SubgroupLattice:
    """Every subgroup of the ambient group, or of its p-subgroup P, in the
    ambient's indices: ``all`` is canonically ordered and ends with the top
    (the ambient or P), and ``normal`` is the sublist normal in the top.
    """

    def __init__(self, all_subs, normal_flags):
        self.all = all_subs
        self._normal_flags = normal_flags
        self.normal = [s for s, f in zip(all_subs, normal_flags) if f]
        self._by_order: dict = {}
        for s in all_subs:
            self._by_order.setdefault(s.order, []).append(s)

    def of_order(self, order: int) -> list:
        return self._by_order.get(order, [])

    def is_normal_flag(self, i: int) -> bool:
        return self._normal_flags[i]

    def maximal_subgroups(self) -> list:
        """Maximal proper subgroups of the top."""
        n = self.all[-1].order
        masks = np.stack([s.mask for s in self.all])
        orders = np.array([s.order for s in self.all])
        out = []
        for i, s in enumerate(self.all):
            if orders[i] >= n:
                continue
            contained = masks[:, s.idx].all(axis=1)
            if not (contained & (orders > orders[i]) & (orders < n)).any():
                out.append(s)
        return out

    def __len__(self):
        return len(self.all)


def all_subgroups(G: Group, caps: Caps = DEFAULT_CAPS) -> SubgroupLattice:
    """The full subgroup lattice of G, if |G| is within caps.lattice."""
    if G.order > caps.lattice:
        raise LatticeCapExceeded(
            f"order {G.order} exceeds lattice cap {caps.lattice}")
    return _lattice(G)


def _zuppos(G: Group) -> tuple:
    """The zuppos of G (cyclic subgroups of prime-power order > 1).

    Returns ``(gens, zid)``: ``gens[z]`` is the least index generating
    zuppo z, in increasing order, and ``zid[x]`` is the zuppo that x
    generates (-1 when x is 1 or its order is not a prime power).
    """
    n = G.order
    orders = G.element_orders
    primes = [_prime_factors(int(o)) for o in orders]
    is_pp = np.array([len(ps) == 1 for ps in primes])
    prime = np.array([ps[0] if len(ps) == 1 else 1 for ps in primes])
    least = np.arange(n, dtype=_DTYPE)
    power = least.copy()
    for k in range(2, int(orders.max())):
        power = G.table[power, np.arange(n)]  # x^k for every x
        # for o(x) = p^a, x^k generates <x> iff p does not divide k
        gen = is_pp & (k < orders) & (k % prime != 0)
        least[gen] = np.minimum(least[gen], power[gen])
    gens = np.unique(least[is_pp])
    zid = np.full(n, -1, dtype=_DTYPE)
    zid[is_pp] = np.searchsorted(gens, least[is_pp])
    return gens, zid


@memo("lattice")
def _lattice(G: Group) -> SubgroupLattice:
    """The full subgroup lattice of G, in canonical order.

    A group of prime-power order p^k > 1 is walked up layer by layer
    (``_lattice_by_layers``); every other group is enumerated by cyclic
    extension of one subgroup per conjugacy class
    (``_lattice_by_extension``). Both routes are complete, and both list
    the subgroups by (order, index bytes), so they give the same lattice.
    """
    if G.order > 1 and _prime_power(G.order) is not None:
        return _lattice_by_layers(G, G.subgroup(np.arange(G.order)))
    return _lattice_by_extension(G)


@memo("subgroups_in")
def subgroups_in(G: Group, P: Subgroup,
                 caps: Caps = DEFAULT_CAPS) -> SubgroupLattice:
    """Every subgroup of G inside P = G (``all_subgroups``) or a p-subgroup
    P, walked in G's table and listed in P's own lattice order, the flags
    meaning normal in P; LatticeCapExceeded when |P| > caps.lattice."""
    if P.order == G.order:
        return all_subgroups(G, caps)
    if P.order > caps.lattice:
        raise LatticeCapExceeded(
            f"order {P.order} exceeds lattice cap {caps.lattice}")
    if P.order > 1 and _prime_power(P.order) is None:
        raise ValueError("subgroups_in expects G or a p-subgroup of G")
    return _lattice_by_layers(G, P)


def _lattice_by_layers(G: Group, P: Subgroup) -> SubgroupLattice:
    """The subgroups of G inside the p-subgroup P, one order at a time.

    Layer j holds the subgroups of order p^j. Every subgroup T of order
    p^(j+1) has a maximal subgroup S, which has index p and so is normal
    in T; T = S<x> for any x in T outside S, and such an x normalises S
    with x^p in S. Conversely, for S in layer j and x in N_P(S) outside S
    with x^p in S, the union S, Sx, ..., Sx^(p-1) is a subgroup of order
    p^(j+1). So layer j+1 is the set of these unions over layer j, and the
    walk is complete (Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, 2005, ch. 4). No closure is taken: a cover is the
    products of S with x's powers.

    Each layer is one batch of arrays, and carries a generating set of
    each of its subgroups: S = T<x> is generated by T's generators and x.
    x normalises S iff it conjugates S's j generators into S, which one
    gather over the layer tests for every x in P, giving every S its
    normal flag in P and its candidates x. Two covers of one S meet in S,
    so each cover T of S is formed once, from the least x of T outside S
    (by position in P). Such an x lies below gx and g^-1 x for every
    generator g of S, as both lie in Sx, so the candidates that fail this
    are dropped before any product is formed. Covers met from several S
    are deduped by the bytes of their positions, and the next layer is
    sorted by those bytes. When P is abelian every S is normal in P, and
    no conjugate is formed.
    """
    table, inv, elts = G.table, G.inverses, P.idx
    abelian = _is_abelian_in(G, P)
    p = _prime_power(P.order) or 1  # 1: P is trivial, with no cover
    power = [np.zeros(len(elts), dtype=_DTYPE), elts]
    while len(power) <= p:
        power.append(table[power[-1], elts])
    power = np.stack(power)  # power[i, j] = elts[j]^i for 0 <= i <= p
    position = np.zeros(G.order, dtype=_DTYPE)
    position[elts] = np.arange(len(elts), dtype=_DTYPE)
    conjugators = table[inv[elts]]  # row x: x^-1 g, to be multiplied by x
    place = np.arange(len(elts))  # x's position in P

    subs, flags = [], []
    layer = np.zeros((1, 1), dtype=_DTYPE)
    gens = np.zeros((1, 0), dtype=_DTYPE)  # row s: generators of layer[s]
    while True:
        m, k = layer.shape
        subs += [Subgroup(G, idx) for idx in layer]
        if k == len(elts):  # P itself, with no cover, ends the walk
            return SubgroupLattice(subs, flags + [True])
        at = position[layer]
        member = np.zeros((m, len(elts)), dtype=bool)  # by position in P
        member[np.arange(m)[:, None], at] = True
        candidate = member[:, position[power[p]]] & ~member
        if abelian:
            flags += [True] * m
        else:
            # conj[x, s, i] = x^-1 g_i x for the generators g_i of layer[s]
            conj = position[table[conjugators[:, gens], elts[:, None, None]]]
            norm = member[np.arange(m)[:, None], conj].all(axis=2).T
            flags += norm.all(axis=1).tolist()
            candidate &= norm
        # x is below gx and g^-1 x for every generator g of S
        candidate &= ((place < position[table[gens[:, :, None], elts]])
                      & (place < position[table[inv[gens][:, :, None], elts]])).all(axis=1)
        s, j = np.nonzero(candidate)
        # S<x> outside S: the cosets S x^i, 0 < i < p, as positions in P
        outside = position[table[layer[s][:, :, None],
                                 power[1:p, j].T[:, None, :]]]
        outside = outside.reshape(len(s), k * (p - 1))
        least = outside.min(axis=1, initial=len(elts)) == j
        s, j = s[least], j[least]
        cover = np.sort(np.hstack([at[s], outside[least]]), axis=1)
        keys = cover.view(np.dtype((np.void, cover.shape[1] * cover.itemsize)))
        first = np.unique(keys.ravel(), return_index=True)[1]
        layer = elts[cover[first]]
        gens = np.hstack([gens[s[first]], elts[j[first], None]])


def _lattice_by_extension(G: Group) -> SubgroupLattice:
    """Enumerate the full subgroup lattice by cyclic extension.

    One subgroup per conjugacy class is extended (Neubüser, *Numer. Math.*
    2, 1960; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 4). ``found`` holds every subgroup met so far with
    its whole conjugation orbit; only the member that was met goes on the
    work list, as its class's representative R, with the generators it was
    met by. R is extended by one zuppo (a cyclic subgroup of prime-power
    order, held by one generator) from each N_G(R)-orbit on the zuppos
    outside R; the trivial subgroup, with N_G(1) = G, seeds the cyclic
    classes.

    Complete: every subgroup H is generated by the zuppos it contains, so
    it ends a chain 1 = H_0 < H_1 < ... < H_k = H with H_i = <H_{i-1}, z_i>
    for a zuppo z_i outside H_{i-1}. If H_{i-1} is found, some g maps it to
    its class's representative R, and H_i^g = <R, z_i^g>. R is extended by
    (z_i^g)^n for some n in N_G(R), giving <R, z_i^g>^n = H_i^(gn), so a
    conjugate of H_i, and with it the orbit of H_i, is found.
    """
    table, inv = G.table, G.inverses
    n = G.order
    zgens, zid = _zuppos(G)
    all_g = np.arange(n, dtype=_DTYPE)[:, None]

    found: dict = {}
    work: deque = deque()

    def add_orbit(idx, gens_idx):
        key = idx.tobytes()
        if key in found:
            return
        conj = table[table[inv[:, None], idx], all_g]
        conj.sort(axis=1)
        orbit = np.unique(conj, axis=0)
        for row in orbit:
            found[row.tobytes()] = (row, len(orbit) == 1)
        work.append((idx, gens_idx))

    add_orbit(np.zeros(1, dtype=_DTYPE), ())
    while work:
        idx, gens_idx = work.popleft()
        if len(idx) == n:
            continue
        norm = np.flatnonzero(
            _kernels.normalizer_mask(table, inv, idx)).astype(_DTYPE)
        # zuppo z's N_G(R)-orbit, named by its least member
        orbit_min = zid[table[table[inv[norm][:, None], zgens],
                              norm[:, None]]].min(axis=0)
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        for z in np.unique(orbit_min[~member[zgens]]):
            extended = gens_idx + (int(zgens[z]),)
            mask = _kernels.closure_idx(
                table, np.array(extended, dtype=_DTYPE))
            add_orbit(np.flatnonzero(mask).astype(_DTYPE), extended)

    entries = sorted(found.values(), key=lambda e: (len(e[0]), e[0].tobytes()))
    return SubgroupLattice([Subgroup(G, idx) for idx, _ in entries],
                           [normal for _, normal in entries])


def subgroups_of_order_in(G: Group, P: Subgroup, order: int,
                          caps: Caps = DEFAULT_CAPS) -> list:
    """All subgroups of G of the given order inside P (``subgroups_in``)."""
    return subgroups_in(G, P, caps).of_order(order)


def two_maximal_subgroups(G: Group, P: Subgroup,
                          caps: Caps = DEFAULT_CAPS) -> list:
    """2-maximal subgroups of a p-subgroup P: exactly those of index p^2."""
    p = _prime_factors(P.order)[0] if P.order > 1 else None
    if p is None or P.order < p * p:
        return []
    return subgroups_of_order_in(G, P, P.order // (p * p), caps)


# -- Sylow and Hall subgroups ------------------------------------------------


def _least_conjugate(G: Group, idx: np.ndarray) -> Subgroup:
    """The conjugate of the subgroup ``idx`` that the lattice lists first:
    least ``idx.tobytes()`` among the sorted index arrays of its conjugates."""
    table, inv = G.table, G.inverses
    conj = table[table[inv][:, idx], np.arange(G.order, dtype=_DTYPE)[:, None]]
    conj.sort(axis=1)
    return G.subgroup(min(conj, key=lambda row: row.tobytes()))


def _pi_elements(G: Group, pi) -> np.ndarray:
    """Mask of the non-identity elements whose order is a pi-number, that
    is, divides |G|_pi."""
    orders = G.element_orders
    return (orders > 1) & (_pi_part(G.order, pi) % orders == 0)


def _maximal_pi_subgroup(G: Group, pi, within: np.ndarray) -> np.ndarray:
    """Mask of a pi-subgroup of the subgroup ``within`` (a mask) that no
    pi-element of ``within`` extends to a larger pi-subgroup.

    The pi-elements are added in index order while the closure stays a
    pi-group (``_greedy_closure``). One pass suffices: if <S, x> is not a
    pi-group, neither is <S', x> for any S' containing S. The pass stops at
    the pi-part of |within|, which no pi-subgroup exceeds.
    """
    candidates = np.flatnonzero(_pi_elements(G, pi) & within).tolist()
    return _greedy_closure(G, candidates,
                           lambda size: _pi_part(size, pi) == size,
                           _pi_part(int(within.sum()), pi))[1]


def _hall_by_closure(G: Group, pi) -> Subgroup:
    """The least conjugate of a maximal pi-subgroup of G, when that is a
    Hall pi-subgroup: for pi one prime in any G, and for any pi in a
    soluble G.

    Every p-subgroup lies in a Sylow p-subgroup (Sylow), and in a soluble
    group every pi-subgroup lies in a Hall pi-subgroup (P. Hall, 1928); in
    both cases these are all conjugate. So a maximal pi-subgroup is a Hall
    one, and its least conjugate is the lattice's first subgroup of its
    order.
    """
    mask = _maximal_pi_subgroup(G, pi, np.ones(G.order, dtype=bool))
    return _least_conjugate(G, np.flatnonzero(mask).astype(_DTYPE))


@memo("sylow")
def sylow(G: Group, p: int) -> Subgroup:
    """The canonical Sylow p-subgroup (the lattice's first of its order):
    the least conjugate of a maximal p-subgroup (``_hall_by_closure``)."""
    if _p_part(G.order, p) == 1:
        return G.trivial_subgroup()
    return _hall_by_closure(G, {p})


def hall(G: Group, pi, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """The Hall pi-subgroup the lattice lists first, or NoHallSubgroup if
    none exists."""
    return _hall(G, frozenset(pi), caps)


@memo("hall")
def _hall(G: Group, pi: frozenset, caps: Caps) -> Subgroup:
    target = _pi_part(G.order, pi)
    if target == 1:
        return G.trivial_subgroup()
    if target == G.order:
        return G.as_subgroup()
    q = _prime_power(target)
    if q is not None:  # a single prime of |G| in pi asks for a Sylow subgroup
        return sylow(G, q)
    if _is_soluble(G):
        return _hall_by_closure(G, pi)
    return _hall_by_lattice(G, target, caps)


def _hall_by_lattice(G: Group, target: int, caps: Caps) -> Subgroup:
    for s in all_subgroups(G, caps).of_order(target):
        return s
    raise NoHallSubgroup(f"no subgroup of order {target} in group of order {G.order}")


def hall_complement(G: Group, p: int, caps: Caps = DEFAULT_CAPS):
    """A Hall p'-subgroup, or None if it does not exist."""
    pi = [q for q in _prime_factors(G.order) if q != p]
    try:
        return hall(G, pi, caps)
    except NoHallSubgroup:
        return None


# -- Frattini subgroup and socle ---------------------------------------------


def frattini(G: Group, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """Intersection of all maximal subgroups (G itself when G is trivial)."""
    return _frattini_in(G, G.subgroup(np.arange(G.order)), caps)


@memo("frattini_in")
def _frattini_in(G: Group, P: Subgroup, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """Phi(P) for P = G, a p-subgroup or a normal subgroup P of G, as a
    subgroup of G.

    Two facts keep most P inside G's table (Huppert, *Endliche Gruppen I*,
    1967, ch. III §3): Phi(N) <= Phi(G) for every normal N of G, and the
    Phi of a nilpotent group is the product of those of its Sylow
    subgroups. So:
    - a nilpotent P (a p-group among them) gives P'P^r, r the product of
      the primes dividing |P| (``_frattini_nilpotent``);
    - P = G gives the cores of the maximal subgroups off G's chief-factor
      DAG when G is soluble (``_frattini_soluble``); a non-soluble G with
      Fitting subgroup F(G) = 1, that is with no minimal normal subgroup
      of prime-power order, has Phi(G) = 1, since Phi(G) is nilpotent and
      normal and so lies in F(G); any other G reads its lattice;
    - a normal P of a soluble G with Phi(G) ∩ P = 1 has Phi(P) = 1;
    - any other P is built as a standalone group (its row i is P.idx[i]),
      whose memo is cleared once its Phi is read.
    """
    primes = _prime_factors(P.order)
    # nilpotent iff one Sylow q-subgroup each: exactly |P|_q q-elements
    if all(_pi_elements(G, {q})[P.idx].sum() + 1 == _p_part(P.order, q)
           for q in primes):
        return _frattini_nilpotent(G, P, math.prod(primes))
    if P.order == G.order:
        if _is_soluble(G):
            return _frattini_soluble(G)
        if all(_prime_power(N.order) is None
               for N in minimal_normal_subgroups(G)):
            return G.trivial_subgroup()
        return _frattini_by_lattice(G, caps)
    if (P.is_normal() and _is_soluble(G)
            and not P.mask[frattini(G, caps).idx[1:]].any()):
        return G.trivial_subgroup()
    alone = P.as_group()
    phi = G.subgroup(P.idx[frattini(alone, caps).idx])
    clear_memo(alone)
    return phi


def _frattini_by_lattice(G: Group, caps: Caps) -> Subgroup:
    mask = np.ones(G.order, dtype=bool)
    for M in all_subgroups(G, caps).maximal_subgroups():
        mask &= M.mask
    return G.subgroup_from_mask(mask)


def _frattini_nilpotent(G: Group, P: Subgroup, r: int) -> Subgroup:
    """Phi(P) = P'P^r for a nilpotent subgroup P of G, r the product of the
    primes dividing |P|: the closure in G's table of P's commutators and
    r-th powers. For a p-group (r = p) this is Burnside's basis theorem;
    a nilpotent P is the direct product of its Sylow subgroups P_q, and
    x^r generates the same subgroup as x^q for a q-element x, so P'P^r
    is the product of the P_q'P_q^q."""
    table, inv, elts = G.table, G.inverses, P.idx
    seeds = np.zeros(G.order, dtype=bool)
    seeds[table[table[inv[elts][:, None], inv[elts]],  # a^-1 b^-1 a b
                table[elts[:, None], elts]]] = True
    power = elts
    for _ in range(r - 1):
        power = table[power, elts]
    seeds[power] = True
    return G.subgroup_from_mask(_kernels.closure_idx(table, seeds.nonzero()[0]))


def _frattini_soluble(G: Group) -> Subgroup:
    """Phi(G) of a soluble G as the intersection of the cores of its
    maximal subgroups.

    A normal K is such a core iff G/K is primitive, and a soluble G/K is
    primitive iff it has a single minimal normal subgroup H/K and
    C_G(H/K) = H (Baer; Doerk and Hawkes, *Finite Soluble Groups*, 1992,
    ch. A). The complement that makes G/K primitive need not be sought:
    there F(G/K) = H/K, so Phi(G/K) = 1 and a maximal subgroup missing H/K
    complements it. Normal subgroups are taken largest first, and one that
    already contains the running intersection is skipped, as it cannot
    shrink it.
    """
    mask = np.ones(G.order, dtype=bool)
    for K in reversed(normal_subgroups(G)):
        if not (mask & ~K.mask).any():
            continue
        children = _chief_children(G, K)
        if len(children) == 1 and _self_centralising(G, K, children[0]):
            mask &= K.mask
    return G.subgroup_from_mask(mask)


def _self_centralising(G: Group, K: Subgroup, H: Subgroup) -> bool:
    """C_G(H/K) = H for an abelian chief factor H/K."""
    table, inv, h = G.table, G.inverses, H.idx
    # [h, g] = h^-1 g^-1 h g for every h in H and every g, one gather
    cent = K.mask[table[table[inv[h]][:, inv], table[h]]].all(axis=0)
    return int(cent.sum()) == H.order


def socle_and_minimal_normals(G: Group):
    """(product of all minimal normal subgroups, the minimal normals)."""
    mins = minimal_normal_subgroups(G)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for N in mins:
        mask = _kernels.product_mask(
            G.table, np.flatnonzero(mask).astype(_DTYPE), N.idx)
    return G.subgroup_from_mask(mask), mins


# -- the climb up the chief-factor DAG ---------------------------------------


def _climb(G: Group, bottom: Subgroup | None, accept) -> Subgroup:
    """The largest normal Z of G over the normal ``bottom`` (1 when None)
    whose G-chief factors above bottom all have an order that ``accept``
    takes: the preimage of the like subgroup of G/bottom.

    The climb steps to any chief child whose factor order is accepted,
    until none is. Every step stays inside Z (the product of two such
    normal subgroups is again one), and below Z some chief child of the
    current term lies in Z, whose factor is accepted by Jordan-Hoelder; so
    the climb ends at Z whatever child it takes.
    """
    cur = _bottom(G, bottom)
    while True:
        step = next((M for M in _chief_children(G, cur)
                     if accept(M.order // cur.order)), None)
        if step is None:
            return cur
        cur = step


@memo("o_p")
def o_p(G: Group, p: int, bottom: Subgroup | None = None) -> Subgroup:
    """Largest normal p-subgroup; from ``bottom`` = K, that of G/K."""
    return _climb(G, bottom, lambda n: _p_part(n, p) == n)


@memo("o_p_prime")
def o_p_prime(G: Group, p: int, bottom: Subgroup | None = None) -> Subgroup:
    """Largest normal p'-subgroup; from ``bottom`` = K, that of G/K."""
    return _climb(G, bottom, lambda n: n % p != 0)


@memo("z_u")
def hypercenter_u(G: Group, bottom: Subgroup | None = None) -> Subgroup:
    """Z_U(G): product of all normal N whose chief factors below N all have
    prime order; from ``bottom`` = K, that of G/K."""
    return _climb(G, bottom, _is_prime)


@memo("z_up")
def hypercenter_up(G: Group, p: int, bottom: Subgroup | None = None) -> Subgroup:
    """Z_{U_p}(G): like Z_U, also from ``bottom``, but only p-divisible
    factors must have order p."""
    return _climb(G, bottom, lambda n: n % p != 0 or n == p)


# -- solubility hierarchy ------------------------------------------------------


@memo("first_series")
def _first_series(G: Group) -> ChiefSeries:
    return next(all_chief_series(G))


def _is_soluble(G: Group) -> bool:
    """Every chief factor has prime-power order: G is its own soluble
    radical, the climb over chief factors of prime-power order."""
    return _climb(G, None, _prime_power).order == G.order


@memo("p_solubility")
def p_solubility(G: Group, p: int):
    """(is_p_soluble, p_length), from the upper p-series
    1 <= O_{p'} <= O_{p',p} <= ..., which reaches G iff G is p-soluble.

    p_length counts its p-terms, and is 0 when G is not p-soluble.
    """
    cur, length = o_p_prime(G, p), 0
    while cur.order < G.order:
        step = o_p(G, p, cur)
        if step.order == cur.order:
            return False, 0
        cur, length = o_p_prime(G, p, step), length + 1
    return True, length


def p_supersoluble(G: Group, p: int) -> bool:
    """Every chief factor of order divisible by p has order exactly p."""
    return hypercenter_up(G, p).order == G.order


def supersoluble(G: Group) -> bool:
    return hypercenter_u(G).order == G.order


def p_rank(G: Group, p: int):
    """Largest k with a chief factor of order p^k; None when p does not
    divide |G| (the notion is undefined there). NotPSoluble otherwise."""
    if not p_solubility(G, p)[0]:
        raise NotPSoluble(f"group of order {G.order} is not {p}-soluble")
    return max((_valuation(o, p) for o in _first_series(G).factor_orders()
                if o % p == 0), default=None)


# -- p-group predicates ---------------------------------------------------------


def exponent(G: Group) -> int:
    return int(math.lcm(*(int(o) for o in G.element_orders)))


def omega(P: Group, p: int, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """Omega(P) for a p-group P: generated by elements of order dividing p
    (odd p or quaternion-free 2-groups) or p^2 (other 2-groups)."""
    if P.order > 1 and _p_part(P.order, p) != P.order:
        raise ValueError("omega expects a p-group")
    i = 1 if (p != 2 or is_quaternion_free(P, caps)) else 2
    bound = p ** i
    gens = np.flatnonzero(np.array(
        [int(o) > 1 and bound % int(o) == 0 for o in P.element_orders]))
    mask = _kernels.closure_idx(P.table, gens.astype(_DTYPE))
    return P.subgroup_from_mask(mask)


def is_quaternion_free(P: Group, caps: Caps = DEFAULT_CAPS) -> bool:
    """No section S/T of P (T normal in S) isomorphic to Q8."""
    return _quaternion_free_in(P, P.subgroup(np.arange(P.order)), caps)


@memo("quaternion_free_in")
def _quaternion_free_in(G: Group, P: Subgroup,
                        caps: Caps = DEFAULT_CAPS) -> bool:
    """is_quaternion_free for P = G or a p-subgroup P of G, read in G.

    A Q8 section has order exactly 8, so only |S:T| = 8 pairs are scanned,
    and an abelian P, whose sections are all abelian, has none.
    """
    if P.order % 8 or _is_abelian_in(G, P):
        return True
    return _quaternion_free_by_sections(G, P, caps)


def _quaternion_free_by_sections(G: Group, P: Subgroup,
                                 caps: Caps = DEFAULT_CAPS) -> bool:
    """is_quaternion_free by scanning the sections of P's one lattice: for
    each T, the S of order 8|T| that contain T and normalise it."""
    lattice = subgroups_in(G, P, caps)
    for T in lattice.all:
        above = [S.mask for S in lattice.of_order(8 * T.order) if S.contains(T)]
        if above:
            masks = np.stack(above)
            norm = _kernels.normalizer_mask(G.table, G.inverses, T.idx, P.idx)
            masks = masks[~(masks[:, P.idx] & ~norm).any(axis=1)]
            if is_q8_section(G, masks, T.mask).any():
                return False
    return True


def is_q8_section(G: Group, above: np.ndarray, below: np.ndarray):
    """Is S/T isomorphic to Q8, for S each row of the masks ``above``, all
    of order 8|T| and normalising T, the mask ``below``?

    An order-8 group with a single involution is C8 or Q8, and C8 has an
    element whose 4th power is not 1. So S/T is Q8 exactly when 2|T|
    elements x of S have x^2 in T, and every x^4 lies in T.
    """
    every = np.arange(G.order)
    square = G.table[every, every]
    return (((above & below[square]).sum(axis=-1) == 2 * below.sum())
            & ~(above & ~below[square[square]]).any(axis=-1))


# -- aggregate record -----------------------------------------------------------


@dataclass
class StructureFacts:
    group: Group
    p: int
    sylow_p: Subgroup
    o_p: Subgroup
    o_p_prime: Subgroup
    frattini: Subgroup
    socle: Subgroup
    center: Subgroup
    derived: Subgroup
    is_p_soluble: bool
    p_length: int
    is_p_supersoluble: bool
    is_supersoluble: bool
    p_rank: object
    z_u: Subgroup
    z_up: Subgroup


def structure_facts(G: Group, p: int, caps: Caps = DEFAULT_CAPS) -> StructureFacts:
    from .groups import center as center_of
    soluble, length = p_solubility(G, p)
    return StructureFacts(
        group=G,
        p=p,
        sylow_p=sylow(G, p),
        o_p=o_p(G, p),
        o_p_prime=o_p_prime(G, p),
        frattini=frattini(G, caps),
        socle=socle_and_minimal_normals(G)[0],
        center=center_of(G),
        derived=derived_subgroup(G),
        is_p_soluble=soluble,
        p_length=length,
        is_p_supersoluble=p_supersoluble(G, p),
        is_supersoluble=supersoluble(G),
        p_rank=p_rank(G, p) if soluble else None,
        z_u=hypercenter_u(G),
        z_up=hypercenter_up(G, p),
    )
