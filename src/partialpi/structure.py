"""Enumerative structure theory: lattices, Sylow/Hall subgroups, solubility.

Everything here is deterministic: subgroup lattices are kept in canonical
order (by order, then the bytes of the element-index array), and ``sylow``
and ``hall`` pick the canonically least candidate.

The subgroup lattice of G is the general route. A soluble G (every chief
factor of prime-power order) never needs it for Phi(G) or a Hall subgroup:
``frattini`` intersects the cores of the maximal subgroups, read off the
chief factors, and ``hall`` grows a maximal pi-subgroup element by element
(P. Hall). A p-group takes Phi(P) = P'P^p. Other groups keep the lattice
route, which the oracle tests use as reference.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chiefs import (
    ChiefSeries,
    _chief_children,
    _prime_factors,
    _prime_power,
    all_chief_series,
    minimal_normal_subgroups,
    normal_subgroups,
    search_chains,
)
from .config import Caps, DEFAULT_CAPS
from .errors import LatticeCapExceeded, NoHallSubgroup, NotPSoluble
from .groups import (
    Group,
    Subgroup,
    derived_subgroup,
    dicyclic,
    is_isomorphic,
    lift_subgroup,
    memo,
    quotient,
)
from .perms import _DTYPE


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _pi_part(n: int, pi) -> int:
    out = 1
    for p in pi:
        out *= _p_part(n, p)
    return out


# -- subgroup lattice --------------------------------------------------------


class SubgroupLattice:
    """Every subgroup of the ambient group, conjugation-closed.

    ``all`` is canonically ordered; ``normal`` is the normal sublist.
    """

    def __init__(self, ambient: Group, all_subs, normal_flags):
        self.ambient = ambient
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
        """Maximal proper subgroups of the ambient group."""
        n = self.ambient.order
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
    """Enumerate the full subgroup lattice by cyclic extension.

    One subgroup per conjugacy class is extended (Neubüser, *Numer. Math.*
    2, 1960; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 4). ``found`` holds every subgroup met so far with
    its whole conjugation orbit; only the member that was met goes on the
    work list, as its class's representative R. R is extended by one zuppo
    (a cyclic subgroup of prime-power order, held by one generator) from
    each N_G(R)-orbit on the zuppos outside R; the trivial subgroup, with
    N_G(1) = G, seeds the cyclic classes.

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
        orbit, first = np.unique(conj, axis=0, return_index=True)
        normal = len(orbit) == 1
        for row, g in zip(orbit, first):
            gi = int(inv[g])
            cgens = tuple(int(table[table[gi, x], g]) for x in gens_idx)
            found[row.tobytes()] = (row, cgens, normal)
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
    subs, flags = [], []
    for idx, gens_idx, normal in entries:
        subs.append(G.subgroup(idx, generator_idx=gens_idx))
        flags.append(normal)
    return SubgroupLattice(G, subs, flags)


@memo("as_group")
def subgroup_as_group(G: Group, P: Subgroup) -> Group:
    """P as a standalone Group, cached per subgroup so its own caches
    (lattice, table, quotients) are shared across callers; G itself when P
    is all of G."""
    return G if P.order == G.order else P.as_group()


def subgroups_of_order_in(G: Group, P: Subgroup, order: int,
                          caps: Caps = DEFAULT_CAPS) -> list:
    """All subgroups of G of the given order inside P (via P's own lattice)."""
    lattice = all_subgroups(subgroup_as_group(G, P), caps)
    return [lift_subgroup(s, G) for s in lattice.of_order(order)]


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
    pi-group. One pass suffices: if <S, x> is not a pi-group, neither is
    <S', x> for any S' containing S. The pass stops at the pi-part of
    |within|, which no pi-subgroup exceeds.
    """
    limit = _pi_part(int(within.sum()), pi)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    gens: list = []
    for x in np.flatnonzero(_pi_elements(G, pi) & within):
        if int(mask.sum()) == limit:
            break
        if mask[x]:
            continue
        trial = _kernels.closure_idx(G.table, np.array(gens + [x], dtype=_DTYPE))
        size = int(trial.sum())
        if _pi_part(size, pi) == size:
            gens.append(x)
            mask = trial
    return mask


@memo("sylow")
def sylow(G: Group, p: int) -> Subgroup:
    """The canonical Sylow p-subgroup (the lattice's first of its order).

    Normalizer ascent builds one Sylow subgroup; its least conjugate is the
    least Sylow in canonical lattice order, because Sylow subgroups are all
    conjugate.
    """
    pk = _p_part(G.order, p)
    if pk == 1:
        return G.trivial_subgroup()
    table, inv = G.table, G.inverses
    is_p_elt = _pi_elements(G, {p})
    gens = [int(np.flatnonzero(is_p_elt)[0])]
    mask = _kernels.closure_idx(table, np.array(gens, dtype=_DTYPE))
    while int(mask.sum()) < pk:
        norm = _kernels.normalizer_mask(
            table, inv, np.flatnonzero(mask).astype(_DTYPE))
        cand = np.flatnonzero(norm & is_p_elt & ~mask)
        gens.append(int(cand[0]))
        mask = _kernels.closure_idx(table, np.array(gens, dtype=_DTYPE))
    return _least_conjugate(G, np.flatnonzero(mask).astype(_DTYPE))


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
    if _is_soluble(G):
        return _hall_soluble(G, pi)
    return _hall_by_lattice(G, target, caps)


def _hall_soluble(G: Group, pi) -> Subgroup:
    """Hall pi-subgroup of a soluble G without its lattice.

    In a soluble group every pi-subgroup lies in a Hall pi-subgroup, and
    the Hall pi-subgroups are all conjugate (P. Hall, 1928). So a maximal
    pi-subgroup is a Hall one, and its least conjugate is the lattice's
    first subgroup of that order.
    """
    mask = _maximal_pi_subgroup(G, pi, np.ones(G.order, dtype=bool))
    return _least_conjugate(G, np.flatnonzero(mask).astype(_DTYPE))


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


@memo("frattini")
def frattini(G: Group, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """Intersection of all maximal subgroups (G itself when G is trivial)."""
    if G.order == 1:
        return G.as_subgroup()
    p = _prime_power(G.order)
    if p is not None:
        return _frattini_p_group(G, p)
    if _is_soluble(G):
        return _frattini_soluble(G)
    return _frattini_by_lattice(G, caps)


def _frattini_by_lattice(G: Group, caps: Caps) -> Subgroup:
    mask = np.ones(G.order, dtype=bool)
    for M in all_subgroups(G, caps).maximal_subgroups():
        mask &= M.mask
    return G.subgroup_from_mask(mask)


def _frattini_p_group(P: Group, p: int) -> Subgroup:
    """Phi(P) = P'P^p for a p-group P (Burnside's basis theorem)."""
    n = P.order
    power = np.arange(n, dtype=_DTYPE)
    for _ in range(p - 1):
        power = P.table[power, np.arange(n)]
    seeds = np.union1d(derived_subgroup(P).idx, power).astype(_DTYPE)
    return P.subgroup_from_mask(_kernels.closure_idx(P.table, seeds))


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
    table, inv = G.table, G.inverses
    cent = np.ones(G.order, dtype=bool)
    for h in (G.index_of(x) for x in H.generators):
        # [h, g] = h^-1 g^-1 h g for every g
        cent &= K.mask[table[table[inv[h], inv], table[h]]]
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


def o_p(G: Group, p: int) -> Subgroup:
    """Largest normal p-subgroup."""
    best = G.trivial_subgroup()
    for N in normal_subgroups(G):
        if N.order > best.order and _p_part(N.order, p) == N.order:
            best = N
    return best


def o_p_prime(G: Group, p: int) -> Subgroup:
    """Largest normal subgroup of order coprime to p."""
    best = G.trivial_subgroup()
    for N in normal_subgroups(G):
        if N.order > best.order and N.order % p != 0:
            best = N
    return best


# -- solubility hierarchy ------------------------------------------------------


@memo("first_series")
def _first_series(G: Group) -> ChiefSeries:
    return next(all_chief_series(G))


def _is_soluble(G: Group) -> bool:
    """Every chief factor has prime-power order (read from one series)."""
    return all(_prime_power(o) for o in _first_series(G).factor_orders())


@memo("p_solubility")
def p_solubility(G: Group, p: int):
    """(is_p_soluble, p_length).

    p-soluble iff every chief factor is a p-group or p'-group (checked on one
    series; Jordan-Hoelder makes it series-independent). p_length counts the
    p-terms of the upper p-series 1 <= O_{p'} <= O_{p',p} <= ...; the value
    is only meaningful when the group is p-soluble.
    """
    soluble = True
    for o in _first_series(G).factor_orders():
        if o % p == 0 and _p_part(o, p) != o:
            soluble = False
            break
    length = 0
    if soluble:
        cur = G.trivial_subgroup()
        while cur.order < G.order:
            q = quotient(G, cur)
            cur = q.preimage(o_p_prime(q.target, p))
            q = quotient(G, cur)
            step = q.preimage(o_p(q.target, p))
            if step.order == cur.order:
                break
            length += 1
            cur = step
    return soluble, length


def p_supersoluble(G: Group, p: int) -> bool:
    """Every chief factor of order divisible by p has order exactly p."""
    return all(o == p for o in _first_series(G).factor_orders() if o % p == 0)


def supersoluble(G: Group) -> bool:
    return all(len(_prime_factors(o)) == 1 and o == _prime_factors(o)[0]
               for o in _first_series(G).factor_orders())


def p_rank(G: Group, p: int):
    """Largest k with a chief factor of order p^k; None when p does not
    divide |G| (the notion is undefined there). NotPSoluble otherwise."""
    if not p_solubility(G, p)[0]:
        raise NotPSoluble(f"group of order {G.order} is not {p}-soluble")
    best = None
    for o in _first_series(G).factor_orders():
        if o % p == 0:
            k = round(math.log(o, p))
            best = k if best is None else max(best, k)
    return best


# -- hypercenters --------------------------------------------------------------


def _chain_orders_below(G: Group, N: Subgroup) -> tuple:
    """Factor orders of one maximal chain of G-normal subgroups from 1 to N."""
    series, _ = next(search_chains(G, through=N))
    return series.factor_orders()[:series.terms.index(N)]


def _hypercenter(G: Group, accept) -> Subgroup:
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for N in normal_subgroups(G):
        if N.order > 1 and all(accept(o) for o in _chain_orders_below(G, N)):
            mask = _kernels.product_mask(
                G.table, np.flatnonzero(mask).astype(_DTYPE), N.idx)
    return G.subgroup_from_mask(mask)


@memo("z_u")
def hypercenter_u(G: Group) -> Subgroup:
    """Z_U(G): product of all normal N whose chief factors below N all have
    prime order."""
    return _hypercenter(
        G, lambda o: len(_prime_factors(o)) == 1 and o == _prime_factors(o)[0])


@memo("z_up")
def hypercenter_up(G: Group, p: int) -> Subgroup:
    """Z_{U_p}(G): like Z_U but only p-divisible factors must have order p."""
    return _hypercenter(G, lambda o: o % p != 0 or o == p)


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


@memo("quaternion_free")
def is_quaternion_free(P: Group, caps: Caps = DEFAULT_CAPS) -> bool:
    """No section S/T of P (T normal in S) isomorphic to Q8.

    A Q8 section has order exactly 8, so only |S:T| = 8 pairs are scanned,
    and an abelian P, whose sections are all abelian, has none.
    """
    if P.order % 8 or np.array_equal(P.table, P.table.T):
        return True
    return _quaternion_free_by_sections(P, caps)


def _quaternion_free_by_sections(P: Group, caps: Caps = DEFAULT_CAPS) -> bool:
    """is_quaternion_free by scanning the sections of P's lattice."""
    q8 = dicyclic(8)
    for S in sorted(all_subgroups(P, caps).all, key=lambda s: -s.order):
        if S.order % 8:
            continue
        s_group = subgroup_as_group(P, S)
        for T in all_subgroups(s_group, caps).of_order(S.order // 8):
            if T.is_normal() and is_isomorphic(
                    quotient(s_group, T).target, q8, caps):
                return False
    return True


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
