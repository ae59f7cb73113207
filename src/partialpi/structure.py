"""Enumerative structure theory: lattices, Sylow/Hall subgroups, solubility.

Everything here is deterministic: subgroup lattices are kept in canonical
order (by order, then element-index tuple), and all "choose one" operations
(sylow, hall, complements) pick the canonically least candidate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chiefs import (
    ChiefSeries,
    _prime_factors,
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

    ``all`` is canonically ordered; ``normal`` is the normal sublist;
    ``maximal_of`` maps each subgroup to its minimal proper overgroups
    (computed lazily).
    """

    def __init__(self, ambient: Group, all_subs, normal_flags):
        self.ambient = ambient
        self.all = all_subs
        self._normal_flags = normal_flags
        self.normal = [s for s, f in zip(all_subs, normal_flags) if f]
        self._maximal_of = None
        self._by_order: dict = {}
        for s in all_subs:
            self._by_order.setdefault(s.order, []).append(s)

    def of_order(self, order: int) -> list:
        return self._by_order.get(order, [])

    def is_normal_flag(self, i: int) -> bool:
        return self._normal_flags[i]

    @property
    def maximal_of(self) -> dict:
        if self._maximal_of is None:
            ints = [int.from_bytes(np.packbits(s.mask).tobytes(), "big")
                    for s in self.all]
            adj = {}
            for i, s in enumerate(self.all):
                overs = [j for j, t in enumerate(self.all)
                         if t.order > s.order and ints[i] & ~ints[j] == 0]
                covers = [j for j in overs
                          if not any(self.all[k].order < self.all[j].order
                                     and ints[k] & ~ints[j] == 0
                                     for k in overs if k != j)]
                adj[s] = [self.all[j] for j in covers]
            self._maximal_of = adj
        return self._maximal_of

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


@memo("lattice")
def _lattice(G: Group) -> SubgroupLattice:
    """Enumerate the full subgroup lattice by cyclic extension.

    Cyclic subgroups are seeded from conjugacy-class representatives; each
    found subgroup is extended by every class representative outside it, and
    each new subgroup is added together with its whole conjugation orbit
    (which keeps the found-set conjugation-closed, the completeness
    invariant of this strategy).
    """
    table, inv = G.table, G.inverses
    n = G.order
    reps = [int(r) for r in np.unique(G.class_reps) if r != 0]
    all_g = np.arange(n, dtype=_DTYPE)[:, None]

    found: dict = {}
    work: deque = deque()

    def add_orbit(idx, gens_idx):
        key = idx.tobytes()
        if key in found:
            return
        conj = table[table[inv][:, idx], all_g]
        conj.sort(axis=1)
        orbit = np.unique(conj, axis=0)
        normal = len(orbit) == 1
        for row in orbit:
            rkey = row.tobytes()
            if rkey not in found:
                g = int(np.flatnonzero((conj == row).all(axis=1))[0])
                gi = int(inv[g])
                cgens = tuple(int(table[table[gi, x], g]) for x in gens_idx)
                found[rkey] = (row.copy(), cgens, normal)
                work.append((row.copy(), cgens))

    triv = np.zeros(1, dtype=_DTYPE)
    found[triv.tobytes()] = (triv, (), True)
    for r in reps:
        mask = _kernels.closure_idx(table, np.array([r], dtype=_DTYPE))
        add_orbit(np.flatnonzero(mask).astype(_DTYPE), (r,))
    while work:
        idx, gens_idx = work.popleft()
        if len(idx) == n:
            continue
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        for r in reps:
            if member[r]:
                continue
            mask = _kernels.closure_idx(
                table, np.array(gens_idx + (r,), dtype=_DTYPE))
            add_orbit(np.flatnonzero(mask).astype(_DTYPE), gens_idx + (r,))

    entries = sorted(found.values(), key=lambda e: (len(e[0]), e[0].tobytes()))
    subs, flags = [], []
    for idx, gens_idx, normal in entries:
        subs.append(G.subgroup(idx, generators=tuple(
            sorted(G.perm(i) for i in gens_idx))))
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


@memo("sylow")
def sylow(G: Group, p: int) -> Subgroup:
    """The canonical Sylow p-subgroup (lex-least among all of them).

    Normalizer ascent builds one Sylow subgroup; the lex-least member of its
    conjugate orbit is the least Sylow in canonical lattice order, because
    Sylow subgroups are all conjugate.
    """
    pk = _p_part(G.order, p)
    if pk == 1:
        return G.trivial_subgroup()
    table, inv = G.table, G.inverses
    orders = G.element_orders
    is_p_elt = np.array([o > 1 and _p_part(int(o), p) == int(o)
                         for o in orders])
    gens = [int(np.flatnonzero(is_p_elt)[0])]
    mask = _kernels.closure_idx(table, np.array(gens, dtype=_DTYPE))
    while int(mask.sum()) < pk:
        norm = _kernels.normalizer_mask(
            table, inv, np.flatnonzero(mask).astype(_DTYPE))
        cand = np.flatnonzero(norm & is_p_elt & ~mask)
        gens.append(int(cand[0]))
        mask = _kernels.closure_idx(table, np.array(gens, dtype=_DTYPE))
    idx = np.flatnonzero(mask).astype(_DTYPE)
    conj = table[table[inv][:, idx], np.arange(G.order, dtype=_DTYPE)[:, None]]
    conj.sort(axis=1)
    orbit = np.unique(conj, axis=0)
    return G.subgroup(orbit[0])


def hall(G: Group, pi, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """A Hall pi-subgroup from the lattice, or NoHallSubgroup if none exists."""
    target = _pi_part(G.order, set(pi))
    if target == 1:
        return G.trivial_subgroup()
    if target == G.order:
        return G.as_subgroup()
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
    mask = np.ones(G.order, dtype=bool)
    for M in all_subgroups(G, caps).maximal_subgroups():
        mask &= M.mask
    return G.subgroup_from_mask(mask)


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

    A Q8 section has order exactly 8, so only |S:T| = 8 pairs are scanned.
    """
    if P.order % 8:
        return True
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
    from .groups import center as center_of, derived_subgroup
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
