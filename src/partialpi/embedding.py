"""Subgroup embedding predicates evaluated along chief series.

The central predicate asks for a chief series 1 = G_0 < ... < G_n = G such
that at every factor, writing D for the trace (H G_{i-1} cap G_i) G_{i-1},
the normalizer index of the factor image of D in G/G_{i-1} is divisible only
by primes dividing that image's order.

Two evaluation routes exist and must agree:

* the fast route stays inside G (correspondence theorem): the image of D in
  G/G_{i-1} has order |D|/|G_{i-1}| and its quotient-normalizer index equals
  |G : N_G(D)|, so no quotient group is ever materialized. Since
  G_{i-1} <= D <= G_i and G_i/G_{i-1} is a chief factor, D is normal
  exactly when it is G_{i-1} or G_i; at those endpoints, told apart by
  |D| alone, the index is 1 and no normaliser is built;
* the oracle route builds each quotient G/G_{i-1} explicitly and evaluates
  the definition verbatim: an oracle for the tests, which no verdict uses.

The fast route is a step function for ``chiefs.search_chains``: the factor
condition depends only on (G_{i-1}, G_i, H), so the search abandons a failing
prefix whole. The partial CAP property and ``pi_series_through`` are step
functions for the same search.

Searched from a normal N, the same step reads HN/N in G/N inside G: at
(K, L) the trace of HN/N is (HK cap L)/N. Complements of a subgroup of a
normal Sylow P are sought among P's subgroups, also read in G's table.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .chiefs import (
    ChiefSeries,
    _prime_factors,
    _prime_power,
    all_chief_series,
    search_chains,
)
from .config import Caps, DEFAULT_CAPS
from .errors import HypothesisViolated
from .groups import Group, Subgroup, memo, normalizer, quotient
from .perms import _DTYPE
from .structure import (
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


@memo("normalizer_order")
def _normalizer_order(G: Group, d_key: bytes) -> int:
    """|N_G(D)| for D given by the bytes of its index array."""
    d_idx = np.frombuffer(d_key, dtype=_DTYPE)
    return int(_kernels.normalizer_mask(G.table, G.inverses, d_idx).sum())


def _trace(G: Group, H: Subgroup, below: Subgroup, above: Subgroup) -> tuple:
    """(|D/below|, |G : N_G(D)|) for the trace D = (H below) cap above.

    below <= D <= above, so D of the order of either is that term, which
    is normal, and its index is 1 with no normaliser built.
    """
    d_mask = _kernels.product_mask(G.table, H.idx, below.idx) & above.mask
    d_idx = np.flatnonzero(d_mask).astype(_DTYPE)
    if len(d_idx) in (below.order, above.order):
        return len(d_idx) // below.order, 1
    return (len(d_idx) // below.order,
            G.order // _normalizer_order(G, d_idx.tobytes()))


def _pi_step(G: Group, H: Subgroup, below: Subgroup, above: Subgroup,
             factor_index: int) -> PiFactorRecord:
    """Factor condition via subgroup arithmetic inside G."""
    image_order, index = _trace(G, H, below, above)
    primes = _prime_factors(image_order)
    passed = all(q in primes for q in _prime_factors(index))
    return PiFactorRecord(factor_index, image_order, index, primes, passed)


@memo("partial_pi")
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


def evaluate_series(G: Group, H: Subgroup, series: ChiefSeries) -> list:
    """Unpruned per-factor records along one given series (fast route)."""
    return [_pi_step(G, H, series.terms[i], series.terms[i + 1], i)
            for i in range(len(series))]


# -- quotient-materializing oracle -------------------------------------------


def evaluate_series_by_quotients(G: Group, H: Subgroup,
                                 series: ChiefSeries) -> list:
    """Per-factor records computed verbatim in materialized quotients."""
    out = []
    for i in range(len(series)):
        below, above = series.terms[i], series.terms[i + 1]
        q = quotient(G, below)
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
    """Oracle evaluation over every chief series, no pruning, no shortcuts."""
    for series in all_chief_series(G, caps):
        records = evaluate_series_by_quotients(G, H, series)
        if all(r.passed for r in records):
            return True, PiWitness(series, records)
    return False, None


# -- partial CAP property -----------------------------------------------------


def satisfies_partial_cap(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS):
    """(verdict, witness): some chief series is covered-or-avoided by H.

    Covers at a factor: G_i <= H G_{i-1}; avoids: H cap G_i <= G_{i-1}.
    When both hold "covers" is recorded (determinism only).
    """
    def step(below, above, i):
        hn = _kernels.product_mask(G.table, H.idx, below.idx)
        if not (above.mask & ~hn).any():
            return (i, "covers")
        if not (H.mask & above.mask & ~below.mask).any():
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
        if (P.contains(H)
                and _normalizer_order(G, P.idx.tobytes()) == G.order):
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
        if _normalizer_order(G, T.idx.tobytes()) % p_prime:
            continue
        norm = _kernels.normalizer_mask(G.table, G.inverses, T.idx)
        R = _maximal_pi_subgroup(G, _prime_factors(p_prime), norm)
        return True, G.subgroup_from_mask(_kernels.product_mask(
            G.table, T.idx, np.flatnonzero(R).astype(_DTYPE)))
    return False, None


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
    if not satisfies_partial_pi(G, H, caps)[0]:
        raise HypothesisViolated("H does not satisfy the partial pi-property")
    def step(below, above, i):
        image_order, index = _trace(G, H, below, above)
        if _p_part(index, p) != index:
            return None
        return PiFactorRecord(i, image_order, index, (p,), True)

    found = next(search_chains(G, step, through=N, caps=caps), None)
    return found is not None, found and PiWitness(*found)
