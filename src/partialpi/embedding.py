"""Subgroup embedding predicates evaluated along chief series.

The central predicate asks for a chief series 1 = G_0 < ... < G_n = G such
that at every factor, writing D for the trace (H G_{i-1} cap G_i) G_{i-1},
the normalizer index of the factor image of D in G/G_{i-1} is divisible only
by primes dividing that image's order.

Two evaluation routes exist and must agree:

* the fast route stays inside G (correspondence theorem): the image of D in
  G/G_{i-1} has order |D|/|G_{i-1}| and its quotient-normalizer index equals
  |G : N_G(D)|, so no quotient group is ever materialized;
* the oracle route builds each quotient G/G_{i-1} explicitly and evaluates
  the definition verbatim (used in tests and the acceptance suite).

The fast route is a step function for ``chiefs.search_chains``: the factor
condition depends only on (G_{i-1}, G_i, H), so the search abandons a failing
prefix whole. The partial CAP property and ``pi_series_through`` are step
functions for the same search.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .chiefs import ChiefSeries, _prime_factors, all_chief_series, search_chains
from .config import Caps, DEFAULT_CAPS
from .errors import HypothesisViolated
from .groups import Group, Subgroup, normalizer, quotient
from .perms import _DTYPE
from .structure import all_subgroups, _p_part


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


def _hn_mask(G: Group, H: Subgroup, below: Subgroup, cache: dict) -> np.ndarray:
    key = below.idx.tobytes()
    if key not in cache:
        cache[key] = _kernels.product_mask(G.table, H.idx, below.idx)
    return cache[key]


def _normalizer_order(G: Group, d_idx: np.ndarray) -> int:
    store = G._cache.setdefault("normalizer_orders", {})
    key = d_idx.tobytes()
    if key not in store:
        store[key] = int(_kernels.normalizer_mask(
            G.table, G.inverses, d_idx).sum())
    return store[key]


def _trace(G: Group, H: Subgroup, below: Subgroup, above: Subgroup,
           hn_cache: dict) -> tuple:
    """(|D/below|, |G : N_G(D)|) for the trace D = (H below) cap above."""
    d_mask = _hn_mask(G, H, below, hn_cache) & above.mask
    d_idx = np.flatnonzero(d_mask).astype(_DTYPE)
    return len(d_idx) // below.order, G.order // _normalizer_order(G, d_idx)


def _pi_step(G: Group, H: Subgroup, below: Subgroup, above: Subgroup,
             factor_index: int, hn_cache: dict) -> PiFactorRecord:
    """Factor condition via subgroup arithmetic inside G."""
    image_order, index = _trace(G, H, below, above, hn_cache)
    primes = _prime_factors(image_order)
    passed = all(q in primes for q in _prime_factors(index))
    return PiFactorRecord(factor_index, image_order, index, primes, passed)


def satisfies_partial_pi(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS):
    """(verdict, witness): does some chief series pass every factor check?

    The first witness in canonical DFS order is returned; chains explored
    are counted against caps.series.
    """
    store = G._cache.setdefault("pi_verdicts", {})
    key = (H.idx.tobytes(), caps.series)
    if key in store:
        return store[key]
    hn_cache: dict = {}

    def step(below, above, i):
        rec = _pi_step(G, H, below, above, i, hn_cache)
        return rec if rec.passed else None

    found = next(search_chains(G, step, caps=caps), None)
    store[key] = (found is not None, found and PiWitness(*found))
    return store[key]


def evaluate_series(G: Group, H: Subgroup, series: ChiefSeries) -> list:
    """Unpruned per-factor records along one given series (fast route)."""
    hn_cache: dict = {}
    return [_pi_step(G, H, series.terms[i], series.terms[i + 1], i, hn_cache)
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
    hn_cache: dict = {}

    def step(below, above, i):
        if not (above.mask & ~_hn_mask(G, H, below, hn_cache)).any():
            return (i, "covers")
        if not (H.mask & above.mask & ~below.mask).any():
            return (i, "avoids")
        return None

    found = next(search_chains(G, step, caps=caps), None)
    return found is not None, found and CapWitness(*found)


# -- complements ----------------------------------------------------------------


def is_complemented(G: Group, H: Subgroup, caps: Caps = DEFAULT_CAPS):
    """(verdict, complement): first K in canonical lattice order with
    |K| = |G|/|H| and trivial intersection (then G = HK by counting)."""
    target = G.order // H.order
    for K in all_subgroups(G, caps).of_order(target):
        if int((K.mask & H.mask).sum()) == 1:
            return True, K
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
    hn_cache: dict = {}

    def step(below, above, i):
        image_order, index = _trace(G, H, below, above, hn_cache)
        if _p_part(index, p) != index:
            return None
        return PiFactorRecord(i, image_order, index, (p,), True)

    found = next(search_chains(G, step, through=N, caps=caps), None)
    return found is not None, found and PiWitness(*found)
