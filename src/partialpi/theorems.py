"""Executable verifiers for the structure theorems and supporting lemmas.

Each verifier evaluates its hypotheses on the given group (never assumes
them), then checks the conclusion cases. A report passes when hypotheses
fail (vacuous) or some conclusion case holds; conjunctive conclusions are
recorded as a single joint case so that pass == vacuous-or-nonempty-cases
holds exactly. Cap violations surface as status "indeterminate", a third
verdict state distinct from pass/fail.

The verifiers build no quotient group: G/N is read as G's chief-factor
DAG above N, so the Pi-property of HN/N is the DAG walked from N, and
Z_U(G/N) and Z_{U_p}(G/N) are climbs from N to their preimages in G. Every
Pi question is about a subgroup of a Sylow subgroup P, and goes through
``_has_pi``: it reads P's ``pi_family`` (every H, in G and from every N,
from two walks of the DAG), or, when the family is over a cap, runs the
chain search for that one (N, H). The partial CAP question goes through
``_has_cap``, read off the same family or searched alike, and the
complement question, asked only of an abelian normal Sylow P, through
``_complemented``, read off P's ``complement_family`` (one table of
|H cap N| for the normal N inside P). The lemmas that range over every
(N, H) pair are reductions over the family's arrays (``_tally_table``);
their per-pair loops run only when the family is over a cap. No verifier searches per
subgroup while the families stand. Nor
do they build a subgroup as a group of its own: a p-subgroup's lattice,
Phi and Q8 sections are read in G's table (``structure.subgroups_in``),
and so is Phi(E) of a normal E that is nilpotent, or that meets Phi(G)
trivially in a soluble G (then Phi(E) = 1, as Phi(E) <= Phi(G)). Any
other E is built alone, its memo cleared once read; no corpus group has
one.

Universally quantified lemma statements ("for every subgroup of order d...")
expand to exhaustive checks over the relevant subgroup lists; the expensive
quantifier sweeps are cached per group so theorem and lemma verifiers share
work.

``CHECKS`` is the one list of checks: check id -> (verifier, parameter
grid), in report order. It drives ``run_check``, ``default_checks`` and the
command line's ``--theorem`` validation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .chiefs import (_is_prime, _prime_factors, _prime_power,
                     minimal_normal_subgroups, normal_subgroups)
from .config import Caps, DEFAULT_CAPS
from .embedding import (
    _pi_verdict,
    complement_family,
    pi_family,
    pi_series_through,
    satisfies_partial_cap,
)
from .errors import BadParameter, CapExceeded, NotElementaryAbelian, UnknownLemma
from .groups import Group, Subgroup, centralizer, memo
from .modrep import (
    _cyclicity_criterion,
    _hom_dims,
    homogeneous_constituents,
    is_irreducible,
    section_as_module,
)
from .structure import (
    _frattini_in,
    _is_abelian_in,
    _p_part,
    _quaternion_free_in,
    _valuation,
    frattini,
    hall_complement,
    hypercenter_u,
    hypercenter_up,
    is_q8_section,
    o_p,
    o_p_prime,
    p_rank,
    p_solubility,
    p_supersoluble,
    socle_and_minimal_normals,
    subgroups_in,
    subgroups_of_order_in,
    supersoluble,
    sylow,
    two_maximal_subgroups,
)


@dataclass
class VerdictReport:
    group_name: str
    check_id: str
    p: int | None = None
    d: int | None = None
    hypotheses: dict = field(default_factory=dict)
    hypotheses_hold: bool = True
    conclusion_cases: tuple = ()
    passed: bool = True
    status: str = "pass"  # pass | fail | vacuous | indeterminate
    details: dict = field(default_factory=dict)
    error: str | None = None
    timing_ms: float = 0.0

    def finalize(self, t0: float) -> "VerdictReport":
        self.hypotheses_hold = all(self.hypotheses.values())
        self.passed = (not self.hypotheses_hold) or bool(self.conclusion_cases)
        if not self.hypotheses_hold:
            self.status = "vacuous"
        else:
            self.status = "pass" if self.passed else "fail"
        self.timing_ms = (time.perf_counter() - t0) * 1000.0
        return self

    def record_fields(self) -> list:
        """Stable key:value pairs for the structured output (no timing)."""
        out = [("group", self.group_name), ("check", self.check_id)]
        if self.p is not None:
            out.append(("p", str(self.p)))
        if self.d is not None:
            out.append(("d", str(self.d)))
        for name in sorted(self.hypotheses):
            out.append((f"hyp.{name}", str(self.hypotheses[name]).lower()))
        out.append(("hypotheses_hold", str(self.hypotheses_hold).lower()))
        out.append(("cases", ",".join(self.conclusion_cases) or "-"))
        for name in sorted(self.details):
            out.append((f"detail.{name}", str(self.details[name])))
        if self.error:
            out.append(("error", self.error.replace("\n", " ")))
        out.append(("status", self.status))
        out.append(("pass", str(self.passed).lower()))
        return out


# -- cached quantifier sweeps --------------------------------------------------


def _has_pi(G: Group, P: Subgroup, H: Subgroup, caps: Caps,
            bottom: Subgroup | None = None,
            through: Subgroup | None = None) -> bool:
    """The Pi verdict of a subgroup H of the Sylow subgroup P: in G, of
    HN/N in G/N from ``bottom`` = N, or, for ``through`` = N >= H, whether
    a chief series through N has p-number normaliser indices. Read off P's
    ``pi_family``, or searched for this one H when the family is over a
    cap. Every verifier asks its Pi questions here."""
    family = pi_family(G, P, caps)
    if family is None:
        if through is not None:
            return pi_series_through(G, H, through, _prime_power(P.order),
                                     caps)[0]
        return _pi_verdict(G, H, caps, bottom)
    if through is not None:
        return family.through(H, through)
    return family.pi(H, bottom)


def _has_cap(G: Group, P: Subgroup, H: Subgroup, caps: Caps) -> bool:
    """The partial CAP verdict of a subgroup H of the Sylow subgroup P,
    read off P's ``pi_family``, or searched for this one H when the family
    is over a cap."""
    family = pi_family(G, P, caps)
    if family is None:
        return satisfies_partial_cap(G, H, caps)[0]
    return family.cap(H)


def _complemented(G: Group, P: Subgroup, H: Subgroup, caps: Caps) -> bool:
    """Is the subgroup H of the abelian normal Sylow subgroup P
    complemented in G? Read off P's ``complement_family``. Every verifier
    asks its complement questions here."""
    return complement_family(G, P, caps)[H]


@memo("all_of_order_pi")
def all_of_order_satisfy_pi(G: Group, P: Subgroup, order: int,
                            caps: Caps = DEFAULT_CAPS) -> bool:
    """Does every subgroup of P of the given order satisfy the property?"""
    return all(_has_pi(G, P, H, caps)
               for H in subgroups_of_order_in(G, P, order, caps))


@memo("cyclic_order4_pi")
def cyclic_order4_satisfy_pi(G: Group, P: Subgroup,
                             caps: Caps = DEFAULT_CAPS) -> bool:
    return all(_has_pi(G, P, H, caps)
               for H in subgroups_of_order_in(G, P, 4, caps)
               if int(G.element_orders[H.idx].max()) == 4)  # cyclic C4


def all_of_order_complemented(G: Group, P: Subgroup, order: int,
                              caps: Caps = DEFAULT_CAPS) -> bool:
    """Is every subgroup of the abelian normal Sylow subgroup P of the
    given order complemented in G?"""
    return all(_complemented(G, P, H, caps)
               for H in subgroups_of_order_in(G, P, order, caps))


def _order_d_hypotheses(G: Group, P: Subgroup, d: int, caps: Caps,
                        name: str = "order_d_subgroups_pi") -> dict:
    """The shared hypothesis pair: order-d subgroups, plus the order-4
    cyclic proviso when d = 2 and P is not quaternion-free. Both hold
    trivially when P is trivial."""
    return {
        name: P.order == 1 or all_of_order_satisfy_pi(G, P, d, caps),
        "cyclic_4_subgroups_pi": (
            d != 2 or P.order == 1
            or _quaternion_free_in(G, P, caps)
            or cyclic_order4_satisfy_pi(G, P, caps)),
    }


def _p_rank_above_1(G: Group, p: int) -> bool:
    return p_solubility(G, p)[0] and (p_rank(G, p) or 0) > 1


def _is_cyclic(H: Subgroup) -> bool:
    if H.order == 1:
        return True
    return int(H.ambient.element_orders[H.idx].max()) == H.order


def _is_cyclic_quotient(G: Group, N: Subgroup) -> bool:
    """G/N is cyclic: some g has no power g^k in N for 0 < k < |G : N|."""
    every = np.arange(G.order)
    power, alive = every, np.ones(G.order, dtype=bool)
    for _ in range(G.order // N.order - 1):
        alive &= ~N.mask[power]
        power = G.table[power, every]
    return bool(alive.any())


def _is_elementary_abelian(G: Group, P: Subgroup, p: int) -> bool:
    orders = G.element_orders[P.idx]
    return all(int(o) in (1, p) for o in orders) and _is_abelian_in(G, P)


def _is_p_group(N: Subgroup, p: int) -> bool:
    """N is a nontrivial p-group."""
    return N.order > 1 and _p_part(N.order, p) == N.order


def _splits(G: Group, p: int, caps: Caps):
    """(P = O_p(G) and a Hall p'-complement exists, the complement)."""
    P = sylow(G, p)
    if o_p(G, p).order != P.order:
        return False, None
    H = hall_complement(G, p, caps)
    return (H is not None), H


@memo("section_module")
def _section_module(G, above, below, H, p):
    """above/below as an F_p[H]-module; None if not elementary abelian."""
    try:
        return section_as_module(G, above, below, H, p)
    except NotElementaryAbelian:
        return None


@memo("section_constituents")
def _section_constituents(G, above, below, H, p, caps):
    """(is_homogeneous, constituent dim k, every constituent not absolutely
    irreducible, that is, with End of dimension > 1) for _section_module.
    The End dimensions come from one batch; the constituents of a
    homogeneous module are isomorphic, so there the first one's is all."""
    module = _section_module(G, above, below, H, p)
    if module is None:
        return False, 0, False
    homog, constituents = homogeneous_constituents(module, caps)
    k = constituents[0].dim if constituents else 0
    ends = constituents[:1] if homog else constituents
    not_absirr = bool(constituents) and bool(
        (_hom_dims([(c, c) for c in ends]) > 1).all())
    return homog, k, not_absirr


def _tally(rep: VerdictReport, detail: str, case: str, counts,
           failed) -> None:
    """Record an exhaustive check of a universally quantified statement.

    The instances that meet the statement's premise come in batches (one
    per normal subgroup N, in canonical order, for a statement over (N, H)
    pairs): ``counts[i]`` of them in batch i, and ``failed[i]`` says
    whether the conclusion fails at one of them. The batch that holds the
    first failure is counted to its end, and no later batch counts: one
    argmax over ``failed``, the counts summed up to it. The count goes to
    the detail ``detail``, the hypothesis ``applicable`` says whether any
    instance met the premise, and the conclusion case is ``case`` when
    every instance held.
    """
    counts = np.asarray(counts, dtype=np.int64)
    failed = np.asarray(failed, dtype=bool)
    ok = not failed.any()
    checked = int(counts.sum() if ok else counts[:failed.argmax() + 1].sum())
    rep.hypotheses["applicable"] = checked > 0
    rep.details[detail] = checked
    if checked and ok:
        rep.conclusion_cases = (case,)


def _tally_batches(rep: VerdictReport, detail: str, case: str,
                   batches) -> None:
    """``_tally`` over ``batches``, each an iterable with one bool per
    instance that meets the premise (does the conclusion hold there),
    evaluated in order up to the first batch with a failure."""
    counts, failed = [], []
    for batch in batches:
        held = [bool(h) for h in batch]
        counts.append(len(held))
        failed.append(not all(held))
        if failed[-1]:
            break
    _tally(rep, detail, case, counts, failed)


def _tally_table(rep: VerdictReport, detail: str, case: str, premise,
                 conclusion) -> None:
    """``_tally`` over (node x column) boolean matrices of P's
    ``pi_family``: each node is a batch, and its instances are the
    columns where ``premise`` holds."""
    _tally(rep, detail, case, premise.sum(axis=1),
           (premise & ~conclusion).any(axis=1))


# -- Theorems A, B, C ------------------------------------------------------------


def _theorem_A(G, p, d, caps, rep):
    """Order-p^2 subgroup hypothesis: conclusion P = O_p(G) split over a Hall
    complement, and p-supersoluble / minimal-normal-p^2 / homogeneous
    2-dimensional module cases."""
    P = sylow(G, p)
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    rep.hypotheses["sylow_at_least_p2"] = P.order >= p * p
    rep.hypotheses["order_p2_subgroups_pi"] = (
        P.order >= p * p and all_of_order_satisfy_pi(G, P, p * p, caps))
    if all(rep.hypotheses.values()):
        splits, H = _splits(G, p, caps)
        rep.details["splits"] = splits
        if splits:
            cases = []
            if p_supersoluble(G, p):
                cases.append("1")
            if P.order == p * p and P in minimal_normal_subgroups(G):
                cases.append("2")
            if P.order >= p ** 4 and _is_cyclic(H):
                homog, k, _ = _section_constituents(
                    G, P, G.trivial_subgroup(), H, p, caps)
                if homog and k == 2:
                    cases.append("3")
                    rep.details["constituent_dim"] = k
            rep.details["hall_cyclic"] = _is_cyclic(H)
            rep.conclusion_cases = tuple(cases)


def _theorem_B(G, p, d, caps, rep):
    """2-maximal subgroup hypothesis; five conclusion cases (all matching
    cases are reported, the disjunction being inclusive)."""
    P = sylow(G, p)
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    rep.hypotheses["sylow_at_least_p2"] = P.order >= p * p
    rep.hypotheses["two_maximal_subgroups_pi"] = (
        P.order >= p * p and all(
            _has_pi(G, P, H, caps)
            for H in two_maximal_subgroups(G, P, caps)))
    if all(rep.hypotheses.values()):
        cases = []
        soluble, _ = p_solubility(G, p)
        if p_supersoluble(G, p):
            cases.append("1")
        if (P.order == p * p and o_p(G, p).order == P.order
                and P in minimal_normal_subgroups(G)):
            cases.append("2")
        if P.order == p * p and not soluble:
            cases.append("3")
        if p == 2 and P.order == 8 and is_q8_section(
                G, P.mask, G.trivial_subgroup().mask):
            cases.append("4")
        if P.order >= p ** 3:
            splits, H = _splits(G, p, caps)
            if splits and _is_cyclic(H):
                phi = _frattini_in(G, P, caps)
                two_max = two_maximal_subgroups(G, P, caps)
                inter = np.ones(G.order, dtype=bool) if not two_max else \
                    np.logical_and.reduce([g.mask for g in two_max])
                inter &= P.mask
                phi_is_meet = np.array_equal(np.flatnonzero(inter), phi.idx)
                homog, k, _ = _section_constituents(G, P, phi, H, p, caps)
                rep.details["frattini_is_two_maximal_meet"] = phi_is_meet
                if phi_is_meet and homog and k == 2:
                    cases.append("5")
        rep.conclusion_cases = tuple(cases)


def _theorem_C(G, p, d, caps, rep):
    """Order-d hypothesis with p-rank > 1: split plus the conjunction of
    homogeneity (no absolutely irreducible constituent), the dimension
    divisibility k | gcd(m, n) with n >= k >= 2, and a cyclic complement."""
    P = sylow(G, p)
    if d <= 1 or d >= P.order or _p_part(d, p) != d:
        raise BadParameter(
            f"d = {d} is not a power of {p} with 1 < d < {P.order}")
    rep.hypotheses.update(_order_d_hypotheses(G, P, d, caps))
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    rep.hypotheses["p_rank_above_1"] = _p_rank_above_1(G, p)
    if all(rep.hypotheses.values()):
        splits, H = _splits(G, p, caps)
        phi = _frattini_in(G, P, caps)
        homog, k, not_absirr = _section_constituents(
            G, P, phi, H, p, caps) if splits else (False, 0, False)
        m = _section_module(G, P, phi, H, p).dim if splits else 0
        n = _valuation(d, p) - _valuation(phi.order, p)
        c1 = homog and not_absirr
        c2 = n >= k >= 2 and k > 0 and math.gcd(m, n) % k == 0
        c3 = splits and _is_cyclic(H)
        rep.details.update({"splits": splits, "k": k, "m": m, "n": n,
                            "homogeneous_not_absirr": c1,
                            "dim_divisibility": c2, "hall_cyclic": c3})
        if splits and c1 and c2 and c3:
            rep.conclusion_cases = ("1+2+3",)


# -- lemma verifiers --------------------------------------------------------------


def _lemma_prime_order_supersoluble(G, p, d, caps, rep):
    rep.hypotheses.update(_order_d_hypotheses(
        G, sylow(G, p), p, caps, "order_p_subgroups_pi"))
    if all(rep.hypotheses.values()) and p_supersoluble(G, p):
        rep.conclusion_cases = ("p-supersoluble",)


def _lemma_p_length_one(G, p, d, caps, rep):
    rep.hypotheses.update(_order_d_hypotheses(G, sylow(G, p), d, caps))
    if all(rep.hypotheses.values()):
        soluble, length = p_solubility(G, p)
        rep.details["p_length"] = length if soluble else None
        if soluble and length <= 1:
            rep.conclusion_cases = ("p-soluble-length-1",)


def _lemma_quotient_inheritance(G, p, d, caps, rep):
    """For H <= P and N normal with N <= H or gcd(|H|,|N|) = 1: the property
    passes to HN/N in G/N. H ranges over subgroups of the Sylow p-subgroup:
    the columns of P's ``pi_family``, with N <= H iff |H cap N| = |N|."""
    P = sylow(G, p)
    family = pi_family(G, P, caps)
    if family is not None:
        meet, n = family.meet, family.order[:, None]
        # gcd(|H|, |N|) = 1 for the p-group H: H = 1 or p does not divide |N|
        premise = (((meet == n) | (meet[-1] == 1) | (n % p != 0))
                   & family.co[0])
        proper = (family.order != 1) & (family.order != G.order)
        _tally_table(rep, "pairs_checked", "inherited", premise[proper],
                     family.co[proper])
        return

    def pairs(N):
        for H in subgroups_in(G, P, caps).all:
            if ((H.contains(N) or math.gcd(H.order, N.order) == 1)
                    and _has_pi(G, P, H, caps)):
                yield _has_pi(G, P, H, caps, bottom=N)

    _tally_batches(rep, "pairs_checked", "inherited",
                   (pairs(N) for N in normal_subgroups(G)
                    if N.order not in (1, G.order)))


def _lemma_series_through(G, p, d, caps, rep):
    """Every p-subgroup H of a normal N that has the property admits a chief
    series through N with p-number normalizer indices at every factor.
    H ranges over the subgroups of P cap N, a Sylow subgroup of N; its
    conjugates in G give the same verdicts. They are the columns of P's
    ``pi_family`` with |H cap N| = |H|, or, without the family, the
    lattice of P cap N."""
    P = sylow(G, p)
    family = pi_family(G, P, caps)
    if family is not None:
        premise = (family.meet == family.meet[-1]) & family.co[0]
        keep = family.order % p == 0
        _tally_table(rep, "pairs_checked", "series-found", premise[keep],
                     (family.reach & family.co)[keep])
        return

    def pairs(N):
        below = G.subgroup_from_mask(P.mask & N.mask)
        for H in subgroups_in(G, below, caps).all:
            if _has_pi(G, P, H, caps):
                yield _has_pi(G, P, H, caps, through=N)

    _tally_batches(rep, "pairs_checked", "series-found",
                   (pairs(N) for N in normal_subgroups(G)
                    if N.order % p == 0))


def _lemma_minimal_normal_order(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses["order_d_subgroups_pi"] = all_of_order_satisfy_pi(
        G, P, d, caps)
    if all(rep.hypotheses.values()):
        mins = minimal_normal_subgroups(G)
        bound_ok = all(
            N.order % p != 0 or (_p_part(N.order, p) == N.order
                                 and N.order <= d)
            for N in mins)
        uniform_ok = True
        if any(N.order == d for N in mins):
            uniform_ok = all(
                N.order == d for N in mins
                if _p_part(N.order, p) == N.order)
        rep.details["bound_ok"] = bound_ok
        rep.details["uniform_ok"] = uniform_ok
        if bound_ok and uniform_ok:
            rep.conclusion_cases = ("conclusion",)


def _lemma_cyclic_in_hypercenter(G, p, d, caps, rep):
    """Normal p-subgroups all of whose order-p (and order-4, when not
    quaternion-free) cyclic subgroups lie in Z_U(G) lie in Z_U(G)."""
    z_u = hypercenter_u(G)

    def premise(P0):
        orders = G.element_orders[P0.idx]
        return z_u.mask[P0.idx[orders == p]].all() and (
            p != 2 or _quaternion_free_in(G, P0, caps)
            or z_u.mask[P0.idx[orders == 4]].all())

    _tally_batches(rep, "subgroups_checked", "contained",
                   [(z_u.contains(P0) for P0 in normal_subgroups(G)
                     if _is_p_group(P0, p) and premise(P0))])


def _lemma_frattini_quotient_hypercenter(G, p, d, caps, rep):
    """P/Phi(P) <= Z_U(G/Phi(P)) forces P <= Z_U(G) for normal p-subgroups."""
    def premise(P0):
        return hypercenter_u(G, _frattini_in(G, P0, caps)).contains(P0)

    _tally_batches(rep, "subgroups_checked", "contained",
                   [(hypercenter_u(G).contains(P0)
                     for P0 in normal_subgroups(G)
                     if _is_p_group(P0, p) and premise(P0))])


def _lemma_frattini_factor_hypercenter(G, p, d, caps, rep):
    """E <= Z_{U_p}(G) iff E/Phi(E) <= Z_{U_p}(G/Phi(E)), E normal, p | |E|."""
    def equivalent(E):
        lhs = hypercenter_up(G, p).contains(E)
        return lhs == hypercenter_up(
            G, p, _frattini_in(G, E, caps)).contains(E)

    _tally_batches(rep, "subgroups_checked", "equivalent",
                   [(equivalent(E) for E in normal_subgroups(G)
                     if E.order % p == 0)])


def _lemma_product_transfer(G, p, d, caps, rep):
    """|N| = |K| = p, N minimal normal, NK has the property => K has it."""
    P = sylow(G, p)

    def product(N, K):
        return G.subgroup_from_mask(
            _kernels.product_mask(G.table, N.idx, K.idx))

    _tally_batches(rep, "pairs_checked", "transferred",
                   [(_has_pi(G, P, K, caps)
                     for N in minimal_normal_subgroups(G) if N.order == p
                     for K in subgroups_of_order_in(G, P, p, caps)
                     if _has_pi(G, P, product(N, K), caps))])


def _lemma_minimal_normal_elementary(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses["order_d_subgroups_pi"] = all_of_order_satisfy_pi(
        G, P, d, caps)
    targets = [N for N in minimal_normal_subgroups(G) if N.order % d == 0]
    rep.hypotheses["minimal_normal_with_order_divisible_by_d"] = bool(targets)
    if all(rep.hypotheses.values()):
        if all(N.order == d and _is_elementary_abelian(G, N, p)
               for N in targets):
            rep.conclusion_cases = ("elementary-abelian-of-order-d",)


def _lemma_cap_from_pi(G, p, d, caps, rep):
    """2-maximal subgroups of a normal Sylow subgroup: property => CAP."""
    P = sylow(G, p)
    rep.hypotheses["sylow_normal"] = o_p(G, p).order == P.order
    if rep.hypotheses["sylow_normal"]:
        _tally_batches(rep, "subgroups_checked", "partial-cap",
                       [(_has_cap(G, P, H, caps)
                         for H in two_maximal_subgroups(G, P, caps)
                         if _has_pi(G, P, H, caps))])


def _lemma_pi_iff_complemented(G, p, d, caps, rep):
    """Elementary abelian normal Sylow P: property iff complemented, for
    every subgroup of P (exhaustive)."""
    P = sylow(G, p)
    rep.hypotheses["sylow_normal"] = o_p(G, p).order == P.order
    rep.hypotheses["sylow_elementary_abelian"] = \
        P.order > 1 and _is_elementary_abelian(G, P, p)
    if all(rep.hypotheses.values()):
        subs = subgroups_in(G, P, caps).all
        rep.details["subgroups_checked"] = len(subs)
        if all([_has_pi(G, P, H, caps) == _complemented(G, P, H, caps)
                for H in subs]):
            rep.conclusion_cases = ("equivalent",)


def _lemma_complement_classification(G, p, d, caps, rep):
    """All order-d subgroups of P complemented iff G supersoluble, or the
    module P is homogeneous over a cyclic complement with constituent
    dimension k > 1 dividing gcd(log_p d, log_p |P|)."""
    P = sylow(G, p)
    rep.hypotheses["sylow_normal"] = o_p(G, p).order == P.order
    rep.hypotheses["sylow_elementary_abelian"] = \
        P.order > 1 and _is_elementary_abelian(G, P, p)
    H = hall_complement(G, p, caps) if rep.hypotheses["sylow_normal"] else None
    rep.hypotheses["complement_exists"] = H is not None
    rep.hypotheses["action_faithful"] = (
        H is not None and int((centralizer(G, P).mask & H.mask).sum()) == 1)
    if not all(rep.hypotheses.values()):
        return
    lhs = all_of_order_complemented(G, P, d, caps)
    homog, k, _ = _section_constituents(G, P, G.trivial_subgroup(), H, p, caps)
    branch2 = (_is_cyclic(H) and homog and k > 1
               and math.gcd(_valuation(d, p), _valuation(P.order, p)) % k == 0)
    rhs = supersoluble(G) or branch2
    rep.details.update({"all_complemented": lhs, "supersoluble": supersoluble(G),
                        "cyclic_homogeneous_branch": branch2, "k": k})
    if lhs == rhs:
        rep.conclusion_cases = ("biconditional",)


def _lemma_cyclic_module(G, p, d, caps, rep):
    """Faithful irreducible prime-dimension module of a p'-complement:
    complement cyclic iff the module is not absolutely irreducible."""
    P = sylow(G, p)
    rep.hypotheses["sylow_normal_elementary_abelian"] = (
        o_p(G, p).order == P.order and P.order > 1
        and _is_elementary_abelian(G, P, p))
    H = hall_complement(G, p, caps) \
        if rep.hypotheses["sylow_normal_elementary_abelian"] else None
    rep.hypotheses["complement_exists"] = H is not None
    rep.hypotheses["action_faithful"] = (
        H is not None and int((centralizer(G, P).mask & H.mask).sum()) == 1)
    module = _section_module(G, P, G.trivial_subgroup(), H, p) \
        if rep.hypotheses["action_faithful"] else None
    rep.hypotheses["module_irreducible"] = (
        module is not None and is_irreducible(module))
    rep.hypotheses["dimension_prime"] = (
        module is not None and _is_prime(module.dim))
    if all(rep.hypotheses.values()):
        if _cyclicity_criterion(H, module):
            rep.conclusion_cases = ("criterion-holds",)


def _lemma_socle_homogeneous(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses["d_at_least_p2"] = d >= p * p
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    rep.hypotheses["order_d_subgroups_pi"] = all_of_order_satisfy_pi(
        G, P, d, caps)
    mins = minimal_normal_subgroups(G)
    rep.hypotheses["minimal_normal_of_order_d"] = any(
        N.order == d for N in mins)
    if all(rep.hypotheses.values()):
        soc, _ = socle_and_minimal_normals(G)
        quotient_cyclic = _is_cyclic_quotient(G, soc)
        phi_trivial = frattini(G, caps).order == 1
        socle_is_sylow = soc.order == P.order and P.contains(soc)
        homog, _, _ = _section_constituents(
            G, soc, G.trivial_subgroup(), G.as_subgroup(), p, caps)
        rep.details.update({
            "quotient_cyclic": quotient_cyclic, "frattini_trivial": phi_trivial,
            "socle_is_sylow": socle_is_sylow, "homogeneous": homog})
        if quotient_cyclic and phi_trivial and socle_is_sylow and homog:
            rep.conclusion_cases = ("socle-homogeneous",)


def _lemma_order_bound(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses.update(_order_d_hypotheses(G, P, d, caps))
    rep.hypotheses["p_rank_above_1"] = _p_rank_above_1(G, p)
    if all(rep.hypotheses.values()):
        phi = _frattini_in(G, P, caps)
        rep.details["frattini_order"] = phi.order
        if d >= p * p * phi.order:
            rep.conclusion_cases = ("bound-holds",)


def _lemma_module_dimension(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses.update(_order_d_hypotheses(G, P, d, caps))
    splits, H = _splits(G, p, caps)
    rep.hypotheses["splits_over_hall"] = splits
    rep.hypotheses["sylow_elementary_abelian"] = \
        P.order > 1 and _is_elementary_abelian(G, P, p)
    rep.hypotheses["p_rank_above_1"] = _p_rank_above_1(G, p)
    if all(rep.hypotheses.values()):
        homog, k, not_absirr = _section_constituents(
            G, P, G.trivial_subgroup(), H, p, caps)
        div = math.gcd(_valuation(d, p), _valuation(P.order, p)) % max(k, 1) == 0
        rep.details.update({"homogeneous": homog, "k": k,
                            "not_absolutely_irreducible": not_absirr,
                            "dim_divides": div})
        if homog and k > 1 and div and not_absirr:
            rep.conclusion_cases = ("1+2",)


def _lemma_frattini_in_two_maximal(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses["p_soluble"] = p_solubility(G, p)[0]
    rep.hypotheses["p_rank_above_1"] = _p_rank_above_1(G, p)
    rep.hypotheses["sylow_at_least_p2"] = P.order >= p * p
    two_max = two_maximal_subgroups(G, P, caps) if P.order >= p * p else []
    rep.hypotheses["two_maximal_subgroups_pi"] = bool(two_max) and all(
        _has_pi(G, P, H, caps) for H in two_max)
    if all(rep.hypotheses.values()):
        phi = _frattini_in(G, P, caps)
        if all(Q.contains(phi) for Q in two_max):
            rep.conclusion_cases = ("contained",)


# -- the check table ----------------------------------------------------------------

# Every check: id -> (verifier, parameter grid), in report order. Grid "p"
# takes one instance per prime; the others range d over the powers of p
# that ``_admissible_d`` admits.
CHECKS = {
    "A": (_theorem_A, "p"),
    "B": (_theorem_B, "p"),
    "C": (_theorem_C, "pd"),
    "lemma:cap-from-pi": (_lemma_cap_from_pi, "p"),
    "lemma:complement-classification": (_lemma_complement_classification, "pd"),
    "lemma:cyclic-iff-not-absolutely-irreducible": (_lemma_cyclic_module, "p"),
    "lemma:cyclic-in-hypercenter": (_lemma_cyclic_in_hypercenter, "p"),
    "lemma:frattini-factor-hypercenter": (_lemma_frattini_factor_hypercenter, "p"),
    "lemma:frattini-in-two-maximal": (_lemma_frattini_in_two_maximal, "p"),
    "lemma:frattini-quotient-hypercenter": (_lemma_frattini_quotient_hypercenter, "p"),
    "lemma:minimal-normal-elementary": (_lemma_minimal_normal_elementary, "pd_wide"),
    "lemma:minimal-normal-order": (_lemma_minimal_normal_order, "pd"),
    "lemma:module-dimension": (_lemma_module_dimension, "pd"),
    "lemma:order-bound": (_lemma_order_bound, "pd"),
    "lemma:p-length-one": (_lemma_p_length_one, "pd"),
    "lemma:pi-iff-complemented": (_lemma_pi_iff_complemented, "p"),
    "lemma:prime-order-supersoluble": (_lemma_prime_order_supersoluble, "p"),
    "lemma:product-transfer": (_lemma_product_transfer, "p"),
    "lemma:quotient-inheritance": (_lemma_quotient_inheritance, "p"),
    "lemma:series-through": (_lemma_series_through, "p"),
    "lemma:socle-homogeneous": (_lemma_socle_homogeneous, "pd_socle"),
}

LEMMA_IDS = tuple(c[len("lemma:"):] for c in CHECKS if c.startswith("lemma:"))


def _check(G: Group, check_id: str, params, caps: Caps,
           group_name) -> VerdictReport:
    """Build, time and finalise the report of one check from the table."""
    if check_id not in CHECKS:
        raise UnknownLemma(f"unknown check {check_id!r}")
    verifier, grid = CHECKS[check_id]
    p, d = params.get("p"), params.get("d")
    if p is None:
        raise BadParameter(f"check {check_id} needs a prime p")
    if d is None and grid != "p":
        raise BadParameter(f"check {check_id} needs an order parameter d")
    t0 = time.perf_counter()
    rep = VerdictReport(group_name or G.name or "?", check_id, p=p, d=d)
    verifier(G, p, d, caps, rep)
    return rep.finalize(t0)


def check_theorem_A(G: Group, p: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """Theorem A (order-p^2 subgroups have the property) on G at p."""
    return _check(G, "A", {"p": p}, caps, group_name)


def check_theorem_B(G: Group, p: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """Theorem B (2-maximal subgroups have the property) on G at p."""
    return _check(G, "B", {"p": p}, caps, group_name)


def check_theorem_C(G: Group, p: int, d: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """Theorem C (order-d subgroups have the property) on G at p and d."""
    return _check(G, "C", {"p": p, "d": d}, caps, group_name)


def check_lemma(G: Group, lemma_id: str, params=None,
                caps: Caps = DEFAULT_CAPS, group_name=None) -> VerdictReport:
    return _check(G, f"lemma:{lemma_id}", params or {}, caps, group_name)


# -- corpus runner -----------------------------------------------------------------


def _admissible_d(P_order: int, p: int, mode: str) -> list:
    out = []
    d = p
    while d <= P_order:
        if mode == "pd" and 1 < d < P_order:
            out.append(d)
        elif mode == "pd_wide" and p <= d <= P_order:
            out.append(d)
        elif mode == "pd_socle" and p * p <= d < P_order:
            out.append(d)
        d *= p
    return out


def default_checks(G: Group, p_filter=None, d_filter=None,
                   theorem_filter=None):
    """Deterministic (check_id, params) instances for one group: for each
    prime, every check of the table in table order, on its grid."""
    out = []
    for p in _prime_factors(G.order):
        if p_filter and p not in p_filter:
            continue
        P_order = _p_part(G.order, p)
        for check_id, (_, grid) in CHECKS.items():
            if theorem_filter is not None and check_id not in theorem_filter:
                continue
            if grid == "p":
                out.append((check_id, {"p": p}))
            else:
                out.extend((check_id, {"p": p, "d": d})
                           for d in _admissible_d(P_order, p, grid)
                           if not d_filter or d in d_filter)
    return out


def run_check(G: Group, check_id: str, params, caps: Caps = DEFAULT_CAPS,
              group_name=None) -> VerdictReport:
    t0 = time.perf_counter()
    try:
        return _check(G, check_id, params, caps, group_name)
    except CapExceeded as exc:
        rep = VerdictReport(group_name or G.name or "?", check_id,
                            p=params.get("p"), d=params.get("d"))
        rep.error = f"{type(exc).__name__}: {exc}"
        rep.status = "indeterminate"
        rep.passed = False
        rep.timing_ms = (time.perf_counter() - t0) * 1000.0
        return rep


def run_corpus(corpus, caps: Caps = DEFAULT_CAPS, p_filter=None,
               d_filter=None, theorem_filter=None) -> list:
    """Run the admissible checks of every corpus entry (``default_checks``);
    report order is corpus order.

    Reports with status "fail" mean the statement failed on an instance (or
    the engine is wrong); "indeterminate" marks cap violations.
    """
    reports = []
    for name, G in corpus:
        reports.extend(run_check(G, check_id, params, caps, name)
                       for check_id, params in default_checks(
                           G, p_filter, d_filter, theorem_filter))
    return reports
