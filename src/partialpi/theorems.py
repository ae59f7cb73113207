"""Executable verifiers for the structure theorems and supporting lemmas.

Each verifier evaluates its hypotheses on the given group (never assumes
them), then checks the conclusion cases. A report passes when hypotheses
fail (vacuous) or some conclusion case holds; conjunctive conclusions are
recorded as a single joint case so that pass == vacuous-or-nonempty-cases
holds exactly. Cap violations surface as status "indeterminate", a third
verdict state distinct from pass/fail.

Universally quantified lemma statements ("for every subgroup of order d...")
expand to exhaustive checks over the relevant subgroup lists; the expensive
quantifier sweeps are cached per group so theorem and lemma verifiers share
work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chiefs import _prime_factors, minimal_normal_subgroups, normal_subgroups
from .config import Caps, DEFAULT_CAPS
from .embedding import (
    is_complemented,
    pi_series_through,
    satisfies_partial_cap,
    satisfies_partial_pi,
)
from .errors import BadParameter, CapExceeded, NotElementaryAbelian, UnknownLemma
from .groups import (
    Group,
    Subgroup,
    centralizer,
    dicyclic,
    is_isomorphic,
    memo,
    quotient,
)
from .modrep import (
    cyclicity_criterion_check,
    is_absolutely_irreducible,
    is_homogeneous,
    is_irreducible,
    minimal_submodules,
    restrict_to_submodule,
    section_as_module,
)
from .structure import (
    _p_part,
    frattini,
    hall_complement,
    hypercenter_u,
    hypercenter_up,
    is_quaternion_free,
    o_p,
    o_p_prime,
    p_rank,
    p_solubility,
    p_supersoluble,
    socle_and_minimal_normals,
    subgroup_as_group,
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


@memo("all_of_order_pi")
def all_of_order_satisfy_pi(G: Group, P: Subgroup, order: int,
                            caps: Caps = DEFAULT_CAPS) -> bool:
    """Does every subgroup of P of the given order satisfy the property?"""
    return all(satisfies_partial_pi(G, H, caps)[0]
               for H in subgroups_of_order_in(G, P, order, caps))


@memo("cyclic_order4_pi")
def cyclic_order4_satisfy_pi(G: Group, P: Subgroup,
                             caps: Caps = DEFAULT_CAPS) -> bool:
    return all(satisfies_partial_pi(G, H, caps)[0]
               for H in subgroups_of_order_in(G, P, 4, caps)
               if int(G.element_orders[H.idx].max()) == 4)  # cyclic C4


@memo("all_of_order_complemented")
def all_of_order_complemented(G: Group, P: Subgroup, order: int,
                              caps: Caps = DEFAULT_CAPS) -> bool:
    return all(is_complemented(G, H, caps)[0]
               for H in subgroups_of_order_in(G, P, order, caps))


def _order_d_hypotheses(G: Group, P: Subgroup, p: int, d: int,
                        caps: Caps) -> dict:
    """The shared hypothesis pair: order-d subgroups, plus the order-4
    cyclic proviso when d = 2 and P is not quaternion-free."""
    hyp = {"order_d_subgroups_pi": all_of_order_satisfy_pi(G, P, d, caps)}
    if d == 2 and not is_quaternion_free(subgroup_as_group(G, P), caps):
        hyp["cyclic_4_subgroups_pi"] = cyclic_order4_satisfy_pi(G, P, caps)
    else:
        hyp["cyclic_4_subgroups_pi"] = True
    return hyp


def _is_cyclic(H: Subgroup) -> bool:
    if H.order == 1:
        return True
    return int(H.ambient.element_orders[H.idx].max()) == H.order


def _is_elementary_abelian(G: Group, P: Subgroup, p: int) -> bool:
    orders = G.element_orders[P.idx]
    if not all(int(o) in (1, p) for o in orders):
        return False
    return centralizer(G, P).contains(P)


def _splits(G: Group, p: int, caps: Caps):
    """(P = O_p(G) and a Hall p'-complement exists, the complement)."""
    P = sylow(G, p)
    if o_p(G, p).order != P.order:
        return False, None
    H = hall_complement(G, p, caps)
    return (H is not None), H


def _minimal_normal_mask_set(G: Group) -> set:
    return {N.idx.tobytes() for N in minimal_normal_subgroups(G)}


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def _section_module(G, above, below, H, p):
    try:
        return section_as_module(G, above, below, H, p)
    except NotElementaryAbelian:
        return None


def _homogeneous_with_dims(module, caps):
    """(is_homogeneous, constituent dim, constituents all not abs irr)."""
    if module is None or module.dim == 0:
        return False, 0, False
    mins = minimal_submodules(module, caps)
    homog = is_homogeneous(module, caps)
    k = mins[0].shape[0] if mins else 0
    not_absirr = all(
        not is_absolutely_irreducible(restrict_to_submodule(module, b))
        for b in mins) if mins else False
    return homog, k, not_absirr


# -- Theorems A, B, C ------------------------------------------------------------


def check_theorem_A(G: Group, p: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """Order-p^2 subgroup hypothesis: conclusion P = O_p(G) split over a Hall
    complement, and p-supersoluble / minimal-normal-p^2 / homogeneous
    2-dimensional module cases."""
    t0 = time.perf_counter()
    rep = VerdictReport(group_name or G.name or "?", "A", p=p)
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
            if (P.order == p * p
                    and P.idx.tobytes() in _minimal_normal_mask_set(G)):
                cases.append("2")
            if P.order >= p ** 4 and _is_cyclic(H):
                module = _section_module(G, P, G.trivial_subgroup(), H, p)
                homog, k, _ = _homogeneous_with_dims(module, caps)
                if homog and k == 2:
                    cases.append("3")
                    rep.details["constituent_dim"] = k
            rep.details["hall_cyclic"] = _is_cyclic(H)
            rep.conclusion_cases = tuple(cases)
    return rep.finalize(t0)


def check_theorem_B(G: Group, p: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """2-maximal subgroup hypothesis; five conclusion cases (all matching
    cases are reported, the disjunction being inclusive)."""
    t0 = time.perf_counter()
    rep = VerdictReport(group_name or G.name or "?", "B", p=p)
    P = sylow(G, p)
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    rep.hypotheses["sylow_at_least_p2"] = P.order >= p * p
    rep.hypotheses["two_maximal_subgroups_pi"] = (
        P.order >= p * p and all(
            satisfies_partial_pi(G, H, caps)[0]
            for H in two_maximal_subgroups(G, P, caps)))
    if all(rep.hypotheses.values()):
        cases = []
        soluble, _ = p_solubility(G, p)
        if p_supersoluble(G, p):
            cases.append("1")
        if (P.order == p * p and o_p(G, p).order == P.order
                and P.idx.tobytes() in _minimal_normal_mask_set(G)):
            cases.append("2")
        if P.order == p * p and not soluble:
            cases.append("3")
        if p == 2 and P.order == 8 and is_isomorphic(
                subgroup_as_group(G, P), dicyclic(8), caps):
            cases.append("4")
        if P.order >= p ** 3:
            splits, H = _splits(G, p, caps)
            if splits and _is_cyclic(H):
                p_grp = subgroup_as_group(G, P)
                phi = G.subgroup(P.idx[frattini(p_grp, caps).idx])
                two_max = two_maximal_subgroups(G, P, caps)
                inter = np.ones(G.order, dtype=bool) if not two_max else \
                    np.logical_and.reduce([g.mask for g in two_max])
                inter &= P.mask
                phi_is_meet = np.array_equal(np.flatnonzero(inter), phi.idx)
                module = _section_module(G, P, phi, H, p)
                homog, k, _ = _homogeneous_with_dims(module, caps)
                rep.details["frattini_is_two_maximal_meet"] = phi_is_meet
                if phi_is_meet and homog and k == 2:
                    cases.append("5")
        rep.conclusion_cases = tuple(cases)
    return rep.finalize(t0)


def check_theorem_C(G: Group, p: int, d: int, caps: Caps = DEFAULT_CAPS,
                    group_name=None) -> VerdictReport:
    """Order-d hypothesis with p-rank > 1: split plus the conjunction of
    homogeneity (no absolutely irreducible constituent), the dimension
    divisibility k | gcd(m, n) with n >= k >= 2, and a cyclic complement."""
    t0 = time.perf_counter()
    rep = VerdictReport(group_name or G.name or "?", "C", p=p, d=d)
    P = sylow(G, p)
    if d <= 1 or d >= P.order or _p_part(d, p) != d:
        raise BadParameter(
            f"d = {d} is not a power of {p} with 1 < d < {P.order}")
    rep.hypotheses.update(_order_d_hypotheses(G, P, p, d, caps))
    rep.hypotheses["o_p_prime_trivial"] = o_p_prime(G, p).order == 1
    soluble, _ = p_solubility(G, p)
    rank = p_rank(G, p) if soluble else None
    rep.hypotheses["p_rank_above_1"] = soluble and rank is not None and rank > 1
    if all(rep.hypotheses.values()):
        splits, H = _splits(G, p, caps)
        p_grp = subgroup_as_group(G, P)
        phi = G.subgroup(P.idx[frattini(p_grp, caps).idx])
        module = _section_module(G, P, phi, H, p) if splits else None
        homog, k, not_absirr = _homogeneous_with_dims(module, caps)
        n = _valuation(d, p) - _valuation(phi.order, p)
        m = module.dim if module is not None else 0
        c1 = homog and not_absirr
        c2 = n >= k >= 2 and k > 0 and math.gcd(m, n) % k == 0
        c3 = splits and _is_cyclic(H)
        rep.details.update({"splits": splits, "k": k, "m": m, "n": n,
                            "homogeneous_not_absirr": c1,
                            "dim_divisibility": c2, "hall_cyclic": c3})
        if splits and c1 and c2 and c3:
            rep.conclusion_cases = ("1+2+3",)
    return rep.finalize(t0)


# -- lemma verifiers --------------------------------------------------------------


def _lemma_prime_order_supersoluble(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses["order_p_subgroups_pi"] = (
        P.order == 1 or all_of_order_satisfy_pi(G, P, p, caps))
    if p == 2 and P.order > 1 and not is_quaternion_free(
            subgroup_as_group(G, P), caps):
        rep.hypotheses["cyclic_4_subgroups_pi"] = \
            cyclic_order4_satisfy_pi(G, P, caps)
    else:
        rep.hypotheses["cyclic_4_subgroups_pi"] = True
    if all(rep.hypotheses.values()) and p_supersoluble(G, p):
        rep.conclusion_cases = ("p-supersoluble",)


def _lemma_p_length_one(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses.update(_order_d_hypotheses(G, P, p, d, caps))
    if all(rep.hypotheses.values()):
        soluble, length = p_solubility(G, p)
        rep.details["p_length"] = length if soluble else None
        if soluble and length <= 1:
            rep.conclusion_cases = ("p-soluble-length-1",)


def _lemma_quotient_inheritance(G, p, d, caps, rep):
    """For H <= P and N normal with N <= H or gcd(|H|,|N|) = 1: the property
    passes to HN/N in G/N. H ranges over subgroups of the Sylow p-subgroup."""
    P = sylow(G, p)
    pairs = 0
    ok = True
    for N in normal_subgroups(G):
        if N.order in (1, G.order):
            continue
        for order in sorted({s for s in range(1, P.order + 1)
                             if P.order % s == 0}):
            for H in subgroups_of_order_in(G, P, order, caps):
                if not (H.contains(N) or math.gcd(H.order, N.order) == 1):
                    continue
                if not satisfies_partial_pi(G, H, caps)[0]:
                    continue
                pairs += 1
                q = quotient(G, N)
                image = q.push_subgroup(H)
                if not satisfies_partial_pi(q.target, image, caps)[0]:
                    ok = False
        if not ok:
            break
    rep.hypotheses["applicable"] = pairs > 0
    rep.details["pairs_checked"] = pairs
    if pairs and ok:
        rep.conclusion_cases = ("inherited",)


def _lemma_series_through(G, p, d, caps, rep):
    """Every p-subgroup H of a normal N that has the property admits a chief
    series through N with p-number normalizer indices at every factor."""
    pairs = 0
    ok = True
    for N in normal_subgroups(G):
        if N.order % p:
            continue
        n_grp = subgroup_as_group(G, N)
        syl_small = sylow(n_grp, p)
        syl = G.subgroup(N.idx[syl_small.idx])
        for order in sorted({s for s in range(1, syl.order + 1)
                             if syl.order % s == 0}):
            for H in subgroups_of_order_in(G, syl, order, caps):
                if not satisfies_partial_pi(G, H, caps)[0]:
                    continue
                pairs += 1
                if not pi_series_through(G, H, N, p, caps)[0]:
                    ok = False
        if not ok:
            break
    rep.hypotheses["applicable"] = pairs > 0
    rep.details["pairs_checked"] = pairs
    if pairs and ok:
        rep.conclusion_cases = ("series-found",)


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
    checked = 0
    ok = True
    for P0 in normal_subgroups(G):
        if P0.order == 1 or _p_part(P0.order, p) != P0.order:
            continue
        orders = G.element_orders[P0.idx]
        premise = all(z_u.mask[int(i)] for i, o in zip(P0.idx, orders)
                      if int(o) == p)
        if premise and p == 2 and not is_quaternion_free(
                subgroup_as_group(G, P0), caps):
            premise = all(z_u.mask[int(i)] for i, o in zip(P0.idx, orders)
                          if int(o) == 4)
        if not premise:
            continue
        checked += 1
        if not z_u.contains(P0):
            ok = False
    rep.hypotheses["applicable"] = checked > 0
    rep.details["subgroups_checked"] = checked
    if checked and ok:
        rep.conclusion_cases = ("contained",)


def _lemma_frattini_quotient_hypercenter(G, p, d, caps, rep):
    """P/Phi(P) <= Z_U(G/Phi(P)) forces P <= Z_U(G) for normal p-subgroups."""
    checked = 0
    ok = True
    for P0 in normal_subgroups(G):
        if P0.order == 1 or _p_part(P0.order, p) != P0.order:
            continue
        phi = G.subgroup(P0.idx[frattini(subgroup_as_group(G, P0), caps).idx])
        q = quotient(G, phi)
        if not hypercenter_u(q.target).contains(q.push_subgroup(P0)):
            continue
        checked += 1
        if not hypercenter_u(G).contains(P0):
            ok = False
    rep.hypotheses["applicable"] = checked > 0
    rep.details["subgroups_checked"] = checked
    if checked and ok:
        rep.conclusion_cases = ("contained",)


def _lemma_frattini_factor_hypercenter(G, p, d, caps, rep):
    """E <= Z_{U_p}(G) iff E/Phi(E) <= Z_{U_p}(G/Phi(E)), E normal, p | |E|."""
    checked = 0
    ok = True
    for E in normal_subgroups(G):
        if E.order % p:
            continue
        checked += 1
        lhs = hypercenter_up(G, p).contains(E)
        phi = G.subgroup(E.idx[frattini(subgroup_as_group(G, E), caps).idx])
        q = quotient(G, phi)
        rhs = hypercenter_up(q.target, p).contains(q.push_subgroup(E))
        if lhs != rhs:
            ok = False
    rep.hypotheses["applicable"] = checked > 0
    rep.details["subgroups_checked"] = checked
    if checked and ok:
        rep.conclusion_cases = ("equivalent",)


def _lemma_product_transfer(G, p, d, caps, rep):
    """|N| = |K| = p, N minimal normal, NK has the property => K has it."""
    P = sylow(G, p)
    mins = [N for N in minimal_normal_subgroups(G) if N.order == p]
    checked = 0
    ok = True
    for N in mins:
        for K in subgroups_of_order_in(G, P, p, caps):
            prod_mask = np.zeros(G.order, dtype=bool)
            prod_mask[G.table[np.ix_(N.idx, K.idx)].ravel()] = True
            NK = G.subgroup_from_mask(prod_mask)
            if not satisfies_partial_pi(G, NK, caps)[0]:
                continue
            checked += 1
            if not satisfies_partial_pi(G, K, caps)[0]:
                ok = False
    rep.hypotheses["applicable"] = checked > 0
    rep.details["pairs_checked"] = checked
    if checked and ok:
        rep.conclusion_cases = ("transferred",)


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
    if not rep.hypotheses["sylow_normal"]:
        return
    checked = 0
    ok = True
    for H in two_maximal_subgroups(G, P, caps):
        if not satisfies_partial_pi(G, H, caps)[0]:
            continue
        checked += 1
        if not satisfies_partial_cap(G, H, caps)[0]:
            ok = False
    rep.hypotheses["applicable"] = checked > 0
    rep.details["subgroups_checked"] = checked
    if checked and ok:
        rep.conclusion_cases = ("partial-cap",)


def _lemma_pi_iff_complemented(G, p, d, caps, rep):
    """Elementary abelian normal Sylow P: property iff complemented, for
    every subgroup of P (exhaustive)."""
    P = sylow(G, p)
    rep.hypotheses["sylow_normal"] = o_p(G, p).order == P.order
    rep.hypotheses["sylow_elementary_abelian"] = \
        P.order > 1 and _is_elementary_abelian(G, P, p)
    if all(rep.hypotheses.values()):
        count = 0
        ok = True
        for order in sorted({s for s in range(1, P.order + 1)
                             if P.order % s == 0}):
            for H in subgroups_of_order_in(G, P, order, caps):
                count += 1
                if satisfies_partial_pi(G, H, caps)[0] != \
                        is_complemented(G, H, caps)[0]:
                    ok = False
        rep.details["subgroups_checked"] = count
        if ok:
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
    module = _section_module(G, P, G.trivial_subgroup(), H, p)
    homog, k, _ = _homogeneous_with_dims(module, caps)
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
    module = None
    if rep.hypotheses["action_faithful"]:
        module = _section_module(G, P, G.trivial_subgroup(), H, p)
        rep.hypotheses["module_irreducible"] = (
            module is not None and is_irreducible(module))
        primes = _prime_factors(module.dim) if module is not None else []
        rep.hypotheses["dimension_prime"] = (
            module is not None and len(primes) == 1
            and module.dim == primes[0])
    else:
        rep.hypotheses["module_irreducible"] = False
        rep.hypotheses["dimension_prime"] = False
    if all(rep.hypotheses.values()):
        if cyclicity_criterion_check(H, module):
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
        q = quotient(G, soc)
        quotient_cyclic = _is_cyclic(q.target.as_subgroup())
        phi_trivial = frattini(G, caps).order == 1
        socle_is_sylow = soc.order == P.order and P.contains(soc)
        module = _section_module(G, soc, G.trivial_subgroup(),
                                 G.as_subgroup(), p)
        homog = module is not None and is_homogeneous(module, caps)
        rep.details.update({
            "quotient_cyclic": quotient_cyclic, "frattini_trivial": phi_trivial,
            "socle_is_sylow": socle_is_sylow, "homogeneous": homog})
        if quotient_cyclic and phi_trivial and socle_is_sylow and homog:
            rep.conclusion_cases = ("socle-homogeneous",)


def _lemma_order_bound(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses.update(_order_d_hypotheses(G, P, p, d, caps))
    soluble, _ = p_solubility(G, p)
    rank = p_rank(G, p) if soluble else None
    rep.hypotheses["p_rank_above_1"] = soluble and rank is not None and rank > 1
    if all(rep.hypotheses.values()):
        phi = frattini(subgroup_as_group(G, P), caps)
        rep.details["frattini_order"] = phi.order
        if d >= p * p * phi.order:
            rep.conclusion_cases = ("bound-holds",)


def _lemma_module_dimension(G, p, d, caps, rep):
    P = sylow(G, p)
    rep.hypotheses.update(_order_d_hypotheses(G, P, p, d, caps))
    splits, H = _splits(G, p, caps)
    rep.hypotheses["splits_over_hall"] = splits
    rep.hypotheses["sylow_elementary_abelian"] = \
        P.order > 1 and _is_elementary_abelian(G, P, p)
    soluble, _ = p_solubility(G, p)
    rank = p_rank(G, p) if soluble else None
    rep.hypotheses["p_rank_above_1"] = soluble and rank is not None and rank > 1
    if all(rep.hypotheses.values()):
        module = _section_module(G, P, G.trivial_subgroup(), H, p)
        homog, k, not_absirr = _homogeneous_with_dims(module, caps)
        div = math.gcd(_valuation(d, p), _valuation(P.order, p)) % max(k, 1) == 0
        rep.details.update({"homogeneous": homog, "k": k,
                            "not_absolutely_irreducible": not_absirr,
                            "dim_divides": div})
        if homog and k > 1 and div and not_absirr:
            rep.conclusion_cases = ("1+2",)


def _lemma_frattini_in_two_maximal(G, p, d, caps, rep):
    P = sylow(G, p)
    soluble, _ = p_solubility(G, p)
    rank = p_rank(G, p) if soluble else None
    rep.hypotheses["p_soluble"] = soluble
    rep.hypotheses["p_rank_above_1"] = soluble and rank is not None and rank > 1
    rep.hypotheses["sylow_at_least_p2"] = P.order >= p * p
    two_max = two_maximal_subgroups(G, P, caps) if P.order >= p * p else []
    rep.hypotheses["two_maximal_subgroups_pi"] = bool(two_max) and all(
        satisfies_partial_pi(G, H, caps)[0] for H in two_max)
    if all(rep.hypotheses.values()):
        phi = G.subgroup(P.idx[frattini(subgroup_as_group(G, P), caps).idx])
        if all(Q.contains(phi) for Q in two_max):
            rep.conclusion_cases = ("contained",)


_LEMMAS = {
    "prime-order-supersoluble": (_lemma_prime_order_supersoluble, "p"),
    "p-length-one": (_lemma_p_length_one, "pd"),
    "quotient-inheritance": (_lemma_quotient_inheritance, "p"),
    "series-through": (_lemma_series_through, "p"),
    "minimal-normal-order": (_lemma_minimal_normal_order, "pd"),
    "cyclic-in-hypercenter": (_lemma_cyclic_in_hypercenter, "p"),
    "frattini-quotient-hypercenter": (_lemma_frattini_quotient_hypercenter, "p"),
    "frattini-factor-hypercenter": (_lemma_frattini_factor_hypercenter, "p"),
    "product-transfer": (_lemma_product_transfer, "p"),
    "minimal-normal-elementary": (_lemma_minimal_normal_elementary, "pd_wide"),
    "cap-from-pi": (_lemma_cap_from_pi, "p"),
    "pi-iff-complemented": (_lemma_pi_iff_complemented, "p"),
    "complement-classification": (_lemma_complement_classification, "pd"),
    "cyclic-iff-not-absolutely-irreducible": (_lemma_cyclic_module, "p"),
    "socle-homogeneous": (_lemma_socle_homogeneous, "pd_socle"),
    "order-bound": (_lemma_order_bound, "pd"),
    "module-dimension": (_lemma_module_dimension, "pd"),
    "frattini-in-two-maximal": (_lemma_frattini_in_two_maximal, "p"),
}

LEMMA_IDS = tuple(sorted(_LEMMAS))


def check_lemma(G: Group, lemma_id: str, params=None,
                caps: Caps = DEFAULT_CAPS, group_name=None) -> VerdictReport:
    if lemma_id not in _LEMMAS:
        raise UnknownLemma(f"no lemma verifier named {lemma_id!r}")
    params = params or {}
    p = params.get("p")
    d = params.get("d")
    if p is None:
        raise BadParameter("lemma checks need a prime p")
    t0 = time.perf_counter()
    rep = VerdictReport(group_name or G.name or "?", f"lemma:{lemma_id}",
                        p=p, d=d)
    _LEMMAS[lemma_id][0](G, p, d, caps, rep)
    return rep.finalize(t0)


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
    """Deterministic (check_id, params) instances for one group."""
    primes = _prime_factors(G.order)
    out = []
    for p in primes:
        if p_filter and p not in p_filter:
            continue
        P_order = _p_part(G.order, p)
        if theorem_filter is None or "A" in theorem_filter:
            out.append(("A", {"p": p}))
        if theorem_filter is None or "B" in theorem_filter:
            out.append(("B", {"p": p}))
        if theorem_filter is None or "C" in theorem_filter:
            for d in _admissible_d(P_order, p, "pd"):
                if d_filter and d not in d_filter:
                    continue
                out.append(("C", {"p": p, "d": d}))
        for lemma_id, (_, mode) in sorted(_LEMMAS.items()):
            lid = f"lemma:{lemma_id}"
            if theorem_filter is not None and lid not in theorem_filter:
                continue
            if mode == "p":
                out.append((lid, {"p": p}))
            else:
                for d in _admissible_d(P_order, p, mode):
                    if d_filter and d not in d_filter:
                        continue
                    out.append((lid, {"p": p, "d": d}))
    return out


def run_check(G: Group, check_id: str, params, caps: Caps = DEFAULT_CAPS,
              group_name=None) -> VerdictReport:
    t0 = time.perf_counter()
    try:
        if check_id == "A":
            return check_theorem_A(G, params["p"], caps, group_name)
        if check_id == "B":
            return check_theorem_B(G, params["p"], caps, group_name)
        if check_id == "C":
            return check_theorem_C(G, params["p"], params["d"], caps,
                                   group_name)
        if check_id.startswith("lemma:"):
            return check_lemma(G, check_id[len("lemma:"):], params, caps,
                               group_name)
        raise UnknownLemma(f"unknown check {check_id!r}")
    except CapExceeded as exc:
        rep = VerdictReport(group_name or G.name or "?", check_id,
                            p=params.get("p"), d=params.get("d"))
        rep.error = f"{type(exc).__name__}: {exc}"
        rep.status = "indeterminate"
        rep.passed = False
        rep.timing_ms = (time.perf_counter() - t0) * 1000.0
        return rep


def run_corpus(corpus, checks=None, caps: Caps = DEFAULT_CAPS,
               p_filter=None, d_filter=None, theorem_filter=None) -> list:
    """Run checks over every corpus entry; report order is corpus order.

    ``checks``: explicit sequence of (check_id, params) applied to every
    group; default derives the admissible grid per group. Reports with
    status "fail" mean the statement failed on an instance (or the engine
    is wrong); "indeterminate" marks cap violations.
    """
    reports = []
    for name, G in corpus:
        instances = checks if checks is not None else \
            default_checks(G, p_filter, d_filter, theorem_filter)
        reports.extend(run_check(G, check_id, params, caps, name)
                       for check_id, params in instances)
    return reports
