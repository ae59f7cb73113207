import copy
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from partialpi import _kernels, theorems
from partialpi.chiefs import _prime_factors
from partialpi.config import DEFAULT_CAPS
from partialpi.corpus import builtin_corpus
from partialpi.errors import BadParameter, UnknownLemma
from partialpi.groupfile import build_directive
from partialpi.groups import Subgroup
from partialpi.structure import p_rank, p_supersoluble
from partialpi.theorems import (
    LEMMA_IDS,
    check_lemma,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    default_checks,
    run_check,
    run_corpus,
)


def test_theorem_A_instances(groups):
    r = check_theorem_A(groups["A4"], 2)
    assert r.status == "pass" and r.conclusion_cases == ("2",)
    r = check_theorem_A(groups["C2^4:C3"], 2)
    assert r.status == "pass" and r.conclusion_cases == ("3",)
    assert r.details["hall_cyclic"] and r.details["constituent_dim"] == 2
    r = check_theorem_A(groups["S4"], 2)
    assert r.status == "vacuous" and not r.hypotheses["order_p2_subgroups_pi"]
    # a second case-3 witness at p = 3
    r = check_theorem_A(groups["C3^4:C4"], 3)
    assert r.status == "pass" and r.conclusion_cases == ("3",)


def test_theorem_B_instances(groups):
    r = check_theorem_B(groups["SL(2,3)"], 2)
    assert r.status == "pass" and "4" in r.conclusion_cases
    r = check_theorem_B(groups["A5"], 2)
    assert r.status == "pass" and r.conclusion_cases == ("3",)
    r = check_theorem_B(groups["A4"], 2)
    assert r.status == "pass" and "2" in r.conclusion_cases
    r = check_theorem_B(groups["C2^4:C3"], 2)
    assert r.status == "pass" and "5" in r.conclusion_cases
    assert r.details["frattini_is_two_maximal_meet"]


def test_theorem_C_instances(groups):
    r = check_theorem_C(groups["C2^4:C3"], 2, 4)
    assert r.status == "pass" and r.conclusion_cases == ("1+2+3",)
    assert (r.details["k"], r.details["m"], r.details["n"]) == (2, 4, 2)
    assert r.details["homogeneous_not_absirr"] and r.details["hall_cyclic"]
    r = check_theorem_C(groups["A4"], 2, 2)
    assert r.status == "vacuous"
    r = check_theorem_C(groups["C3^4:C4"], 3, 9)
    assert r.status == "pass" and r.conclusion_cases == ("1+2+3",)
    with pytest.raises(BadParameter):
        check_theorem_C(groups["S3"], 3, 2)
    with pytest.raises(BadParameter):
        check_theorem_C(groups["S4"], 2, 16)


def test_case1_soundness(corpus):
    """Theorem A reporting case (1) must agree with the structure facts."""
    from partialpi.chiefs import _prime_factors
    for name, G in corpus:
        if G.order > 100:
            continue
        for p in _prime_factors(G.order):
            r = check_theorem_A(G, p, group_name=name)
            if r.hypotheses_hold and "1" in r.conclusion_cases:
                assert p_supersoluble(G, p)
                assert p_rank(G, p) in (None, 1)


def test_lemma_dispatch_and_unknown(groups):
    with pytest.raises(UnknownLemma):
        check_lemma(groups["S3"], "no-such-lemma", {"p": 2})
    with pytest.raises(BadParameter):
        check_lemma(groups["S3"], "prime-order-supersoluble", {})
    with pytest.raises(BadParameter):  # it read as a failure without d
        check_lemma(groups["S4"], "p-length-one", {"p": 2})
    with pytest.raises(UnknownLemma):
        run_check(groups["S3"], "D", {"p": 2})
    with pytest.raises(UnknownLemma):
        run_check(groups["S3"], "lemma:no-such-lemma", {"p": 2})
    assert len(LEMMA_IDS) == 18
    assert list(LEMMA_IDS) == sorted(LEMMA_IDS)  # reports list lemmas by id


def test_lemma_instances(groups):
    r = check_lemma(groups["A4"], "pi-iff-complemented", {"p": 2})
    assert r.status == "pass" and r.details["subgroups_checked"] == 5
    r = check_lemma(groups["A4"], "minimal-normal-order", {"p": 2, "d": 2})
    assert r.status == "vacuous"
    r = check_lemma(groups["S3"], "series-through", {"p": 3})
    assert r.status == "pass"
    r = check_lemma(groups["SL(2,3)"], "cap-from-pi", {"p": 2})
    assert r.status == "pass"
    r = check_lemma(groups["C2^4:C3"], "socle-homogeneous", {"p": 2, "d": 4})
    assert r.status == "pass"
    r = check_lemma(groups["C2^4:C3"], "module-dimension", {"p": 2, "d": 4})
    assert r.status == "pass" and r.conclusion_cases == ("1+2",)
    r = check_lemma(groups["S4"], "p-length-one", {"p": 2, "d": 4})
    assert r.status == "vacuous"
    r = check_lemma(groups["SD16"], "prime-order-supersoluble", {"p": 2})
    assert r.status == "pass"   # 2-groups are 2-supersoluble
    r = check_lemma(groups["S4"], "frattini-factor-hypercenter", {"p": 2})
    assert r.status == "pass"
    r = check_lemma(groups["S4"], "quotient-inheritance", {"p": 2})
    assert r.status == "pass"


def test_zeng_instances(groups):
    # homogeneous x2 case: both sides true at d = 4, both false at d = 2, 8
    for d, lhs in ((2, False), (4, True), (8, False)):
        r = check_lemma(groups["C2^4:C3"], "complement-classification",
                        {"p": 2, "d": d})
        assert r.status == "pass"
        assert r.details["all_complemented"] is lhs, (d, r.details)
    # supersoluble case
    r = check_lemma(groups["C3^2:C2"], "complement-classification",
                    {"p": 3, "d": 3})
    assert r.status == "pass" and r.details["supersoluble"]
    assert r.details["all_complemented"]
    # absolutely irreducible case: noncyclic complement, nothing complemented
    r = check_lemma(groups["F7^2:S3"], "complement-classification",
                    {"p": 7, "d": 7})
    assert r.status == "pass" and not r.details["all_complemented"]
    assert not r.details["cyclic_homogeneous_branch"]


def test_vacuity_honesty_and_report_invariant(corpus):
    reports = run_corpus(corpus, theorem_filter={"A", "B"})
    for r in reports:
        # pass == (not hypotheses_hold) or conclusion_cases nonempty
        assert r.passed == ((not r.hypotheses_hold) or bool(r.conclusion_cases))
        if not r.hypotheses_hold:
            assert r.passed and r.status == "vacuous"


def test_run_corpus_deterministic(corpus):
    f = {"A", "C", "lemma:complement-classification"}
    r1 = run_corpus(corpus, theorem_filter=f, p_filter={2})
    r2 = run_corpus(corpus, theorem_filter=f, p_filter={2})
    lines1 = ["|".join(f"{k}:{v}" for k, v in r.record_fields()) for r in r1]
    lines2 = ["|".join(f"{k}:{v}" for k, v in r.record_fields()) for r in r2]
    assert lines1 == lines2


def test_indeterminate_state():
    from partialpi.config import Caps
    from partialpi.groups import symmetric
    tight = Caps(lattice=4)
    fresh = symmetric(4)  # no cached sweeps: the cap must bite
    r = run_check(fresh, "A", {"p": 2}, caps=tight, group_name="S4")
    assert r.status == "indeterminate"
    assert r.error and "LatticeCapExceeded" in r.error
    assert not r.passed


def test_parallel_groups_match_serial():
    """Distinct groups on distinct threads produce exactly the serial
    reports (the documented concurrency model)."""
    from concurrent.futures import ThreadPoolExecutor
    from partialpi.corpus import builtin_corpus
    corpus = builtin_corpus()
    names = ["S4", "SL(2,3)", "A4", "A5", "C2^4:C3", "S3xS3"]
    serial = {n: check_theorem_B(corpus.group(n), 2, group_name=n)
              for n in names}
    fresh = builtin_corpus()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {n: pool.submit(check_theorem_B, fresh.group(n), 2,
                                  group_name=n) for n in names}
        parallel = {n: f.result() for n, f in futures.items()}
    for n in names:
        assert serial[n].record_fields() == parallel[n].record_fields()


def test_c2_5_exhaustive_pairs():
    """Every default check on C2^5 passes or is vacuous, and the exhaustive
    lemmas over (N, H) pairs check every pair: H ranges over the subgroups
    of P = G (374) and N over its normal subgroups."""
    from partialpi.groups import elementary_abelian
    G = elementary_abelian(2, 5)
    reports = run_corpus([("C2^5", G)])
    assert all(r.status in ("pass", "vacuous") for r in reports)
    pairs = {r.check_id: r.details["pairs_checked"] for r in reports
             if "pairs_checked" in r.details}
    assert pairs["lemma:quotient-inheritance"] == 5766
    assert pairs["lemma:series-through"] == 5768


def test_c2_6_exhaustive_pairs_within_budget():
    """C2^6 has 615 195 chief series but 23 562 chief factors, so P's Pi
    family stands under the default series cap (its edge bound) and the
    exhaustive lemmas reduce over it: 95 703 and 95 705 pairs, every check
    pass (27) or vacuous (26), the whole run under 20 s (1.4 s on a 2-vCPU
    host, against 93 s when the per-pair searches ran)."""
    import time
    from collections import Counter
    from partialpi.groups import elementary_abelian
    G = elementary_abelian(2, 6)
    t0 = time.perf_counter()
    reports = run_corpus([("C2^6", G)])
    assert time.perf_counter() - t0 < 20
    assert Counter(r.status for r in reports) == {"pass": 27, "vacuous": 26}
    pairs = {r.check_id: r.details["pairs_checked"] for r in reports
             if "pairs_checked" in r.details}
    assert pairs["lemma:quotient-inheritance"] == 95703
    assert pairs["lemma:series-through"] == 95705


def test_empty_corpus_and_unique_names():
    from partialpi.corpus import Corpus
    assert run_corpus(Corpus(())) == []
    with pytest.raises(ValueError):
        Corpus((("X", "trivial"), ("X", "cyclic:2")))


def test_default_checks_grid(groups):
    ids = {cid for cid, _ in default_checks(groups["C2^4:C3"])}
    assert {"A", "B", "C"} <= ids
    assert any(i.startswith("lemma:") for i in ids)
    ds = [params["d"] for cid, params in default_checks(groups["C2^4:C3"])
          if cid == "C"]
    assert ds == [2, 4, 8]
    assert default_checks(groups["C1"]) == []
    # a d filter keeps only that d, and every check that takes p alone
    checks = default_checks(groups["C2^4:C3"], p_filter={2}, d_filter={4})
    assert {params["d"] for _, params in checks if "d" in params} == {4}
    assert {cid for cid, params in checks if "d" in params} == {
        "C", "lemma:complement-classification",
        "lemma:minimal-normal-elementary", "lemma:minimal-normal-order",
        "lemma:module-dimension", "lemma:order-bound", "lemma:p-length-one",
        "lemma:socle-homogeneous"}
    assert ([c for c in checks if "d" not in c[1]]
            == [c for c in default_checks(groups["C2^4:C3"], p_filter={2})
                if "d" not in c[1]])


# -- failure branches of the exhaustive lemma verifiers ---------------------------
# Each case replaces one name the verifier looks up in ``partialpi.theorems``
# so that its conclusion fails on every instance, on a fresh group (the
# replacement must not reach a cache that other tests read). The count pins
# how far the verifier gets: quotient-inheritance and series-through stop
# after the first normal subgroup with a failing instance.


class _Everything:
    """Stands in for Z_U(G): every element is in it, no subgroup inside."""

    def __init__(self, G):
        self.mask = np.ones(G.order, dtype=bool)

    def contains(self, H):
        return False


# The verifiers read a quotient G/N inside G, from the first term N: the
# replacements below tell its calls from those on G itself by ``bottom``.
# quotient-inheritance and series-through reduce over the tables of P's
# ``theorems.pi_family``; a doctored copy of the family clears the rows of
# their conclusion (``co`` at N != 1, ``reach``). Without the family (over
# a cap) they, and every other Pi question, go through ``theorems._has_pi``
# (H in G, HN/N from ``bottom`` = N, or a series through ``through`` = N);
# every partial CAP question goes through ``_has_cap`` and every complement
# question through ``_complemented``.


def _family_without(rows):
    """pi_family with the table ``rows`` cleared at every N != 1; the row
    of co at 1 is the property in G itself, and series-through reads no
    row at 1."""
    def replace(G, real):
        def family(X, P, caps=DEFAULT_CAPS):
            doctored = copy.copy(real(X, P, caps))
            table = getattr(doctored, rows).copy()
            table[1:] = False
            setattr(doctored, rows, table)
            return doctored
        return family
    return replace


def _pi_false_in_quotients(G, real):
    return lambda X, P, H, caps, bottom=None, through=None: (
        real(X, P, H, caps) if bottom is None else False)


def _no_series_through(G, real):
    return lambda X, P, H, caps, bottom=None, through=None: (
        real(X, P, H, caps, bottom) if through is None else False)


def _z_u_trivial_in_G(G, real):
    return lambda X, bottom=None: (
        X.trivial_subgroup() if bottom is None else real(X, bottom))


def _z_up_all_in_G(G, real):
    # from bottom = Phi(E), Z_{U_p} of the quotient is trivial: bottom itself
    return lambda X, p, bottom=None: (
        X.as_subgroup() if bottom is None else bottom)


def _pi_only_above_order_2(G, real):
    return lambda X, P, H, caps, bottom=None, through=None: H.order != 2


def _never(G, real):
    return lambda *args, **kwargs: False


_FAILURES = (
    # lemma, group, p, replaced name, replacement, detail, count at failure
    ("quotient-inheritance", "D8", 2, "pi_family", _family_without("co"),
     "pairs_checked", 6),
    ("series-through", "D8", 2, "pi_family", _family_without("reach"),
     "pairs_checked", 2),
    ("cyclic-in-hypercenter", "D8", 2, "hypercenter_u",
     lambda G, real: _Everything, "subgroups_checked", 5),
    ("frattini-quotient-hypercenter", "D8", 2, "hypercenter_u",
     _z_u_trivial_in_G, "subgroups_checked", 5),
    ("frattini-factor-hypercenter", "D8", 2, "hypercenter_up",
     _z_up_all_in_G, "subgroups_checked", 5),
    ("product-transfer", "D8", 2, "_has_pi",
     _pi_only_above_order_2, "pairs_checked", 4),
    ("cap-from-pi", "D8", 2, "_has_cap", _never,
     "subgroups_checked", 5),
    ("pi-iff-complemented", "A4", 2, "_complemented",
     lambda G, real: lambda *args, **kwargs: None,
     "subgroups_checked", 5),
)


@pytest.mark.parametrize("lemma, name, p, attr, replacement, detail, count",
                         _FAILURES, ids=[case[0] for case in _FAILURES])
def test_exhaustive_lemma_failure_branch(monkeypatch, lemma, name, p, attr,
                                         replacement, detail, count):
    G = builtin_corpus().group(name)
    monkeypatch.setattr(theorems, attr,
                        replacement(G, getattr(theorems, attr)))
    r = check_lemma(G, lemma, {"p": p})
    assert r.status == "fail" and not r.passed
    assert r.hypotheses_hold and r.conclusion_cases == ()
    assert r.details[detail] == count


_FAILURES_WITHOUT_FAMILY = (
    ("quotient-inheritance", _pi_false_in_quotients, 6),
    ("series-through", _no_series_through, 2),
)


@pytest.mark.parametrize("lemma, replacement, count", _FAILURES_WITHOUT_FAMILY,
                         ids=[case[0] for case in _FAILURES_WITHOUT_FAMILY])
def test_exhaustive_lemma_failure_branch_without_family(monkeypatch, lemma,
                                                        replacement, count):
    """The per-pair route of the two lemmas, taken when P's family is over
    a cap, forced here: the same failures, counted alike."""
    G = builtin_corpus().group("D8")
    monkeypatch.setattr(theorems, "pi_family", lambda *args: None)
    monkeypatch.setattr(theorems, "_has_pi",
                        replacement(G, theorems._has_pi))
    r = check_lemma(G, lemma, {"p": 2})
    assert r.status == "fail" and not r.passed
    assert r.hypotheses_hold and r.conclusion_cases == ()
    assert r.details["pairs_checked"] == count


def test_cyclicity_criterion_check_agrees_with_verifier(corpus):
    """The verifier of cyclic-iff-not-absolutely-irreducible reads the
    criterion without re-checking the module's hypotheses; the public
    check, which does, gives the recorded case on every corpus instance
    whose hypotheses hold."""
    from partialpi.modrep import cyclicity_criterion_check
    from partialpi.structure import hall_complement, sylow
    checked = 0
    for name, G in corpus:
        for p in _prime_factors(G.order):
            r = check_lemma(G, "cyclic-iff-not-absolutely-irreducible",
                            {"p": p})
            if not r.hypotheses_hold:
                continue
            H = hall_complement(G, p)
            module = theorems._section_module(
                G, sylow(G, p), G.trivial_subgroup(), H, p)
            assert cyclicity_criterion_check(H, module) == (
                r.conclusion_cases == ("criterion-holds",)), (name, p)
            checked += 1
    assert checked == 4


@pytest.mark.parametrize("name, modules, lines",
                         [("C2^4:C3", 2, 30), ("C3^4:C4", 2, 80)])
def test_section_modules_spun_once(monkeypatch, name, modules, lines):
    """A one-group sweep analyses each section module once and compares its
    constituents by Schur's lemma, so it spins one vector per line of each
    module, all lines of a module in one call, and nothing more: pinned on
    fresh groups (C2^4:C3 has two modules F_2^4, C3^4:C4 two F_3^4)."""
    kernel, calls = _kernels.spin_basis, []

    def counted(mats, v, p):
        calls.append(np.atleast_2d(v).shape[0])
        return kernel(mats, v, p)
    monkeypatch.setattr(_kernels, "spin_basis", counted)
    run_corpus([(name, builtin_corpus().group(name))])
    assert (len(calls), sum(calls)) == (modules, lines)


def test_builtin_sweep_builds_no_standalone_subgroup(monkeypatch):
    """A cold builtin sweep reads every verdict in its groups' own tables:
    no subgroup is built as a group of its own."""
    calls = 0
    as_group = Subgroup.as_group

    def counted(self):
        nonlocal calls
        calls += 1
        return as_group(self)
    monkeypatch.setattr(Subgroup, "as_group", counted)
    reports = run_corpus(builtin_corpus())
    assert calls == 0
    assert {r.status for r in reports} == {"pass", "vacuous"}


# Direct-product factors (directive: order) and every product of 1-3 of
# them of order <= 64: 223 groups, each valid by construction.
_DP_FACTORS = {
    **{f"cyclic:{n}": n for n in range(2, 9)},
    **{f"dihedral:{n}": n for n in (6, 8, 10, 12)},
    "quaternion:8": 8, "quaternion:12": 12, "quaternion:16": 16,
    "sym:3": 6, "sym:4": 24, "alt:4": 12,
    "elemab:2:2": 4, "elemab:2:3": 8, "elemab:3:2": 9,
}
_DP_PRODUCTS = [parts for k in (1, 2, 3)
                for parts in itertools.combinations_with_replacement(
                    _DP_FACTORS, k)
                if math.prod(_DP_FACTORS[f] for f in parts) <= 64]
_DP_BUDGET_S = 10.0


@given(st.sampled_from(_DP_PRODUCTS))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_generated_direct_products_pass_or_vacuous(parts):
    """Every default check on a generated direct product passes or is
    vacuous, the whole run on the fresh group within _DP_BUDGET_S (all 223
    products took 8 s together on a 2-vCPU host, the slowest 1.0 s)."""
    directive = "dp:" + "x".join(parts) if len(parts) > 1 else parts[0]
    t0 = time.perf_counter()
    G = build_directive(directive)
    reports = run_corpus([(directive, G)])
    assert time.perf_counter() - t0 < _DP_BUDGET_S, directive
    assert G.order == math.prod(_DP_FACTORS[f] for f in parts)
    assert {r.status for r in reports} <= {"pass", "vacuous"}, directive
