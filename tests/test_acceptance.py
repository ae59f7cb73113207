"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timed criteria build fresh groups so no warm cache flatters them.
"""

import time

import numpy as np

from partialpi.chiefs import _prime_factors, all_chief_series
from partialpi.corpus import builtin_corpus
from partialpi.embedding import (
    evaluate_series,
    evaluate_series_by_quotients,
    is_complemented,
    satisfies_partial_pi,
    satisfies_partial_pi_by_quotients,
)
from partialpi.groups import alternating, subgroup_generated, symmetric
from partialpi.modrep import (
    FpModule,
    cyclicity_criterion_check,
    minimal_submodules,
    rref,
    section_as_module,
)
from partialpi.perms import parse_cycles
from partialpi.structure import (
    _p_part,
    all_subgroups,
    frattini,
    o_p,
    subgroups_in,
    subgroups_of_order_in,
    sylow,
)
from partialpi.theorems import (
    check_lemma,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    run_corpus,
)

REQUIRED_NAMES = {"S3", "S4", "A4", "A5", "SL(2,3)", "D8", "Q8", "SD16"}


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_definition_conformance():
    t0 = time.perf_counter()
    a4 = alternating(4)
    h = subgroup_generated(a4, [parse_cycles("(1 2)(3 4)", 4)])
    ok, witness = satisfies_partial_pi(a4, h)
    assert ok is False and witness is None
    series = next(all_chief_series(a4))
    rec = evaluate_series(a4, h, series)[0]
    assert (rec.intersection_order, rec.normalizer_index, rec.prime_set,
            rec.passed) == (2, 3, (2,), False)
    s3 = symmetric(3)
    h2 = subgroup_generated(s3, [parse_cycles("(1 2)", 3)])
    ok, witness = satisfies_partial_pi(s3, h2)
    assert ok is True
    assert witness.series.factor_orders() == (3, 2)
    assert [r.intersection_order for r in witness.per_factor] == [1, 2]
    assert [r.normalizer_index for r in witness.per_factor] == [1, 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"definition conformance on A4/S3 in {elapsed:.2f}s (< 1s)")


def test_criterion_2_route_equivalence():
    t0 = time.perf_counter()
    corpus = builtin_corpus()  # fresh: no warm caches
    pairs = 0
    for name, G in corpus:
        if G.order > 48:
            continue
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            for H in subgroups_in(G, P).all:
                pairs += 1
                assert satisfies_partial_pi(G, H)[0] == \
                    satisfies_partial_pi_by_quotients(G, H)[0], (name, p)
                for series in all_chief_series(G):
                    fast = evaluate_series(G, H, series)
                    slow = evaluate_series_by_quotients(G, H, series)
                    for a, b in zip(fast, slow):
                        assert (a.intersection_order, a.normalizer_index,
                                a.passed) == (b.intersection_order,
                                              b.normalizer_index, b.passed), \
                            (name, p, H.order)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(2, f"route equivalence on {pairs} subgroup evaluations, "
               f"zero mismatches, {elapsed:.1f}s (< 2min)")


def test_criterion_3_prime_order_supersoluble_sweep(corpus):
    names = set(corpus.names())
    assert len(names) >= 25
    assert REQUIRED_NAMES <= names
    assert any(d.startswith("sdp:") for _, d in corpus.entries)
    checked = 0
    for name, G in corpus:
        assert G.order <= 384
        for p in _prime_factors(G.order):
            rep = check_lemma(G, "prime-order-supersoluble", {"p": p},
                              group_name=name)
            checked += 1
            assert rep.status != "fail", (name, p)
    _report(3, f"prime-order hypothesis implies p-supersolubility on "
               f"{checked} (group, p) pairs, zero violations")


def test_criterion_4_p_length_sweep(corpus):
    checked = 0
    for name, G in corpus:
        for p in _prime_factors(G.order):
            P_order = _p_part(G.order, p)
            d = p
            while d < P_order:
                if d > 1:
                    rep = check_lemma(G, "p-length-one", {"p": p, "d": d},
                                      group_name=name)
                    checked += 1
                    assert rep.status != "fail", (name, p, d)
                d *= p
    _report(4, f"order-d hypothesis implies p-soluble of p-length <= 1 on "
               f"{checked} (group, p, d) triples, zero violations")


def test_criterion_5_theorem_A(corpus):
    rep = check_theorem_A(corpus.group("A4"), 2, group_name="A4")
    assert rep.status == "pass" and rep.conclusion_cases == ("2",)
    rep = check_theorem_A(corpus.group("C2^4:C3"), 2, group_name="C2^4:C3")
    assert rep.status == "pass" and rep.conclusion_cases == ("3",)
    assert rep.details["hall_cyclic"] and rep.details["constituent_dim"] == 2
    rep = check_theorem_A(corpus.group("S4"), 2, group_name="S4")
    assert rep.status == "vacuous"
    fails = [r for r in run_corpus(corpus, theorem_filter={"A"})
             if r.status == "fail"]
    assert not fails
    _report(5, "theorem A: A4 case (2), C2^4:C3 case (3) with cyclic C3 and "
               "2-dim constituents, S4 vacuous; corpus-wide zero failures")


def test_criterion_6_theorem_B(corpus):
    rep = check_theorem_B(corpus.group("SL(2,3)"), 2, group_name="SL(2,3)")
    assert rep.status == "pass" and "4" in rep.conclusion_cases
    rep = check_theorem_B(corpus.group("A5"), 2, group_name="A5")
    assert rep.status == "pass" and rep.conclusion_cases == ("3",)
    rep = check_theorem_B(corpus.group("A4"), 2, group_name="A4")
    assert rep.status == "pass" and "2" in rep.conclusion_cases
    fails = [r for r in run_corpus(corpus, theorem_filter={"B"})
             if r.status == "fail"]
    assert not fails
    _report(6, "theorem B: SL(2,3) case (4) with P isomorphic to Q8, A5 case "
               "(3), A4 case (2); corpus-wide zero failures")


def test_criterion_7_theorem_C(corpus):
    G = corpus.group("C2^4:C3")
    P = sylow(G, 2)
    phi = frattini(P.as_group())
    assert phi.order == 1
    rep = check_theorem_C(G, 2, 4, group_name="C2^4:C3")
    assert rep.status == "pass" and rep.conclusion_cases == ("1+2+3",)
    assert (rep.details["k"], rep.details["m"], rep.details["n"]) == (2, 4, 2)
    assert rep.details["homogeneous_not_absirr"]  # End dim 2, not abs. irred.
    assert rep.details["hall_cyclic"]
    # constituent endomorphism dimension is 2
    from partialpi.modrep import module_hom_space_dim, restrict_to_submodule
    hall = all_subgroups(G).of_order(3)[0]
    module = section_as_module(G, P, G.trivial_subgroup(), hall, 2)
    mins = minimal_submodules(module)
    constituent = restrict_to_submodule(module, mins[0])
    assert module_hom_space_dim(constituent, constituent) == 2
    fails = [r for r in run_corpus(corpus, theorem_filter={"C"})
             if r.status == "fail"]
    assert not fails
    _report(7, "theorem C: C2^4:C3 (p=2, d=4) verified with Phi(P)=1, k=2, "
               "m=4, n=2, End dim 2, cyclic complement; corpus-wide zero "
               "failures over all admissible d")


def test_criterion_8_complemented_equivalence(corpus):
    groups_checked = 0
    subgroup_pairs = 0
    for name, G in corpus:
        for p in _prime_factors(G.order):
            P = sylow(G, p)
            if o_p(G, p).order != P.order or P.order == 1:
                continue
            orders = G.element_orders[P.idx]
            if not all(int(o) in (1, p) for o in orders):
                continue
            from partialpi.groups import centralizer
            if not centralizer(G, P).contains(P):
                continue
            groups_checked += 1
            for order in sorted({s for s in range(1, P.order + 1)
                                 if P.order % s == 0}):
                for Hs in subgroups_of_order_in(G, P, order):
                    subgroup_pairs += 1
                    assert satisfies_partial_pi(G, Hs)[0] == \
                        is_complemented(G, Hs)[0], (name, p, Hs.order)
    assert groups_checked >= 5
    _report(8, f"property iff complemented over {groups_checked} elementary "
               f"abelian normal Sylow cases, {subgroup_pairs} subgroups, "
               f"zero mismatches")


def test_criterion_9_complement_classification(corpus):
    # homogeneous x2 (C3 on F_2^2 doubled): true exactly at d = 4
    for d, expect_lhs in ((2, False), (4, True), (8, False)):
        rep = check_lemma(corpus.group("C2^4:C3"), "complement-classification",
                          {"p": 2, "d": d}, group_name="C2^4:C3")
        assert rep.status == "pass"
        assert rep.details["all_complemented"] is expect_lhs
        assert rep.details["cyclic_homogeneous_branch"] is expect_lhs
    # supersoluble case (C2 inverting F_3^2)
    rep = check_lemma(corpus.group("C3^2:C2"), "complement-classification",
                      {"p": 3, "d": 3}, group_name="C3^2:C2")
    assert rep.status == "pass"
    assert rep.details["supersoluble"] and rep.details["all_complemented"]
    # absolutely irreducible case (S3-image on F_7^2): both sides false
    rep = check_lemma(corpus.group("F7^2:S3"), "complement-classification",
                      {"p": 7, "d": 7}, group_name="F7^2:S3")
    assert rep.status == "pass"
    assert not rep.details["all_complemented"]
    assert not rep.details["supersoluble"]
    assert not rep.details["cyclic_homogeneous_branch"]
    fails = [r for r in run_corpus(
        corpus, theorem_filter={"lemma:complement-classification"})
        if r.status == "fail"]
    assert not fails
    _report(9, "complementation classification biconditional exact on all "
               "three module constructions and corpus-wide")


def test_criterion_10_cyclicity_criterion(corpus):
    a4 = corpus.group("A4")
    c3 = sylow(a4, 3)
    mod = section_as_module(a4, o_p(a4, 2), a4.trivial_subgroup(), c3, 2)
    assert cyclicity_criterion_check(c3, mod)  # cyclic, End dim 2
    from partialpi.modrep import module_hom_space_dim
    assert module_hom_space_dim(mod, mod) == 2
    g294 = corpus.group("F7^2:S3")
    P = sylow(g294, 7)
    from partialpi.structure import hall_complement
    H = hall_complement(g294, 7)
    mod2 = section_as_module(g294, P, g294.trivial_subgroup(), H, 7)
    assert cyclicity_criterion_check(H, mod2)  # noncyclic, End dim 1
    assert module_hom_space_dim(mod2, mod2) == 1
    _report(10, "cyclicity criterion true on C3/F_2^2 (End dim 2) and on the "
                "S3-image/F_7^2 standard module (End dim 1)")


def test_criterion_11_minimal_submodules_in_double():
    r = np.array([[0, 6], [1, 6]])
    s = np.array([[0, 1], [1, 0]])
    def diag(m):
        out = np.zeros((4, 4), dtype=np.int64)
        out[:2, :2] = m
        out[2:, 2:] = m
        return out
    doubled_s3 = FpModule(7, 4, [diag(r), diag(s)])
    mins = minimal_submodules(doubled_s3)
    assert len(mins) == 8 and all(b.shape[0] == 2 for b in mins)  # p + 1
    expected = {np.hstack((np.zeros((2, 2), np.int64),
                           np.eye(2, dtype=np.int64))).tobytes()}
    for m in range(7):
        expected.add(np.hstack((np.eye(2, dtype=np.int64),
                                m * np.eye(2, dtype=np.int64) % 7)).tobytes())
    assert {rref(b, 7)[0].tobytes() for b in mins} == expected
    a = np.array([[0, 1], [1, 1]])
    doubled_c3 = FpModule(2, 4, [np.block(
        [[a, np.zeros((2, 2), np.int64)], [np.zeros((2, 2), np.int64), a]])])
    mins2 = minimal_submodules(doubled_c3)
    # regression value: 5 lines of the projective line over the larger
    # endomorphism field, strictly more than p + 1 = 3
    assert len(mins2) == 5 > 3
    assert all(b.shape[0] == 2 for b in mins2)
    _report(11, "minimal submodules in U x V: 8 = p+1 (matching the U, V_m "
                "family) for the absolutely irreducible pair; 5 for the "
                "F_4-endomorphism pair (frozen regression values)")


def test_criterion_12_whole_suite_runtime():
    t0 = time.perf_counter()
    corpus = builtin_corpus()  # fresh corpus: full cold run
    reports = run_corpus(corpus)
    elapsed = time.perf_counter() - t0
    summary = {"pass": 0, "fail": 0, "vacuous": 0, "indeterminate": 0}
    for r in reports:
        summary[r.status] += 1
    assert summary["fail"] == 0, [r for r in reports if r.status == "fail"][:5]
    assert summary["indeterminate"] == 0
    assert summary["pass"] > 0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report(12, f"full corpus: {len(reports)} checks ({summary['pass']} pass, "
                f"{summary['vacuous']} vacuous) in {elapsed:.0f}s (< 5min)")
