"""Time the hot kernels, the per-group builds and the subgroup lattice.

The first section times each kernel in partialpi._kernels on the workloads
that dominate real runs: subgroup closures, normalizer scans, conjugacy
classes, product sets and module spinning, as totals on ``A5``; then it
times single calls, in microseconds, on small to large check-pi groups:
``closure_idx`` from a whole conjugacy class (as a class closure starts)
and from two elements (as generating H does), ``product_mask``, and
``Perm._from_array`` at the largest degree of the check-pi pool. A second
section times the
per-group builds on fresh groups: ``group_from_generators`` on the
group's generators (the closure a group file's build takes); the Cayley
table; the class representatives (``Group.conjugation`` and
``class_min_rep``, table built); the class closures (class
representatives built); all normal subgroups, which is the whole chief-factor DAG walked
from 1; and the first chief series that ``search_chains`` finds, which is
the part of the DAG one single-subgroup check pays for. It ends with one
``QuotientMap`` per normal subgroup of a fresh ``C3^4:C4``, as the
theorem verifiers and the quotient oracle of a single-subgroup check build
them. A third section times the
subgroup lattice on fresh groups, with its route (the layer walk of a p-group,
one batch per layer, or the cyclic extension of any other group) and the
closures and ``normalizer_mask`` calls it takes, the layer walk on ``C2^5``,
``C2^6``, ``D8xD8`` and ``Q8xQ8xC2`` among them, and then the lattice of
a Sylow subgroup P read in G's own table (``subgroups_in``) next to P
built as a standalone group with its own lattice, the route it replaces.
A fourth times the soluble routes of ``frattini``, ``hall`` and
``is_complemented``, which build no lattice of the group, on the two
groups whose lattices cost most, and then Phi(E) of a normal E that is
not a p-group through ``_frattini_in`` next to E built as a standalone
group, G's normal subgroups found first: the order-162
normal subgroup of ``C3^4:C4`` and the order-147 one of ``F7^2:S3``, which
meet Phi(G) = 1 and so have Phi(E) = 1 once Phi(G) is read, and SL(2,3)
in SL(2,3) x C2, which meets Phi(G) = C2, is not nilpotent, and so is
built standalone by ``_frattini_in`` too. A fifth times the module layer:
first by function, over every section a cold builtin sweep builds
(``section_as_module`` on each, then ``minimal_submodules``,
``is_irreducible`` and ``homogeneous_constituents`` on fresh copies of
the modules, so no spin is cached, and ``module_hom_space_dim`` of each
constituent with itself), then ``rref`` on the matrices that
``groups._singular`` checks while the check-pi pool groups are built, by
size and per check-pi pass; then, on fresh groups, the memoised analysis
of the section P/1 under a Hall p'-complement (the module, its
homogeneity by Schur's lemma, its constituent dimension) with the
line vectors it spins, on ``C2^4:C3`` and ``C3^4:C4``; then
``is_quaternion_free``, which counts squares on one lattice, and the lemma
``cyclic-in-hypercenter`` at p = 2, which runs the same test on every
normal 2-subgroup, read in G, on ``C2^5``, ``D8xD8`` and ``Q8xQ8xC2``.
The last section times the Pi family of a Sylow subgroup P
(``embedding.pi_family``) against the chain searches it replaces, one per
pair: the property of every subgroup H of P, then HN/N in G/N for the
(N, H) that quotient-inheritance asks about and a series through N for
those series-through asks about, on fresh ``C3^4:C4`` (p = 3), ``C2^5``,
``D8xD8`` and ``Q8xQ8xC2`` with G's table, chief-factor DAG and P's
lattice built first. The searches run once, the family best of 3. So do
the rows after it: on fresh ``C3^4:C4`` at p = 3, the complement verdicts
of every subgroup of P (``embedding.complement_family``, one matmul over
G's normal subgroups inside P) against ``is_complemented`` per subgroup,
and the partial CAP verdicts, which ``pi_family`` reads off the factors
where H's trace is an end of the factor, against ``satisfies_partial_cap``
per subgroup.

Run:  python benchmarks/bench_kernels.py
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from partialpi import _kernels, groups, theorems
from partialpi.chiefs import (
    _chief_children,
    _class_closures,
    _prime_power,
    normal_subgroups,
    search_chains,
)
from partialpi.config import DEFAULT_CAPS
from partialpi.corpus import builtin_corpus
from partialpi.embedding import (
    complement_family,
    is_complemented,
    pi_family,
    pi_series_through,
    satisfies_partial_cap,
    satisfies_partial_pi,
)
from partialpi.errors import ClosureCapExceeded, NotSemisimpleContext
from partialpi.groupfile import build_directive
from partialpi.groups import (
    QuotientMap,
    cyclic,
    elementary_abelian,
    group_from_generators,
    symmetric,
)
from partialpi.modrep import (
    FpModule,
    homogeneous_constituents,
    is_irreducible,
    minimal_submodules,
    module_hom_space_dim,
    rref,
    section_as_module,
)
from partialpi.perms import Perm, _DTYPE
from partialpi.structure import (
    _frattini_in,
    _lattice,
    frattini,
    hall,
    hall_complement,
    is_quaternion_free,
    subgroups_in,
    subgroups_of_order_in,
    sylow,
)
from partialpi.theorems import _section_constituents, run_check, run_corpus


def timed(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads():
    corpus = builtin_corpus()
    a5 = corpus.group("A5")
    g294 = corpus.group("F7^2:S3")
    t60, i60 = a5.table, a5.inverses
    t294, i294 = g294.table, g294.inverses
    pair_seeds = [np.array([i, j], dtype=_DTYPE)
                  for i in range(1, 30, 3) for j in range(2, 60, 7)]
    subs60 = [np.flatnonzero(_kernels.closure_idx(t60, s)).astype(_DTYPE)
              for s in pair_seeds[:25]]
    sub294 = np.flatnonzero(
        _kernels.closure_idx(t294, np.array([1, 5], dtype=_DTYPE))
    ).astype(_DTYPE)
    r = np.array([[0, 6], [1, 6]], dtype=np.int64)
    s = np.array([[0, 1], [1, 0]], dtype=np.int64)
    mats = np.stack([np.kron(np.eye(2, dtype=np.int64), r),
                     np.kron(np.eye(2, dtype=np.int64), s)])
    weights = 7 ** np.arange(3, -1, -1, dtype=np.int64)

    def closure_storm():
        for seed in pair_seeds:
            _kernels.closure_idx(t60, seed)

    def normalizer_storm():
        for sub in subs60:
            _kernels.normalizer_mask(t60, i60, sub)
        _kernels.normalizer_mask(t294, i294, sub294)

    def centralizer_storm():
        for sub in subs60:
            _kernels.centralizer_mask(t60, sub)

    c60, c294 = a5.conjugation, g294.conjugation

    def classes():
        _kernels.class_min_rep(c60)
        _kernels.class_min_rep(c294)

    def products():
        for sub in subs60:
            _kernels.product_mask(t60, sub, subs60[0])

    vecs = (np.arange(1, 7 ** 4, 9)[:, None] // weights) % 7

    def spins():
        _kernels.spin_basis(mats, vecs.astype(np.int64), 7)

    return [("closure x61 (|G|=60)", closure_storm),
            ("normalizer x26", normalizer_storm),
            ("centralizer x25", centralizer_storm),
            ("class reps (60+294)", classes),
            ("product sets x25", products),
            ("spin_basis, 267 vectors (F_7^4)", spins)]


POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        / "check-pi-pool.json")
# A check-pi pass of perfbench builds each pool group this many times.
REQUESTS_PER_GROUP = 6


def per_call_us(fn, number=2000, repeat=7):
    """Best over ``repeat`` runs of the mean microseconds of one call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / number * 1e6


def kernel_calls():
    """Per-call times: the seed of ``closure_idx`` is G's largest conjugacy
    class (least representative on ties) or the two elements 1 and n - 1;
    ``product_mask`` multiplies the closure of that class by <element 1>."""
    corpus = builtin_corpus()
    cases = [("S3", corpus.group("S3")),
             ("D8xD8", build_directive("dp:dihedral:8xdihedral:8")),
             ("C3^4:C4", corpus.group("C3^4:C4"))]
    print("\nsingle kernel calls:")
    print(f"{'group':<10}{'order':>6}{'closure class':>15}"
          f"{'closure 2 elts':>16}{'product_mask':>14}")
    for name, G in cases:
        table, reps, n = G.table, G.class_reps, G.order
        sizes = np.bincount(reps, minlength=n)
        cls = np.flatnonzero(reps == np.argmax(sizes)).astype(_DTYPE)
        pair = np.array([1, n - 1], dtype=_DTYPE)
        normal = np.flatnonzero(_kernels.closure_idx(table, cls)).astype(_DTYPE)
        cyclic = np.flatnonzero(
            _kernels.closure_idx(table, pair[:1])).astype(_DTYPE)
        row = [per_call_us(lambda: _kernels.closure_idx(table, cls)),
               per_call_us(lambda: _kernels.closure_idx(table, pair)),
               per_call_us(lambda: _kernels.product_mask(table, normal, cyclic))]
        print(f"{name:<10}{n:>6}"
              + "".join(f"{t:>{w}.1f}us" for t, w in zip(row, (13, 14, 12))))
    pool = json.loads(POOL.read_text(encoding="utf-8"))["groups"]
    name, G = max(((g["name"], build_directive(g["directive"])) for g in pool),
                  key=lambda case: case[1].degree)
    image = G.element_array[G.order - 1]
    print(f"Perm._from_array at degree {G.degree} ({name}): "
          f"{per_call_us(lambda: Perm._from_array(image), 20000):.2f}us")


def cayley_table(G):
    return G.table


def class_reps(G):
    """The conjugation rows of G's generators and the orbits they give."""
    return G.class_reps


def first_chief_series(G):
    """The first chief series in canonical DFS order."""
    return next(search_chains(G))


def timed_fresh(make, build, before=None, repeat=3):
    """Best time of ``build(G)`` over fresh groups ``G = make()``;
    ``before(G)`` runs first, outside the timing."""
    best = float("inf")
    for _ in range(repeat):
        G = make()
        if before is not None:
            before(G)
        t0 = time.perf_counter()
        build(G)
        best = min(best, time.perf_counter() - t0)
    return best


def closure(G):
    """Close G's generators again, as a group file's build does."""
    return group_from_generators(G.degree, G.generators)


def quotient_maps(G):
    return [QuotientMap(G, N) for N in normal_subgroups(G)]


def group_builds():
    makers = [("C12", lambda: cyclic(12)),
              ("C2^5", lambda: elementary_abelian(2, 5)),
              ("C3^4", lambda: elementary_abelian(3, 4)),
              ("D8xD8", lambda: build_directive("dp:dihedral:8xdihedral:8")),
              ("GL(3,2)", lambda: builtin_corpus().group("GL(3,2)")),
              ("F7^2:S3", lambda: builtin_corpus().group("F7^2:S3")),
              ("C3^4:C4", c3_4_c4),
              ("S6", lambda: symmetric(6))]
    print("\nper-group builds, fresh group each:")
    print(f"{'group':<10}{'closure':>11}{'Group.table':>14}{'class reps':>13}"
          f"{'class closures':>16}{'normal_subgroups':>18}"
          f"{'first series':>15}")
    for name, make in makers:
        row = [timed_fresh(make, closure),
               timed_fresh(make, cayley_table),
               timed_fresh(make, class_reps, before=cayley_table),
               timed_fresh(make, _class_closures, before=class_reps),
               timed_fresh(make, normal_subgroups, before=cayley_table),
               timed_fresh(make, first_chief_series, before=cayley_table)]
        print(f"{name:<10}" + "".join(
            f"{t * 1000:>{w}.2f}ms" for t, w in zip(row, (9, 12, 11, 14, 16,
                                                         13))))
    G = c3_4_c4()
    seconds = timed_fresh(c3_4_c4, quotient_maps, before=normal_subgroups)
    print(f"QuotientMap over the {len(normal_subgroups(G))} normal subgroups"
          f" of C3^4:C4: {seconds * 1000:.2f}ms")


def c3_4_c4():
    return builtin_corpus().group("C3^4:C4")


def index_2_of_c3_4_c4():
    """The order-162 normal subgroup of C3^4:C4 as a standalone group."""
    G = c3_4_c4()
    return next(N for N in normal_subgroups(G) if N.order == 162).as_group()


def vectors_spun(build, G) -> int:
    """How many vectors ``build(G)`` spins, over all its ``spin_basis``
    calls."""
    kernel, vectors = _kernels.spin_basis, 0

    def counted(mats, v, p):
        nonlocal vectors
        vectors += np.atleast_2d(v).shape[0]
        return kernel(mats, v, p)
    _kernels.spin_basis = counted
    try:
        build(G)
    finally:
        _kernels.spin_basis = kernel
    return vectors


def calls_of(build, G, name) -> int:
    """How many calls of the kernel ``name`` ``build(G)`` makes."""
    kernel, calls = getattr(_kernels, name), 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)
    setattr(_kernels, name, counted)
    try:
        build(G)
    finally:
        setattr(_kernels, name, kernel)
    return calls


def lattice_builds():
    makers = [("C3^4:C4", c3_4_c4),
              ("C3^4:C2", index_2_of_c3_4_c4),
              ("GL(3,2)", lambda: builtin_corpus().group("GL(3,2)")),
              ("C2^5", lambda: elementary_abelian(2, 5)),
              ("C3^4", lambda: elementary_abelian(3, 4)),
              ("C2^6", lambda: elementary_abelian(2, 6)),
              ("D8xD8", lambda: build_directive("dp:dihedral:8xdihedral:8")),
              ("Q8xQ8xC2", lambda: build_directive(
                  "dp:quaternion:8xquaternion:8xcyclic:2"))]
    print("\nsubgroup lattice, fresh group each:")
    print(f"{'group':<10}{'order':>6}{'subgroups':>11}{'route':>11}"
          f"{'closures':>10}{'normalisers':>13}{'_lattice':>12}")
    for name, make in makers:
        seconds = timed_fresh(make, _lattice, before=cayley_table)
        calls = calls_of(_lattice, make(), "closure_idx")
        normalisers = calls_of(_lattice, make(), "normalizer_mask")
        G = make()
        route = "walk" if _prime_power(G.order) else "extension"
        print(f"{name:<10}{G.order:>6}{len(_lattice(G)):>11}{route:>11}"
              f"{calls:>10}{normalisers:>13}{seconds * 1000:>10.1f}ms")
    print(f"{'Sylow P':<10}{'|P|':>6}{'|G|':>6}{'subgroups':>11}"
          f"{'read in G':>12}{'standalone':>13}")
    for name, p in [("C3^4:C4", 3), ("F7^2:S3", 7)]:
        def make(name=name):
            return builtin_corpus().group(name)

        def prepare(G, p=p):
            return sylow(G, p)
        in_g = timed_fresh(make, lambda G: subgroups_in(G, prepare(G)),
                           before=prepare)
        alone = timed_fresh(make, lambda G: _lattice(prepare(G).as_group()),
                            before=prepare)
        G = make()
        P = prepare(G)
        print(f"{name:<10}{P.order:>6}{G.order:>6}"
              f"{len(subgroups_in(G, P)):>11}{in_g * 1000:>10.1f}ms"
              f"{alone * 1000:>11.1f}ms")


def soluble_routes():
    """frattini, hall {2} and is_complemented (H of order 3 in the normal
    Sylow 3-subgroup P, whose own lattice is built first, as a sweep that
    picks H from it has it) on fresh groups with their tables built."""
    def order_3_in_sylow(G):
        return subgroups_of_order_in(G, sylow(G, 3), 3)[0]

    def prepare(G):
        cayley_table(G)
        order_3_in_sylow(G)

    calls = [("frattini", frattini),
             ("hall {2}", lambda G: hall(G, {2})),
             ("is_complemented",
              lambda G: is_complemented(G, order_3_in_sylow(G)))]
    print("\nsoluble routes, fresh group each:")
    print(f"{'group':<10}{'order':>6}"
          + "".join(f"{name:>17}" for name, _ in calls))
    for name, make in [("C3^4:C4", c3_4_c4), ("C3^4:C2", index_2_of_c3_4_c4)]:
        row = [timed_fresh(make, call, before=prepare) for _, call in calls]
        print(f"{name:<10}{make().order:>6}"
              + "".join(f"{t * 1000:>15.1f}ms" for t in row))
    print(f"{'Phi(E)':<10}{'|E|':>6}{'|G|':>6}{'_frattini_in':>14}"
          f"{'standalone':>13}")
    for name, make, order in [
            ("C3^4:C4", c3_4_c4, 162),
            ("F7^2:S3", lambda: builtin_corpus().group("F7^2:S3"), 147),
            ("SL23xC2", lambda: build_directive(
                "dp:linear:3:2:0,2,1,0;1,1,0,1xcyclic:2"), 24)]:
        def normal(G, order=order):
            return next(N for N in normal_subgroups(G) if N.order == order)

        def standalone(G):
            E = normal(G)
            return G.subgroup(E.idx[frattini(E.as_group()).idx])
        in_g = timed_fresh(make, lambda G: _frattini_in(G, normal(G)),
                           before=normal)
        alone = timed_fresh(make, standalone, before=normal)
        print(f"{name:<10}{order:>6}{make().order:>6}{in_g * 1000:>12.1f}ms"
              f"{alone * 1000:>11.1f}ms")


def sweep_sections():
    """The arguments of every section a cold builtin sweep builds."""
    built = []
    inner = theorems.section_as_module

    def recorded(*args):
        module = inner(*args)
        built.append(args)
        return module
    theorems.section_as_module = recorded
    try:
        run_corpus(builtin_corpus())
    finally:
        theorems.section_as_module = inner
    return built


def singular_matrices():
    """(matrix, p) for every ``groups._singular`` call of one build of each
    check-pi pool group."""
    seen = []
    inner = groups._singular

    def recorded(mat, p):
        seen.append((mat.copy(), p))
        return inner(mat, p)
    groups._singular = recorded
    try:
        for g in json.loads(POOL.read_text(encoding="utf-8"))["groups"]:
            build_directive(g["directive"])
    finally:
        groups._singular = inner
    return seen


def module_functions():
    """The module layer by function over the sweep's sections, and rref on
    the matrices of groups._singular."""
    sections = sweep_sections()
    modules = [section_as_module(*args) for args in sections]

    def fresh():
        return [FpModule(M.p, M.dim, M.acting_gens) for M in modules]

    def homogeneous(M):
        try:
            return homogeneous_constituents(M)[1]
        except (NotSemisimpleContext, ClosureCapExceeded):
            return []
    constituents = [c for M in fresh() for c in homogeneous(M)]
    rows = [("section_as_module", len(sections),
             lambda: [section_as_module(*args) for args in sections]),
            ("minimal_submodules", len(modules),
             lambda: [minimal_submodules(M) for M in fresh()]),
            ("is_irreducible", len(modules),
             lambda: [is_irreducible(M) for M in fresh()]),
            ("homogeneous_constituents", len(modules),
             lambda: [homogeneous(M) for M in fresh()]),
            ("module_hom_space_dim (End)", len(constituents),
             lambda: [module_hom_space_dim(c, c) for c in constituents])]
    print(f"\nmodule layer by function, the {len(sections)} sections of a "
          f"cold builtin sweep (best of 3):")
    print(f"{'function':<28}{'calls':>6}{'total':>11}")
    for name, calls, fn in rows:
        print(f"{name:<28}{calls:>6}{timed(fn) * 1000:>9.2f}ms")
    mats = singular_matrices()
    print(f"rref on the {len(mats)} matrices groups._singular checks in one "
          f"build of each check-pi pool group:")
    for k in sorted({m.shape[0] for m, _ in mats}):
        of_size = [(m, p) for m, p in mats if m.shape[0] == k]
        each = per_call_us(lambda: [rref(m, p) for m, p in of_size], 500)
        print(f"  {k}x{k}: {len(of_size):>2} matrices, "
              f"{each / len(of_size):6.1f}us a call")
    total = per_call_us(lambda: [rref(m, p) for m, p in mats], 500)
    print(f"  a check-pi pass ({REQUESTS_PER_GROUP} builds of each group, "
          f"{REQUESTS_PER_GROUP * len(mats)} calls): "
          f"{total * REQUESTS_PER_GROUP / 1000:.2f}ms")


def module_layer():
    """The section P/1 under a Hall p'-complement, analysed on fresh groups
    with P and the complement found; then the quaternion-free test and the
    lemma that calls it, on fresh groups with their tables built."""
    module_functions()
    print("\nmodule layer, fresh group each:")
    print(f"{'group':<10}{'p':>3}{'lines':>7}{'section analysis':>19}")
    for name, p in [("C2^4:C3", 2), ("C3^4:C4", 3)]:
        def make():
            return builtin_corpus().group(name)

        def prepare(G):
            return sylow(G, p), hall_complement(G, p)

        def analyse(G):
            P, H = prepare(G)
            return _section_constituents(G, P, G.trivial_subgroup(), H, p,
                                         DEFAULT_CAPS)
        seconds = timed_fresh(make, analyse, before=prepare)
        G = make()
        prepare(G)
        lines = vectors_spun(analyse, G)
        print(f"{name:<10}{p:>3}{lines:>7}{seconds * 1000:>17.2f}ms")

    def hypercenter_lemma(G):
        return run_check(G, "lemma:cyclic-in-hypercenter", {"p": 2})

    makers = [("C2^5", lambda: elementary_abelian(2, 5)),
              ("D8xD8", lambda: build_directive("dp:dihedral:8xdihedral:8")),
              ("Q8xQ8xC2", lambda: build_directive(
                  "dp:quaternion:8xquaternion:8xcyclic:2"))]
    print(f"{'group':<10}{'order':>6}{'is_quaternion_free':>20}"
          f"{'cyclic-in-hypercenter':>23}")
    for name, make in makers:
        row = [timed_fresh(make, is_quaternion_free, before=cayley_table),
               timed_fresh(make, hypercenter_lemma, before=cayley_table)]
        print(f"{name:<10}{make().order:>6}{row[0] * 1000:>18.1f}ms"
              f"{row[1] * 1000:>21.1f}ms")


def pi_by_search(G, P):
    """The Pi questions of quotient-inheritance and series-through, one
    chain search per pair; returns the number of searches."""
    p = _prime_power(P.order)
    nodes = normal_subgroups(G)
    searches = 0
    for H in subgroups_in(G, P).all:
        searches += 1
        if not satisfies_partial_pi(G, H)[0]:
            continue
        for N in nodes:
            if 1 < N.order < G.order and (
                    H.contains(N) or math.gcd(H.order, N.order) == 1):
                satisfies_partial_pi(G, H, bottom=N)
                searches += 1
            if N.contains(H):
                pi_series_through(G, H, N, p)
                searches += 1
    return searches


def pi_family_rows():
    makers = [("C3^4:C4", c3_4_c4, 3),
              ("C2^5", lambda: elementary_abelian(2, 5), 2),
              ("D8xD8", lambda: build_directive("dp:dihedral:8xdihedral:8"), 2),
              ("Q8xQ8xC2", lambda: build_directive(
                  "dp:quaternion:8xquaternion:8xcyclic:2"), 2)]
    print("\nPi verdicts of every subgroup of P, fresh group each:")
    print(f"{'group':<10}{'p':>3}{'|P|':>5}{'H':>6}{'nodes':>7}"
          f"{'searches':>10}{'per-pair search':>17}{'pi_family':>12}")
    for name, make, p in makers:
        def prepare(G, p=p):
            P = sylow(G, p)
            for N in normal_subgroups(G):
                _chief_children(G, N)
            subgroups_in(G, P)
            return P
        family = timed_fresh(make, lambda G: pi_family(G, prepare(G)),
                             before=prepare)
        G = make()
        P = prepare(G)
        t0 = time.perf_counter()
        searches = pi_by_search(G, P)
        search = time.perf_counter() - t0
        print(f"{name:<10}{p:>3}{P.order:>5}{len(subgroups_in(G, P)):>6}"
              f"{len(normal_subgroups(G)):>7}{searches:>10}"
              f"{search * 1000:>15.1f}ms{family * 1000:>10.1f}ms")


def complement_and_cap_rows():
    """The complement and partial CAP verdicts of every subgroup of P
    against one search per subgroup, on fresh ``C3^4:C4`` at p = 3."""
    def prepare(G):
        P = sylow(G, 3)
        for N in normal_subgroups(G):
            _chief_children(G, N)
        subgroups_in(G, P)
        return P

    def per_h(search):
        G = c3_4_c4()
        P = prepare(G)
        t0 = time.perf_counter()
        for H in subgroups_in(G, P).all:
            search(G, H)
        return time.perf_counter() - t0

    rows = [("complement", "complement_family", complement_family,
             is_complemented),
            ("partial CAP", "pi_family (Pi too)", pi_family,
             satisfies_partial_cap)]
    G = c3_4_c4()
    P = prepare(G)
    print(f"\nverdicts of all {len(subgroups_in(G, P))} subgroups of P, "
          f"C3^4:C4 at p = 3, fresh group each:")
    print(f"{'verdict':<13}{'per-H search':>14}{'family':>22}")
    for name, label, family, search in rows:
        best = timed_fresh(c3_4_c4, lambda G: family(G, prepare(G)),
                           before=prepare)
        print(f"{name:<13}{per_h(search) * 1000:>12.1f}ms"
              f"{label:>20} {best * 1000:.1f}ms")


def main():
    rows = [(name, timed(fn)) for name, fn in workloads()]
    width = max(len(name) for name, _ in rows)
    print(f"{'workload':<{width}}  {'time':>10}")
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds * 1000:>8.2f}ms")
    kernel_calls()
    group_builds()
    lattice_builds()
    soluble_routes()
    module_layer()
    pi_family_rows()
    complement_and_cap_rows()


if __name__ == "__main__":
    main()
