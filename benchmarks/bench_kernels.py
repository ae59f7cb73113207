"""Benchmark the numba kernels against the pure-numpy fallbacks.

Both implementations live in partialpi._kernels, so this script times them
side by side on the workloads that dominate real runs: subgroup closures,
normalizer scans, conjugacy classes, product sets and module spinning.
A second section times the per-group builds that single-subgroup checks
pay on every fresh group, the Cayley table and the normal subgroups, with
the active backend. A third section times the subgroup lattice on fresh
groups and counts the closures it takes.

Run:  python benchmarks/bench_kernels.py
(When PARTIALPI_NUMBA=0 the numba column is skipped.)
"""

import time

import numpy as np

from partialpi import _kernels
from partialpi.chiefs import normal_subgroups
from partialpi.corpus import builtin_corpus
from partialpi.groups import elementary_abelian
from partialpi.perms import _DTYPE
from partialpi.structure import _lattice


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
    subs60 = [np.flatnonzero(_kernels.NUMPY_IMPL["closure_idx"](t60, s)).astype(_DTYPE)
              for s in pair_seeds[:25]]
    sub294 = np.flatnonzero(
        _kernels.NUMPY_IMPL["closure_idx"](t294, np.array([1, 5], dtype=_DTYPE))
    ).astype(_DTYPE)
    r = np.array([[0, 6], [1, 6]], dtype=np.int64)
    s = np.array([[0, 1], [1, 0]], dtype=np.int64)
    mats = np.stack([np.kron(np.eye(2, dtype=np.int64), r),
                     np.kron(np.eye(2, dtype=np.int64), s)])
    weights = 7 ** np.arange(3, -1, -1, dtype=np.int64)

    def closure_storm(impl):
        for seed in pair_seeds:
            impl["closure_idx"](t60, seed)

    def normalizer_storm(impl):
        for sub in subs60:
            impl["normalizer_mask"](t60, i60, sub)
        impl["normalizer_mask"](t294, i294, sub294)

    def centralizer_storm(impl):
        for sub in subs60:
            impl["centralizer_mask"](t60, sub)

    def classes(impl):
        impl["class_min_rep"](t60, i60)
        impl["class_min_rep"](t294, i294)

    def products(impl):
        for sub in subs60:
            impl["product_mask"](t60, sub, subs60[0])

    def spins(impl):
        for code in range(1, 7 ** 4, 9):
            v = (code // weights) % 7
            impl["spin_basis"](mats, v.astype(np.int64), 7)

    return [("closure x61 (|G|=60)", closure_storm),
            ("normalizer x26", normalizer_storm),
            ("centralizer x25", centralizer_storm),
            ("class reps (60+294)", classes),
            ("product sets x25", products),
            ("spin_basis x267 (F_7^4)", spins)]


def cayley_table(G):
    return G.table


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


def group_builds():
    makers = [("C2^5", lambda: elementary_abelian(2, 5)),
              ("C3^4", lambda: elementary_abelian(3, 4)),
              ("C3^4:C4", lambda: builtin_corpus().group("C3^4:C4"))]
    print(f"\nper-group builds, fresh group each ({_kernels.BACKEND}):")
    print(f"{'group':<10}{'Group.table':>14}{'normal_subgroups':>18}")
    for name, make in makers:
        table = timed_fresh(make, cayley_table)
        normals = timed_fresh(make, normal_subgroups, before=cayley_table)
        print(f"{name:<10}{table * 1000:>12.2f}ms{normals * 1000:>16.2f}ms")


def c3_4_c4():
    return builtin_corpus().group("C3^4:C4")


def index_2_of_c3_4_c4():
    """The order-162 normal subgroup of C3^4:C4 as a standalone group."""
    G = c3_4_c4()
    return next(N for N in normal_subgroups(G) if N.order == 162).as_group()


def closure_calls(build, G) -> int:
    """How many closure_idx calls ``build(G)`` makes."""
    kernel, calls = _kernels.closure_idx, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)
    _kernels.closure_idx = counted
    try:
        build(G)
    finally:
        _kernels.closure_idx = kernel
    return calls


def lattice_builds():
    makers = [("C3^4:C4", c3_4_c4),
              ("C3^4:C2", index_2_of_c3_4_c4),
              ("GL(3,2)", lambda: builtin_corpus().group("GL(3,2)")),
              ("C2^5", lambda: elementary_abelian(2, 5))]
    print(f"\nsubgroup lattice, fresh group each ({_kernels.BACKEND}):")
    print(f"{'group':<10}{'order':>6}{'subgroups':>11}{'closures':>10}"
          f"{'_lattice':>12}")
    for name, make in makers:
        seconds = timed_fresh(make, _lattice, before=cayley_table)
        G = make()
        calls = closure_calls(_lattice, G)
        print(f"{name:<10}{G.order:>6}{len(_lattice(G)):>11}{calls:>10}"
              f"{seconds * 1000:>10.1f}ms")


def main():
    impls = [("numpy", _kernels.NUMPY_IMPL)]
    if _kernels.NUMBA_IMPL is not None:
        impls.append(("numba", _kernels.NUMBA_IMPL))
        for name, fn in workloads():  # warm the JIT outside the timings
            fn(_kernels.NUMBA_IMPL)
            break
    rows = []
    for name, fn in workloads():
        times = {}
        for backend, impl in impls:
            if backend == "numba":
                fn(impl)  # warmup for this kernel
            times[backend] = timed(lambda: fn(impl))
        rows.append((name, times))
    width = max(len(n) for n, _ in rows)
    header = f"{'workload':<{width}}  " + "".join(f"{b:>12}" for b, _ in impls)
    if len(impls) == 2:
        header += f"{'speedup':>10}"
    print(f"active backend: {_kernels.BACKEND}")
    print(header)
    for name, times in rows:
        line = f"{name:<{width}}  " + "".join(
            f"{times[b] * 1000:>10.2f}ms" for b, _ in impls)
        if len(impls) == 2 and times["numba"] > 0:
            line += f"{times['numpy'] / times['numba']:>9.1f}x"
        print(line)
    group_builds()
    lattice_builds()


if __name__ == "__main__":
    main()
