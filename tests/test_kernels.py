"""Backend equivalence: the numba kernels and the numpy fallbacks must be
interchangeable on identical inputs. Without numba the loop kernels are
checked as plain Python instead."""

import numpy as np
import pytest

from partialpi import _kernels
from partialpi.groups import symmetric, dicyclic
from partialpi.perms import _DTYPE

BACKENDS = [("numpy", _kernels.NUMPY_IMPL)]
if _kernels.NUMBA_IMPL is not None:
    BACKENDS.append(("numba", _kernels.NUMBA_IMPL))
else:
    BACKENDS.append(("loop", _kernels.LOOP_IMPL))


@pytest.fixture(scope="module")
def s4():
    return symmetric(4)


def _pairs():
    assert len(BACKENDS) >= 1
    return BACKENDS


def test_backends_available():
    # the active backend matches the env selection
    assert _kernels.BACKEND in ("numba", "numpy")


@pytest.mark.parametrize("name", ["closure_idx", "normalizer_mask",
                                  "centralizer_mask", "product_mask"])
def test_subgroup_kernels_agree(s4, name):
    table, inv = s4.table, s4.inverses
    seeds = [np.array([], dtype=_DTYPE),
             np.array([1], dtype=_DTYPE),
             np.array([5, 9], dtype=_DTYPE),
             np.arange(0, 24, 3, dtype=_DTYPE)]
    for seed in seeds:
        results = []
        for _, impl in _pairs():
            if name == "closure_idx":
                results.append(impl[name](table, seed))
            elif name == "product_mask":
                results.append(impl[name](table, seed, np.array([0, 2], dtype=_DTYPE)))
            else:
                sub = np.flatnonzero(impl["closure_idx"](table, seed)).astype(_DTYPE)
                results.append(impl[name](table, inv, sub) if name == "normalizer_mask"
                               else impl[name](table, sub))
        for r in results[1:]:
            assert np.array_equal(results[0], r)


def test_class_reps_agree(s4):
    outs = [impl["class_min_rep"](s4.table, s4.inverses)
            for _, impl in _pairs()]
    for r in outs[1:]:
        assert np.array_equal(outs[0], r)
    # S4 has 5 conjugacy classes
    assert len(np.unique(outs[0])) == 5


def test_closure_matches_brute_force(s4):
    table = s4.table
    gens = np.array([s4.index_of(p) for p in s4.generators], dtype=_DTYPE)
    for _, impl in _pairs():
        mask = impl["closure_idx"](table, gens)
        assert int(mask.sum()) == 24
    # subgroup generated by a transposition and a 3-cycle fixing a point: S3
    from partialpi.perms import parse_cycles
    sub_gens = np.array([s4.index_of(parse_cycles("(1 2)", 4)),
                         s4.index_of(parse_cycles("(1 2 3)", 4))], dtype=_DTYPE)
    for _, impl in _pairs():
        assert int(impl["closure_idx"](table, sub_gens).sum()) == 6


def test_spin_basis_agree():
    q8 = dicyclic(8)  # just to have deterministic seeds around
    rng = np.random.default_rng(7)
    for p, k in [(2, 3), (3, 2), (5, 2), (7, 2)]:
        for _ in range(5):
            g = rng.integers(1, 3)
            mats = []
            while len(mats) < g:
                cand = rng.integers(0, p, size=(k, k)).astype(np.int64)
                if round(np.linalg.det(cand)) % p:
                    mats.append(cand)
            mats = np.stack(mats)
            v = rng.integers(0, p, size=k).astype(np.int64)
            if not v.any():
                v[0] = 1
            outs = []
            for _, impl in _pairs():
                basis, pivots, nrows = impl["spin_basis"](mats, v, p)
                outs.append(basis[:nrows].copy())
            for r in outs[1:]:
                assert np.array_equal(outs[0], r)
            # invariance re-check: every basis image stays inside the span
            span = outs[0]
            for m in mats:
                for row in span:
                    img = (m @ row) % p
                    aug = np.vstack((span, img))
                    from partialpi.modrep import rref
                    assert rref(aug, p)[0].shape[0] == span.shape[0]
