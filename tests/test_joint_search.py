"""The pruned joint-eigenspace search against the full product search."""

import gc
import itertools

import numpy as np
import pytest

from sphere_twobody.ladder import build_ladder_rep, operator_matrices
from sphere_twobody.liealg import AlgebraLabel
from sphere_twobody.oracle import JointEigenspace, _eigenvalue_clusters, joint_diagonalize
from sphere_twobody.suites import _ladder_weights


def full_search(mats, tol=1e-10):
    """The unpruned search: one full-stack SVD for every cluster combination."""
    mats = [np.asarray(M, dtype=complex) for M in mats]
    d = mats[0].shape[0]
    scale = max(1.0, *(np.abs(M).max() for M in mats))
    ctol = max(tol, 1e-8) * scale
    clusters = [_eigenvalue_clusters(M, ctol) for M in mats]
    out = []
    for combo in itertools.product(*clusters):
        stack = np.vstack([M - lam * np.eye(d) for M, lam in zip(mats, combo)])
        _, sv, vh = np.linalg.svd(stack)
        null_dim = int(np.sum(sv <= tol * max(1.0, sv[0] if len(sv) else 1.0)))
        if null_dim == 0:
            continue
        basis = vh.conj().T[:, d - null_dim:]
        out.append(JointEigenspace(tuple(combo), basis))
    out.sort(key=lambda js: tuple((round(v.real, 9), round(v.imag, 9)) for v in js.eigenvalues))
    return out


def assert_identical(got, want):
    assert [js.eigenvalues for js in got] == [js.eigenvalues for js in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.basis, w.basis)


def ladder_family(alg, weight, with_d3):
    ops = operator_matrices(build_ladder_rep(alg, weight))
    d0 = ops.D0.to_numpy()
    family = [d0 @ d0, ops.D1.to_numpy(), ops.D2.to_numpy()]
    return family + [ops.D3.to_numpy()] if with_d3 else family


@pytest.mark.parametrize("with_d3", [False, True])
def test_pruned_search_matches_full_search_on_criterion_2_sweep(with_d3):
    found = 0
    for alg, w in _ladder_weights(4, 6):
        family = ladder_family(alg, w, with_d3)
        got = joint_diagonalize(family, require_commuting=False)
        assert_identical(got, full_search(family))
        found += len(got)
    assert found == (50 if with_d3 else 172)


def _random_family(rng, d, count, shared):
    """count matrices sharing `shared` eigenvectors with eigenvalues 0 or 1,
    so joint eigenspaces of dimension above one occur; the other blocks do
    not commute."""
    P = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    P_inv = np.linalg.inv(P)
    family = []
    for _ in range(count):
        block = np.zeros((d, d), dtype=complex)
        block[:shared, :shared] = np.diag(rng.integers(0, 2, shared))
        block[shared:, shared:] = rng.standard_normal((d - shared, d - shared))
        family.append(P @ block @ P_inv)
    return family


@pytest.mark.parametrize("seed", range(8))
def test_pruned_search_matches_full_search_on_random_families(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    family = _random_family(rng, d, int(rng.integers(2, 5)), int(rng.integers(0, d + 1)))
    got = joint_diagonalize(family, require_commuting=False)
    assert_identical(got, full_search(family))


def test_pruned_search_svd_count(monkeypatch):
    # B2 (0, 8) is 9-dimensional; its clusters number 5, 9, 9, 9, so the
    # full product takes 3645 SVDs.  Pruning stops every branch by the
    # second matrix: at most 5 + 5 * 9 partial SVDs.
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    family = ladder_family(AlgebraLabel("B", 2), (0, 8), with_d3=True)
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert joint_diagonalize(family, require_commuting=False) == []
    assert len(calls) <= 50


def test_search_leaves_no_reference_cycle():
    # a call's matrices and partial stacks are freed when it returns, not
    # whenever the cyclic garbage collector next runs
    family = ladder_family(AlgebraLabel("B", 2), (1, 2), with_d3=False)
    gc.collect()
    gc.disable()
    try:
        assert joint_diagonalize(family, require_commuting=False)
        assert gc.collect() == 0
    finally:
        gc.enable()
