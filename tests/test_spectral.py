"""Gram construction, eigenvector conventions, and the power refinement."""

import numpy as np
import pytest

from tensortopics import build_q, leading_eigvecs, unfold
from tensortopics.spectral import _fix_signs, hooi_refine

from helpers import exact_mode_basis, hooi_reference, planted, subspace_gap


def test_build_q_hand_example_modes12():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(build_q(y, 1, 10), [[5.0, 11.0], [11.0, 25.0]])
    np.testing.assert_array_equal(build_q(y, 2, 10), [[5.0, 11.0], [11.0, 25.0]])


def test_build_q_mode3_centering():
    # identity rows: Y Y^T = I, row sums are 1, so centered Q = I - I/m
    y = np.eye(2)
    np.testing.assert_allclose(build_q(y, 3, 2), np.eye(2) / 2, atol=1e-15)
    np.testing.assert_array_equal(build_q(y, 3, 2, centered=False), np.eye(2))


def test_build_q_exactly_symmetric():
    rng = np.random.default_rng(21)
    y = rng.uniform(size=(40, 90))
    q = build_q(y, 1, 50)
    assert np.array_equal(q, q.T)
    q3 = build_q(y, 3, 50)
    assert np.array_equal(q3, q3.T)


def test_build_q_rejects_oversized_mode():
    with pytest.raises(ValueError):
        build_q(np.zeros((5001, 2)), 1, 10)
    with pytest.raises(ValueError):
        build_q(np.ones((2, 2)), 3, 0)


def test_sign_convention():
    vecs = np.array([[0.6, 1.0], [-0.8, -1.0]])
    fixed = _fix_signs(vecs.copy())
    # column 0 sums to -0.2 -> flipped; column 1 sums to 0 -> tie-break:
    # largest-magnitude entry (either, both 1.0 -> first) made positive
    np.testing.assert_allclose(fixed[:, 0], [-0.6, 0.8])
    np.testing.assert_allclose(fixed[:, 1], [1.0, -1.0])


def test_sign_tiebreak_zero_sum_column():
    q = np.array([[2.0, -1.0], [-1.0, 2.0]])
    xi, vals = leading_eigvecs(q, 2)
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
    # leading eigvec is ±(1,-1)/sqrt(2): zero sum, convention makes entry 0 positive
    assert xi[0, 0] > 0
    np.testing.assert_allclose(xi[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(xi[:, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                               atol=1e-12)


def test_eig_residual_and_orthonormality():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(60, 60))
    q = a @ a.T
    xi, vals = leading_eigvecs(q, 10)
    assert np.all(np.diff(vals) <= 1e-12)
    np.testing.assert_allclose(xi.T @ xi, np.eye(10), atol=1e-10)
    residual = np.linalg.norm(q @ xi - xi * vals, "fro")
    assert residual <= 1e-9 * np.linalg.norm(q, "fro")


def test_leading_eigvecs_k_range():
    with pytest.raises(ValueError):
        leading_eigvecs(np.eye(3), 0)
    with pytest.raises(ValueError):
        leading_eigvecs(np.eye(3), 4)


def test_noiseless_gram_has_exact_rank():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=100, seed=4)
    q = build_q(unfold(inst.d, 1), 1, 100)
    vals = np.linalg.eigvalsh(q)[::-1]
    assert vals[2] / vals[0] < 1e-8  # rank k1 = 2


def test_hooi_zero_iters_identity():
    inst = planted((10, 8, 15), (2, 2, 2), doc_length=30, seed=6)
    xi = tuple(exact_mode_basis(inst.d, m, 2) for m in (1, 2, 3))
    out = hooi_refine(inst.y, xi, iters=0)
    for a, b in zip(out, xi):
        np.testing.assert_array_equal(a, b)


def test_hooi_noiseless_fixed_point():
    """On exact data the true subspaces are invariant under a power sweep."""
    inst = planted((12, 9, 25), (2, 2, 3), doc_length=100, seed=8)
    xi = tuple(exact_mode_basis(inst.d, m, k) for m, k in ((1, 2), (2, 2), (3, 3)))
    out = hooi_refine(inst.d, xi, iters=1)
    for before, after in zip(xi, out):
        assert subspace_gap(before, after) < 1e-9


def test_hooi_helps_on_noisy_data():
    """Median subspace error over 20 noisy instances: 3 sweeps never lose to
    the plain spectral start by more than rounding."""
    gains = []
    for seed in range(20):
        inst = planted((30, 30, 100), (2, 2, 3), doc_length=200, seed=seed)
        xi = []
        for mode, k in ((1, 2), (2, 2), (3, 3)):
            q = build_q(unfold(inst.y, mode), mode, 200)
            xi.append(leading_eigvecs(q, k)[0])
        start = tuple(xi)
        refined = hooi_refine(inst.y, start, iters=3)
        truth = [exact_mode_basis(inst.d, m, k) for m, k in ((1, 2), (2, 2), (3, 3))]
        before = sum(subspace_gap(x, t) for x, t in zip(start, truth))
        after = sum(subspace_gap(x, t) for x, t in zip(refined, truth))
        gains.append(before - after)
    gains = np.asarray(gains)
    assert np.median(gains) >= -1e-6


@pytest.mark.parametrize("dims,ranks,seed", [
    ((20, 15, 40), (2, 2, 3), 1),
    ((18, 12, 30), (3, 2, 4), 2),
    ((16, 10, 30), (4, 2, 2), 3),  # k1 == k2 * k3: mode 1 keeps the whole projection
])
def test_hooi_matches_kronecker_reference(dims, ranks, seed):
    inst = planted(dims, ranks, doc_length=100, seed=seed)
    start = tuple(leading_eigvecs(build_q(unfold(inst.y, m), m, 100), k)[0]
                  for m, k in zip((1, 2, 3), ranks))
    refined = hooi_refine(inst.y, start, iters=3)
    reference = hooi_reference(inst.y, start, iters=3)
    for got, want in zip(refined, reference):
        assert got.shape == want.shape
        assert subspace_gap(got, want) <= 1e-12


def test_hooi_rejects_rank_beyond_projected_span():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=9)
    xi = tuple(exact_mode_basis(inst.d, m, k) for m, k in ((1, 5), (2, 2), (3, 2)))
    with pytest.raises(ValueError, match="mode 1 rank 5 exceeds the projected span 4"):
        hooi_refine(inst.y, xi, iters=1)
    with pytest.raises(ValueError, match="nonnegative"):
        hooi_refine(inst.y, xi, iters=-1)
