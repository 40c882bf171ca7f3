"""SCORE normalization, the greedy vertex hunt against an exhaustive
max-volume oracle, and simplex weight recovery."""

import numpy as np
import pytest

from tensortopics import spa_vertex_hunt
from tensortopics.errors import FitDegenerateError
from tensortopics.simplex import recover_weights, score_normalize

from helpers import max_volume_subset


def _ideal_cloud(seed, k=3, interior=50):
    """Anchor vertices first, then convex combinations of them."""
    rng = np.random.default_rng(seed)
    vertices = rng.normal(size=(k, k - 1)) * 3.0
    weights = rng.dirichlet(np.ones(k) * 1.5, size=interior)
    return np.vstack([vertices, weights @ vertices]), vertices


def test_score_reconstruction_identity():
    rng = np.random.default_rng(30)
    xi = rng.uniform(0.1, 1.0, size=(20, 4))
    sc = score_normalize(xi)
    np.testing.assert_array_equal(sc.kept, np.arange(20))
    rebuilt = sc.first_col[:, None] * np.column_stack([np.ones(20), sc.s])
    assert np.max(np.abs(rebuilt - xi)) < 1e-12


def test_score_drops_nonpositive_rows():
    xi = np.array([[1.0, 2.0], [0.0, 5.0], [-1.0, 3.0], [2.0, 1.0]])
    sc = score_normalize(xi)
    np.testing.assert_array_equal(sc.kept, [0, 3])
    np.testing.assert_allclose(sc.s[:, 0], [2.0, 0.5])


def test_score_all_nonpositive_raises():
    with pytest.raises(FitDegenerateError):
        score_normalize(np.array([[-1.0, 2.0], [0.0, 1.0]]))


def test_spa_unit_rows_plus_mean():
    points = np.vstack([np.eye(3), np.full((1, 3), 1 / 3)])
    hunt = spa_vertex_hunt(points, 3)
    assert sorted(hunt.indices.tolist()) == [0, 1, 2]
    np.testing.assert_array_equal(np.sort(hunt.v.sum(axis=1)), [1.0, 1.0, 1.0])


def test_spa_matches_max_volume_oracle_on_ideal_simplex():
    """K=3 vertices in the plane among 53 points: greedy pick equals the
    exhaustive maximum-volume subset."""
    points, _ = _ideal_cloud(seed=31)
    hunt = spa_vertex_hunt(points, 3)
    oracle = max_volume_subset(points, 3)
    assert sorted(hunt.indices.tolist()) == sorted(oracle.tolist())
    assert sorted(hunt.indices.tolist()) == [0, 1, 2]


def test_spa_stable_under_small_perturbation():
    """Perturbing an ideal cloud by eps moves recovered vertices by O(eps)."""
    eps = 1e-6
    worst = 0.0
    for seed in range(100):
        points, vertices = _ideal_cloud(seed=400 + seed)
        rng = np.random.default_rng(900 + seed)
        noisy = points + rng.uniform(-eps, eps, size=points.shape)
        hunt = spa_vertex_hunt(noisy, 3)
        err = 0.0
        for v in vertices:
            err = max(err, np.min(np.linalg.norm(hunt.v - v, axis=1)))
        worst = max(worst, err)
    assert worst <= 20 * eps


def test_spa_duplicate_rows_lowest_index_and_no_repicks():
    points = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.1, 0.1]])
    hunt = spa_vertex_hunt(points, 3)
    assert hunt.indices[0] == 0
    assert len(set(hunt.indices.tolist())) == 3


def test_spa_k_bounds():
    with pytest.raises(ValueError):
        spa_vertex_hunt(np.zeros((2, 2)), 3)
    with pytest.raises(ValueError):
        spa_vertex_hunt(np.zeros((2, 2)), 0)


def test_recover_weights_exact():
    rng = np.random.default_rng(32)
    v = rng.normal(size=(3, 3)) + np.eye(3) * 2
    w_true = rng.dirichlet(np.ones(3), size=40)
    s = w_true @ v
    w = recover_weights(s, v)
    assert np.max(np.abs(w - w_true)) < 1e-10
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_recover_weights_clips_and_renormalizes():
    v = np.eye(2)
    s = np.array([[1.2, -0.2], [0.5, 0.5]])
    w = recover_weights(s, v)
    np.testing.assert_allclose(w[0], [1.0, 0.0])
    np.testing.assert_allclose(w[1], [0.5, 0.5])
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_recover_weights_all_negative_row_becomes_uniform():
    v = np.eye(2)
    w = recover_weights(np.array([[-1.0, -2.0]]), v)
    np.testing.assert_allclose(w, [[0.5, 0.5]])


def test_recover_weights_singular_vertices():
    v = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(FitDegenerateError):
        recover_weights(np.ones((3, 2)), v)
