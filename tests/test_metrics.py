"""Loss alignment against brute force, split-half resolution, and the
scree diagnostic."""

import itertools

import numpy as np
import pytest

from tensortopics import (
    FitConfig,
    TuckerModel,
    aligned_l1_loss,
    evaluate,
    fit,
    reconstruction_error,
    scree,
    topic_resolution,
)
from tensortopics.metrics import (
    _align_brute,
    _align_hungarian,
    _column_cost,
    core_loss,
    cosine_match,
)

from helpers import planted


def test_aligned_loss_frozen_example():
    a = np.eye(2)
    a_hat = np.array([[0.9, 0.1], [0.0, 1.0]])
    loss, perm = aligned_l1_loss(a_hat, a)
    assert loss == pytest.approx(0.2, abs=1e-12)
    assert tuple(perm) == (0, 1)


def test_aligned_loss_zero_under_permutation():
    rng = np.random.default_rng(60)
    a = rng.uniform(size=(12, 4))
    sigma = [2, 0, 3, 1]
    loss, perm = aligned_l1_loss(a[:, sigma], a)
    assert loss == 0.0
    # perm[k] = fitted column holding true column k
    np.testing.assert_array_equal(np.asarray(sigma)[np.asarray(perm)],
                                  np.arange(4))


def test_core_loss_frozen_example():
    g = np.array([[[0.3, 0.7]]])
    g_hat = np.array([[[0.4, 0.6]]])
    loss = core_loss(g_hat, g, ((0,), (0,), (0, 1)))
    assert loss == pytest.approx(0.2, abs=1e-12)


def test_brute_force_equals_hungarian():
    rng = np.random.default_rng(61)
    for k in (2, 3, 5, 8):
        for _ in range(5):
            cost = rng.uniform(size=(k, k))
            lb, pb = _align_brute(cost)
            lh, ph = _align_hungarian(cost)
            assert lb == pytest.approx(lh, abs=1e-12)
            assert tuple(pb) == tuple(ph)


def test_aligned_loss_is_exact_minimum_under_ties():
    """Binary columns give small integer costs with many exact ties; the
    assignment solver must still return the exhaustive minimum."""
    rng = np.random.default_rng(63)
    for k in (2, 3, 4, 5, 6):
        for _ in range(10):
            a_hat = rng.integers(0, 2, size=(3, k)).astype(float)
            a = rng.integers(0, 2, size=(3, k)).astype(float)
            cost = _column_cost(a_hat, a)
            loss, perm = aligned_l1_loss(a_hat, a)
            assert loss == _align_brute(cost)[0]
            assert sorted(perm) == list(range(k))
            assert cost[list(perm), np.arange(k)].sum() == loss


def test_column_cost_is_entrywise_l1():
    rng = np.random.default_rng(62)
    a_hat = rng.uniform(size=(6, 3))
    a = rng.uniform(size=(6, 3))
    cost = _column_cost(a_hat, a)
    for i in range(3):
        for j in range(3):
            assert cost[i, j] == pytest.approx(
                np.abs(a_hat[:, i] - a[:, j]).sum(), abs=1e-12)


def test_core_loss_consistent_permutation_is_exhaustive_minimum():
    """When the fitted model is a consistently relabeled copy, the factor
    permutations drive the core loss to the exhaustive minimum (zero)."""
    inst = planted((10, 8, 25), (2, 2, 3), doc_length=40, seed=63)
    m = inst.model
    p1, p2, p3 = (1, 0), (1, 0), (2, 0, 1)
    shuffled = TuckerModel(
        a1=m.a1[:, p1], a2=m.a2[:, p2], a3=m.a3[:, p3],
        g=m.g[np.ix_(p1, p2, p3)])
    rep = evaluate(shuffled, m)
    assert rep.loss_a1 == 0.0
    assert rep.loss_a2 == 0.0
    assert rep.loss_a3 == 0.0
    assert rep.loss_g == pytest.approx(0.0, abs=1e-12)
    assert rep.recon_l1 == pytest.approx(0.0, abs=1e-12)
    # exhaustive check over all permutation triples: nothing beats the
    # factor-chosen alignment
    best = np.inf
    for q1 in itertools.permutations(range(2)):
        for q2 in itertools.permutations(range(2)):
            for q3 in itertools.permutations(range(3)):
                best = min(best, core_loss(shuffled.g, m.g, (q1, q2, q3)))
    assert rep.loss_g <= best + 1e-12


def test_core_loss_validates_permutations():
    g = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        core_loss(g, g, ((0, 0), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        core_loss(g, g, ((0, 1), (0, 1)))


def test_reconstruction_error_zero_on_truth():
    inst = planted((6, 5, 15), (2, 2, 2), doc_length=30, seed=64)
    assert reconstruction_error(inst.model, inst.d) == pytest.approx(0.0, abs=1e-10)


def test_cosine_match_zero_column():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    sims = cosine_match(a, b)
    assert sims[0] == pytest.approx(1.0, abs=1e-12)
    assert sims[1] == 0.0


def test_cosine_match_greedy_without_replacement():
    a = np.eye(3)
    b = np.eye(3)[:, [2, 0, 1]]
    sims = cosine_match(a, b)
    np.testing.assert_allclose(sims, 1.0, atol=1e-12)


def test_topic_resolution_duplicated_halves_is_one():
    """Both halves hold identical documents, so refits agree exactly."""
    inst = planted((12, 8, 30), (2, 2, 3), doc_length=60, seed=65)
    doubled = np.concatenate([inst.d, inst.d], axis=0)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=60, oracle=True,
                    sparse_c_prime=0.0)
    splits = [(np.arange(12), np.arange(12, 24))]
    median, iqr = topic_resolution(doubled, cfg, trials=1, splits=splits)
    assert median == pytest.approx(1.0, abs=1e-9)
    assert iqr == 0.0


def test_topic_resolution_disjoint_vocabularies_is_zero():
    """Halves supported on disjoint words share no topic directions."""
    first = planted((10, 6, 40), (2, 2, 2), doc_length=50, seed=66)
    second = planted((10, 6, 40), (2, 2, 2), doc_length=50, seed=67)
    d = np.zeros((20, 6, 80))
    d[:10, :, :40] = first.d
    d[10:, :, 40:] = second.d
    cfg = FitConfig(ranks=(2, 2, 2), doc_length=50, oracle=True,
                    sparse_c_prime=0.0)
    splits = [(np.arange(10), np.arange(10, 20))]
    median, _ = topic_resolution(d, cfg, trials=1, splits=splits)
    assert median == pytest.approx(0.0, abs=1e-9)


def test_topic_resolution_improves_with_doc_length():
    results = {}
    for m in (100, 10_000):
        inst = planted((30, 12, 40), (2, 2, 3), doc_length=m, seed=68)
        cfg = FitConfig(ranks=(2, 2, 3), doc_length=m)
        median, _ = topic_resolution(inst.y, cfg, trials=6,
                                     rng=np.random.default_rng(5))
        results[m] = median
    assert results[10_000] >= results[100]
    assert results[10_000] > 0.9


def test_topic_resolution_validates_half_size():
    inst = planted((6, 5, 15), (4, 2, 2), doc_length=30, seed=69)
    cfg = FitConfig(ranks=(4, 2, 2), doc_length=30)
    with pytest.raises(ValueError):
        topic_resolution(inst.y, cfg, trials=2)


def test_scree_descends_and_shows_rank_knee():
    inst = planted((25, 20, 60), (2, 2, 3), doc_length=2000, seed=70)
    for mode, k in ((1, 2), (2, 2), (3, 3)):
        values = scree(inst.y, mode, 8, 2000)
        assert values.shape == (8,)
        assert np.all(np.diff(values) <= 1e-12)
        # sharpest relative drop below the leading eigenvalue sits exactly
        # at the true rank
        ratios = values[1:-1] / values[2:]
        assert int(np.argmax(ratios)) + 2 == k


def test_evaluate_on_fitted_model_reports_finite_losses():
    inst = planted((20, 12, 40), (2, 2, 3), doc_length=200, seed=71)
    res = fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=200))
    rep = evaluate(res.model, inst.model)
    for value in (rep.loss_a1, rep.loss_a2, rep.loss_a3, rep.loss_g,
                  rep.recon_l1):
        assert np.isfinite(value) and value >= 0
    assert len(rep.perms) == 3
