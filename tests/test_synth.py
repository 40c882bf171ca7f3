"""Generator distribution checks: Dirichlet/multinomial statistics, anchors,
seeded determinism, and plain-CLT agreement between counts and means."""

import numpy as np
import pytest
from scipy import stats

from tensortopics import GenSpec, generate, sample_counts
from tensortopics.errors import DataFormatError
from tensortopics.synth import sample_dirichlet, sample_multinomial, substream

from helpers import planted


def test_dirichlet_mean_matches_theory():
    rng = np.random.default_rng(100)
    alpha = np.array([0.5, 1.0, 2.0])
    draws = np.array([sample_dirichlet(alpha, rng) for _ in range(100_000)])
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    mean = alpha / alpha.sum()
    # symmetric-Dirichlet marginals are Beta(a_i, a_rest); 3 standard errors
    var = mean * (1 - mean) / (alpha.sum() + 1)
    se = np.sqrt(var / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se + 1e-4)


def test_dirichlet_length_one():
    rng = np.random.default_rng(101)
    np.testing.assert_array_equal(sample_dirichlet([3.7], rng), [1.0])


def test_multinomial_zero_draws_and_one_hot():
    rng = np.random.default_rng(102)
    np.testing.assert_array_equal(sample_multinomial(0, [0.3, 0.7], rng), [0, 0])
    out = sample_multinomial(9, [0.0, 1.0, 0.0], rng)
    np.testing.assert_array_equal(out, [0, 9, 0])


def test_multinomial_goodness_of_fit():
    rng = np.random.default_rng(103)
    p = np.array([0.2, 0.3, 0.5])
    m = 50
    total = np.zeros(3)
    for _ in range(10_000):
        total += sample_multinomial(m, p, rng)
    expected = 10_000 * m * p
    chi2 = float(((total - expected) ** 2 / expected).sum())
    # conservative: cell totals are sums of multinomials, df = 2
    assert chi2 < stats.chi2.isf(1e-4, df=2)


def test_multinomial_validation():
    rng = np.random.default_rng(104)
    with pytest.raises(DataFormatError):
        sample_multinomial(-1, [1.0], rng)
    with pytest.raises(DataFormatError):
        sample_multinomial(5, [0.5, -0.5], rng)
    with pytest.raises(DataFormatError):
        sample_multinomial(5, [0.4, 0.4], rng)
    with pytest.raises(DataFormatError):
        sample_multinomial(5, [np.nan, 1.0], rng)


def test_spec_validation():
    with pytest.raises(DataFormatError):
        GenSpec(dims=(0, 3, 4), ranks=(1, 1, 2), doc_length=10)
    with pytest.raises(DataFormatError):
        GenSpec(dims=(4, 3, 4), ranks=(5, 1, 2), doc_length=10)
    with pytest.raises(DataFormatError):
        GenSpec(dims=(4, 3, 4), ranks=(1, 1, 2), doc_length=0)
    with pytest.raises(DataFormatError):
        GenSpec(dims=(4, 3, 4), ranks=(1, 1, 2), doc_length=10, dirichlet_alpha=0.0)
    with pytest.raises(DataFormatError):
        GenSpec(dims=(4, 3, 4), ranks=(1, 1, 2), doc_length=10, word_dist="zipfian")
    with pytest.raises(DataFormatError):
        GenSpec(dims=(4, 3, 4), ranks=(1, 1, 2), doc_length=10, anchor_mode="maybe")


def test_model_constraints_and_anchors():
    inst = planted((12, 8, 30), (3, 2, 4), doc_length=40, seed=9)
    m = inst.model
    m.validate()
    np.testing.assert_array_equal(m.a1[:3], np.eye(3))
    np.testing.assert_array_equal(m.a2[:2], np.eye(2))
    # anchor words: first k3 rows of a3 are single-topic
    for k in range(4):
        row = m.a3[k]
        assert row[k] > 0
        assert np.all(row[np.arange(4) != k] == 0.0)


def test_anchor_mode_none_leaves_rows_mixed():
    inst = planted((12, 8, 30), (3, 2, 4), doc_length=40, seed=9,
                   anchor_mode="none")
    assert not np.allclose(inst.model.a1[:3], np.eye(3))
    assert np.all(inst.model.a3[:4] > 0)


def test_counts_per_document_sum_to_doc_length():
    inst = planted((6, 5, 20), (2, 2, 2), doc_length=37, seed=1)
    np.testing.assert_array_equal(inst.counts.sum(axis=2), 37)
    np.testing.assert_allclose(inst.y, inst.counts / 37)


def test_generate_deterministic():
    spec = GenSpec(dims=(6, 5, 20), ranks=(2, 2, 2), doc_length=37, seed=123)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.model.a3, b.model.a3)
    np.testing.assert_array_equal(a.d, b.d)


def test_documents_use_independent_substreams():
    """Each document owns a seed-derived stream, so any single document's
    counts can be regenerated in isolation, in any order."""
    inst = planted((4, 3, 10), (2, 2, 2), doc_length=25, seed=77)
    redone = sample_counts(inst.d, 25, seed=77)
    np.testing.assert_array_equal(redone, inst.counts)
    for i, j in [(3, 2), (0, 0), (2, 1)]:
        rng = substream(77, 1, i * 3 + j)
        doc = rng.multinomial(25, inst.d[i, j])
        np.testing.assert_array_equal(doc, inst.counts[i, j])


def test_counts_clt_agreement_with_mean_tensor():
    """Across 200 reseeded count draws the empirical mean tensor stays within
    4 binomial standard errors of D for at least 99% of entries."""
    inst = planted((4, 3, 20), (2, 2, 2), doc_length=50, seed=5)
    trials = 200
    acc = np.zeros_like(inst.d)
    for t in range(trials):
        acc += sample_counts(inst.d, 50, seed=1000 + t)
    freq = acc / (trials * 50)
    se = np.sqrt(inst.d * (1 - inst.d) / (trials * 50))
    ok = np.abs(freq - inst.d) <= 4 * se + 1e-12
    assert ok.mean() >= 0.99


def test_zipf_word_distribution_is_head_heavy():
    flat = planted((6, 5, 200), (2, 2, 3), doc_length=30, seed=2)
    zipf = planted((6, 5, 200), (2, 2, 3), doc_length=30, seed=2,
                   word_dist="zipf", zipf_q=0.5)
    def head_tail_ratio(a3):
        mass = a3.sum(axis=1)
        return mass[:20].sum() / mass[-20:].sum()
    assert head_tail_ratio(zipf.model.a3) > 2 * head_tail_ratio(flat.model.a3)
