"""End-to-end estimator checks: thresholding, per-mode recovery on exact
data (read off full oracle fits), core recovery, and full-fit determinism."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensortopics import (
    FitConfig,
    TuckerModel,
    aligned_l1_loss,
    build_q,
    evaluate,
    fit,
    leading_eigvecs,
    scree,
    threshold_vocab,
    unfold,
)
from tensortopics import estimator, spectral
from tensortopics.errors import DataFormatError, FitDegenerateError
from tensortopics.errors import _as_data as as_data
from tensortopics.estimator import fit_core

from helpers import arpack_pairs, layouts, planted, run_fresh


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
    a1 = fit(inst.model.mean_tensor(), _oracle_cfg((1, 2, 2), 30)).model.a1
    np.testing.assert_allclose(a1, np.ones((8, 1)), atol=1e-12)


@pytest.mark.parametrize("mode,k", [(1, 2), (2, 2)])
def test_fit_mode12_oracle_exact(mode, k):
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    model = fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 3), 500)).model
    a_hat = model.a1 if mode == 1 else model.a2
    truth = inst.model.a1 if mode == 1 else inst.model.a2
    assert a_hat.shape[1] == k
    loss, _ = aligned_l1_loss(a_hat, truth)
    assert loss < 1e-8
    np.testing.assert_allclose(a_hat.sum(axis=1), 1.0, atol=1e-9)
    assert a_hat.min() >= 0


def test_fit_mode3_oracle_exact_and_q0_law():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 3), 500))
    a3 = res.model.a3
    loss, perm = aligned_l1_loss(a3, inst.model.a3)
    assert loss < 1e-8
    # column sums of a3 are 1, entries nonnegative
    np.testing.assert_allclose(a3.sum(axis=0), 1.0, atol=1e-9)
    assert a3.min() >= 0
    # q0 equals the first column of the basis coordinates of A3: with
    # Xi = A3 @ B, column normalization forces q0[k] = B[k, 0]
    q = build_q(unfold(inst.model.mean_tensor(), 3), 3, 500, centered=False)
    xi, _ = leading_eigvecs(q, 3)
    b = np.linalg.lstsq(inst.model.a3, xi, rcond=None)[0]
    np.testing.assert_allclose(res.q0[np.asarray(perm)], b[:, 0], atol=1e-8)


def test_fit_mode3_anchor_rows_are_unit_weights():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 3), 500))
    # anchors are words 0..2; a word's simplex weights are its a3 row scaled
    # by the topic masses, so an anchor's normalized row is one-hot
    for anchor in range(3):
        row = res.model.a3[anchor] * res.q0
        assert row.sum() > 0
        assert (row / row.sum()).max() > 1 - 1e-8


def test_fit_mode3_requires_two_topics():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=43)
    with pytest.raises(ValueError, match="two topics"):
        fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 1), 30))


def test_fit_core_trivial_ranks():
    # a 1 x 1 x 2 core breaks the Tucker rank rule, so GenSpec cannot plant it
    w = np.random.default_rng(44).uniform(size=(10, 2))
    y = TuckerModel(a1=np.ones((5, 1)), a2=np.ones((4, 1)), a3=w / w.sum(axis=0),
                    g=np.array([[[0.3, 0.7]]])).mean_tensor()
    xi1 = np.full((5, 1), 1 / np.sqrt(5))
    xi2 = np.full((4, 1), 1 / np.sqrt(4))
    # rank-1 modes project onto constants; any orthonormal xi3 works since
    # tube renormalization restores scale
    u, _, _ = np.linalg.svd(unfold(y, 3), full_matrices=False)
    v3 = np.column_stack([np.ones(2), np.zeros(2)])
    g = fit_core(y, (xi1, xi2, u[:, :2]), (np.eye(1), np.eye(1), v3),
                 np.array([1.0, 1.0]))
    assert g.shape == (1, 1, 2)
    np.testing.assert_allclose(g.sum(), 1.0, atol=1e-12)


def test_fit_core_empty_tube_becomes_uniform():
    y = np.zeros((2, 2, 3))
    y[..., 0] = 1.0
    xi = (np.eye(2), np.eye(2), np.eye(3)[:, :2])
    # vertex maps chosen to zero out one tube entirely
    v3 = np.zeros((2, 2))
    g = fit_core(y, xi, (np.eye(2), np.eye(2), v3), np.array([1.0, 1.0]))
    np.testing.assert_allclose(g, 0.5)


def test_fit_oracle_recovers_everything():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 3), 500))
    rep = evaluate(res.model, inst.model)
    assert rep.loss_a1 < 1e-8
    assert rep.loss_a2 < 1e-8
    assert rep.loss_a3 < 1e-8
    assert rep.loss_g < 1e-8
    assert rep.recon_l1 < 1e-8
    res.model.validate()


def test_fit_reports_anchor_vertices_on_oracle_data():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=500, seed=7)
    res = fit(inst.model.mean_tensor(), _oracle_cfg((2, 2, 3), 500))
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
    with pytest.raises(DataFormatError, match="^hooi_iters must be a nonnegative integer"):
        FitConfig(ranks=(2, 2, 2), doc_length=30, use_hooi=True, hooi_iters=-1)
    for entry, kind in ((-0.5, "negative"), (np.nan, "non-finite")):
        bad = inst.y.copy()
        bad[0, 0, 0] = entry
        message = f"^data tensor contains {kind} entries$"
        with pytest.raises(DataFormatError, match=message):
            fit(bad, FitConfig(ranks=(2, 2, 2), doc_length=30))
        with pytest.raises(DataFormatError, match=message):  # scree runs the fit's data check
            scree(bad, 1, 3, 30)


def test_finiteness_check_survives_an_overflowing_sum():
    """Entries near the float maximum sum to inf, yet every one is finite."""
    y = np.full((3, 2, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_data(y) is y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [0.5, 1e308], ids=["plain", "near-max"])
def test_finiteness_check_rejects_nan_and_infinities(bad, scale):
    y = np.full((3, 2, 4), scale)
    y[2, 0, 3] = bad
    with pytest.raises(DataFormatError, match="^data tensor contains non-finite entries$"):
        as_data(y)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_finiteness_check_needs_no_full_size_temporary(layout):
    y = layouts(np.random.default_rng(8).uniform(size=(100, 80, 200)))[layout]
    tracemalloc.start()
    try:
        as_data(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * y.nbytes


@pytest.mark.parametrize("oracle", [False, True], ids=["centered", "oracle"])
def test_fit_names_a_gram_that_overflows(oracle):
    """Finite entries near 1e307 pass the data check, but neither their gram
    nor the per-word sums of the threshold fit in a float; no warning is shown."""
    y = np.random.default_rng(9).uniform(size=(8, 6, 20)) * 1e307
    cfg = FitConfig(ranks=(2, 2, 2), doc_length=30, oracle=oracle)
    message = "^" + re.escape(f"mode 1 gram overflows: data entries reach {y.max():.1e}") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert threshold_vocab(y, 30, cfg.sparse_c_prime).size == 20
        with pytest.raises(DataFormatError, match=message):
            fit(y, cfg)
        with pytest.raises(DataFormatError, match=message):  # scree runs the fit's gram stage
            scree(y, 1, 3, 30)


_ARPACK_PROBE = """
import sys
import numpy as np
from tensortopics import FitConfig, estimator, fit, metrics, scree, spectral

loaded, partial = [], []
def probe(*args, **kwargs):
    loaded.append("scipy.sparse.linalg" in sys.modules)
    return spectral.build_q(*args, **kwargs)
def lanczos(*args, **kwargs):
    partial.append(True)
    return solver(*args, **kwargs)
solver = spectral._lanczos
estimator.build_q = metrics.build_q = probe
spectral._lanczos = lanczos
y = np.random.default_rng(5).uniform(size={dims})
{call}
print(loaded[0], "scipy.sparse.linalg" in sys.modules, bool(partial))
"""


@pytest.mark.parametrize("dims, call, expected", [
    ((8, 6, 20), "fit(y, FitConfig(ranks=(2, 2, 2), doc_length=30))", "False False True"),
    ((3, 3, 4), "fit(y, FitConfig(ranks=(2, 2, 3), doc_length=30))", "False False False"),
    ((8, 6, 20), "scree(y, 3, 5, 30)", "False False True"),
    ((8, 6, 20), "scree(y, 1, 8, 30)", "False False False"),
], ids=["fit-arpack", "fit-full-eigh", "scree-arpack", "scree-full-eigh"])
def test_arpack_is_loaded_before_the_first_gram_and_only_when_used(dims, call, expected):
    """The ``arpack`` cases take the partial eigensolve that ARPACK once ran
    and the ``full-eigh`` cases the full ``eigh``.  The partial solve is now
    the in-package Lanczos method, so ARPACK is never used: neither path
    loads scipy.sparse.linalg, before the first gram or after the fit."""
    assert run_fresh(_ARPACK_PROBE.format(dims=dims, call=call)) == expected


@pytest.mark.parametrize("dims, ranks, doc_length, options", [
    ((100, 80, 2000), (3, 3, 5), 200, {}),
    ((100, 80, 2000), (3, 3, 5), 200, {"use_hooi": True, "hooi_iters": 5}),
    ((200, 150, 400), (4, 3, 6), 2000, {"use_hooi": True, "hooi_iters": 5}),
], ids=["corpus-sparse", "corpus-sparse-hooi", "corpus-dense-hooi"])
def test_fit_drifts_at_most_1e12_from_the_arpack_solver(monkeypatch, dims, ranks, doc_length,
                                                        options):
    """The benchmark instances at seed 1 fit within 1e-12 per entry of the
    fits with ARPACK's pairs, keeping the same words and vertices."""
    inst = planted(dims, ranks, doc_length=doc_length, seed=1)
    cfg = FitConfig(ranks=ranks, doc_length=doc_length, **options)
    ours = fit(inst.y, cfg)
    monkeypatch.setattr(spectral, "_lanczos", arpack_pairs)
    reference = fit(inst.y, cfg)
    for name in ("a1", "a2", "a3", "g"):
        assert np.abs(getattr(ours.model, name) - getattr(reference.model, name)).max() <= 1e-12
    np.testing.assert_array_equal(ours.vocab, reference.vocab)
    for got, want in zip(ours.vertices, reference.vertices):
        np.testing.assert_array_equal(got, want)


def test_fit_hooi_rank_beyond_projected_span_is_value_error():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    cfg = FitConfig(ranks=(5, 2, 2), doc_length=30, use_hooi=True)
    with pytest.raises(ValueError, match="exceeds the projected span"):
        fit(inst.y, cfg)


@pytest.mark.parametrize("ranks", [(5, 2, 2), (2, 2, 5)])
@pytest.mark.parametrize("hooi", [None, 0], ids=["no-hooi", "hooi-0"])
def test_fit_rank_beyond_projected_span_is_value_error_with_or_without_hooi(ranks, hooi):
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    options = {} if hooi is None else {"use_hooi": True, "hooi_iters": hooi}
    mode = 1 + ranks.index(5)
    with pytest.raises(ValueError, match=f"mode {mode} rank 5 exceeds the projected span 4"):
        fit(inst.y, FitConfig(ranks=ranks, doc_length=30, **options))


@pytest.mark.parametrize("doc_length", [2.5, True, "200", 0, None])
def test_fit_config_doc_length_must_be_a_positive_integer(doc_length):
    with pytest.raises(DataFormatError, match="doc_length must be a positive integer"):
        FitConfig(ranks=(2, 2, 2), doc_length=doc_length)


def test_fit_config_accepts_numpy_integer_doc_length():
    assert FitConfig(ranks=(2, 2, 2), doc_length=np.int64(30)).doc_length == 30


def test_fit_and_threshold_validate_the_tensor_once(monkeypatch):
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    calls = []

    def counted(y):
        calls.append(1)
        return as_data(y)

    monkeypatch.setattr(estimator, "_as_data", counted)
    fit(inst.y, FitConfig(ranks=(2, 2, 2), doc_length=30))
    assert len(calls) == 1
    threshold_vocab(inst.y, 30, 0.01)
    assert len(calls) == 2


@pytest.mark.parametrize("dims", [(0, 3, 5), (3, 0, 5)], ids=["n1-zero", "n2-zero"])
def test_a_tensor_with_no_documents_is_an_error_naming_the_cause(dims):
    mode = 1 + dims.index(0)
    with pytest.raises(ValueError, match=f"^mode {mode} rank 1 exceeds dimension 0$"):
        fit(np.zeros(dims), FitConfig(ranks=(1, 1, 2), doc_length=5))
    with pytest.raises(DataFormatError, match=re.escape(
            f"vocabulary threshold: a tensor of dims {dims} holds no documents")):
        threshold_vocab(np.zeros(dims), 5, 0.005)


@pytest.mark.parametrize("ranks, message", [
    ((3, 2, 2), "mode 1 rank 3 exceeds dimension 2"),
    ((1, 1, 2), "mode 3 rank 2 exceeds the projected span 1"),
    ((1, 1, 1), "word-mode recovery needs at least two topics"),
], ids=["dimension", "projected-span", "one-topic"])
def test_fit_checks_its_ranks_before_the_threshold_reads_the_tensor(monkeypatch, ranks,
                                                                    message):
    def threshold(*args):
        raise AssertionError("the threshold ran before the rank checks")

    monkeypatch.setattr(estimator, "_threshold", threshold)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit(np.ones((2, 3, 5)), FitConfig(ranks=ranks, doc_length=5))


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


def test_model_validate_rejects_non_finite_entries():
    m = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=49).model
    a1 = m.a1.copy()
    a1[0, 0] = np.nan
    with pytest.raises(DataFormatError, match="a1 rows: non-finite entries"):
        TuckerModel(a1=a1, a2=m.a2, a3=m.a3, g=m.g).validate()


def _fit_outcome(y, cfg):
    """Everything a fit returns, as comparable values, or its error."""
    try:
        res = fit(y, cfg)
    except (DataFormatError, FitDegenerateError, ValueError) as err:
        return type(err).__name__, str(err)
    return tuple(np.asarray(a).tobytes() for a in (
        res.model.a1, res.model.a2, res.model.a3, res.model.g, res.vocab, res.q0,
        *res.vertices, *res.eigvals))


def _one_word_dropped(y, word):
    y = y.copy()
    y[:, :, word] = 0.0
    return y


class _WordGramSeen(Exception):
    pass


@pytest.mark.parametrize("dims", [(100, 80, 2000), (200, 150, 400), (7, 5, 13)],
                         ids=["corpus-sparse", "corpus-dense-hooi", "odd"])
@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_word_gram_takes_the_threshold_sums_bit_for_bit(dims, drop, monkeypatch):
    """The word gram's bias correction reuses the threshold's per-word sums,
    and equals build_q's own correction bit for bit."""
    y = np.random.default_rng(1).uniform(size=dims)
    y = _one_word_dropped(y, 3) if drop else y
    grams = []

    def seen(q, k):
        grams.append(q.copy())
        if len(grams) == 3:
            raise _WordGramSeen
        return leading_eigvecs(q, k)

    monkeypatch.setattr(estimator, "leading_eigvecs", seen)
    with pytest.raises(_WordGramSeen):
        fit(y, FitConfig(ranks=(2, 2, 3), doc_length=50))
    data = np.delete(y, 3, axis=2) if drop else y
    np.testing.assert_array_equal(grams[2], build_q(np.moveaxis(data, 2, 0), 3, 50))


def test_fit_of_an_empty_corpus_is_degenerate():
    """With the threshold off every word of an all-zero tensor is kept; the
    fit names the missing mass instead of solving a zero gram."""
    with pytest.raises(FitDegenerateError,
                       match="^vocabulary threshold: the data tensor holds no mass$"):
        fit(np.zeros((4, 4, 6)), FitConfig(ranks=(2, 2, 2), doc_length=10, sparse_c_prime=0.0))


@pytest.mark.parametrize("layout", ["F", "strided"])
@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_of_any_layout_equals_the_c_ordered_fit_bit_for_bit(layout, drop):
    y = planted((12, 9, 40), (2, 2, 3), doc_length=60, seed=52).y
    y = _one_word_dropped(y, 5) if drop else y
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=60, sparse_c_prime=0.005 if drop else 0.0,
                    use_hooi=True, hooi_iters=2)
    assert fit(y, cfg).vocab.size == 40 - drop
    assert _fit_outcome(layouts(y)[layout], cfg) == _fit_outcome(y, cfg)


def test_fit_eigenvalues_drift_from_explicit_unfolding_grams_only_in_mode_2():
    """Reading the tensor in place leaves the mode-1 and mode-3 grams, and so
    their eigenvalues, bit-identical to those of explicit unfoldings; mode 2
    sums slab grams in another order, within 1e-13 relative."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=54).y
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100)
    res = fit(y, cfg)
    data = np.take(y, res.vocab, axis=2)
    for mode, k in zip((1, 2, 3), cfg.ranks):
        ref = leading_eigvecs(build_q(unfold(data, mode), mode, 100), k)[1]
        if mode == 2:
            np.testing.assert_allclose(res.eigvals[1], ref, rtol=1e-13, atol=0)
        else:
            np.testing.assert_array_equal(res.eigvals[mode - 1], ref)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_never_writes_its_input(drop, oracle):
    y = planted((12, 9, 40), (2, 2, 3), doc_length=60, seed=53).y
    y = _one_word_dropped(y, 7) if drop else y.copy()
    before = y.copy()
    y.flags.writeable = False  # a write inside fit raises
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=60, sparse_c_prime=0.005 if drop else 0.0,
                    use_hooi=True, hooi_iters=1, oracle=oracle)
    assert fit(y, cfg).vocab.size == 40 - drop
    np.testing.assert_array_equal(y, before)


def _traced_fit(y, cfg):
    tracemalloc.start()
    try:
        res = fit(y, cfg)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_peak_memory_holds_no_copy_of_the_tensor():
    """With every word kept, the grams, HOOI and the core read the tensor in
    place; a dropped word costs one gathered copy and the word gram."""
    y = planted((60, 50, 200), (2, 2, 3), doc_length=100, seed=5).y
    res, peak = _traced_fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100, sparse_c_prime=0.0,
                                         use_hooi=True))
    assert res.vocab.size == 200
    assert peak < 0.25 * y.nbytes
    y = _one_word_dropped(y, 7)
    res, peak = _traced_fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=True))
    assert res.vocab.size == 199
    assert peak < 1.25 * y.nbytes + 8 * 199 ** 2


def test_fit_with_fewer_positive_word_rows_than_topics_is_degenerate():
    """A word whose leading-eigenvector entry is not positive is dropped by
    ratio normalization; fewer survivors than topics is a named degenerate
    fit, not the vertex hunt's bare range error."""
    y = np.zeros((5, 5, 8))
    y[:, :, 3] = 1.0
    with pytest.raises(FitDegenerateError,
                       match="ratio normalization: kept 1 of 8 word rows, fewer than the 2"):
        fit(y, FitConfig(ranks=(2, 2, 2), doc_length=10, sparse_c_prime=0.0, oracle=True))


# a named stage in every error message fit may raise
_STAGE = re.compile(r"data tensor|vocabulary threshold|mode [123]|word-mode|ratio normalization"
                    r"|membership|topic mass")


@st.composite
def _degenerate_tensors(draw):
    """Small tensors with degenerate structure, in an odd memory layout."""
    shape = tuple(draw(st.integers(1, high)) for high in (5, 5, 8))
    y = draw(arrays(float, shape, elements=st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])))
    kind = draw(st.sampled_from(["as drawn", "zeros", "single", "one word", "empty slabs",
                                 "duplicated slabs"]))
    if kind == "zeros":
        y[...] = 0.0
    elif kind == "single":
        cell = tuple(draw(st.integers(0, n - 1)) for n in shape)
        y[...] = 0.0
        y[cell] = 2.0
    elif kind == "one word":
        y[:, :, np.arange(shape[2]) != draw(st.integers(0, shape[2] - 1))] = 0.0
    elif kind == "empty slabs":
        y[draw(st.integers(0, shape[0] - 1))] = 0.0
        y[:, draw(st.integers(0, shape[1] - 1))] = 0.0
    elif kind == "duplicated slabs":
        y[...] = y[:1] if draw(st.booleans()) else y[:, :1]
    return layouts(y)[draw(st.sampled_from(["C", "F", "strided"]))]


@settings(max_examples=150, deadline=None, database=None)
@given(_degenerate_tensors(),
       st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
       st.integers(1, 50), st.booleans(), st.integers(0, 2),
       st.sampled_from([0.0, 0.005, 1.0]), st.booleans())
def test_fit_of_degenerate_tensors_names_the_stage_or_returns_a_valid_model(
        y, ranks, doc_length, use_hooi, hooi_iters, c_prime, oracle):
    cfg = FitConfig(ranks=ranks, doc_length=doc_length, use_hooi=use_hooi,
                    hooi_iters=hooi_iters, sparse_c_prime=c_prime, oracle=oracle)
    outcome = _fit_outcome(y, cfg)
    assert outcome == _fit_outcome(np.ascontiguousarray(y), cfg)
    if isinstance(outcome[1], str):
        assert _STAGE.search(outcome[1]), f"{outcome[0]} names no stage: {outcome[1]}"
    else:
        fit(y, cfg).model.validate()
