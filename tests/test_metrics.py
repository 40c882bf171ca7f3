"""Loss alignment against brute force, split-half resolution, and the
scree diagnostic."""

import itertools
import tracemalloc

import numpy as np
import pytest

from tensortopics import (
    FitConfig,
    TuckerModel,
    aligned_l1_loss,
    build_q,
    evaluate,
    fit,
    reconstruction_error,
    scree,
    topic_resolution,
    unfold,
)
from tensortopics.cli import write_model
from tensortopics.errors import DataFormatError
from tensortopics.metrics import (
    _align_hungarian,
    _column_cost,
    core_loss,
    cosine_match,
)

from helpers import _align_brute, planted, run_fresh


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


@pytest.mark.parametrize("k", range(1, 9))
def test_hungarian_equals_brute_force_on_random_and_tie_heavy_costs(k):
    """Uniform costs have one minimum, which both return; small integer
    costs tie often, and the solver must still reach the exhaustive minimum."""
    rng = np.random.default_rng(70 + k)
    for _ in range(20 if k < 8 else 4):
        cost = rng.uniform(size=(k, k))
        lb, pb = _align_brute(cost)
        lh, ph = _align_hungarian(cost)
        assert lh == pytest.approx(lb, rel=1e-12, abs=0)
        assert ph == pb
        cost = rng.integers(0, 3, size=(k, k)).astype(float)
        loss, perm = _align_hungarian(cost)
        assert loss == _align_brute(cost)[0]
        assert sorted(perm) == list(range(k))
        assert cost[list(perm), np.arange(k)].sum() == loss


@pytest.mark.parametrize("k", [10, 40, 100])
def test_hungarian_matches_scipy_beyond_brute_force_sizes(k):
    """scipy's assignment solver serves here only as a test-time reference."""
    from scipy.optimize import linear_sum_assignment

    cost = np.random.default_rng(k).uniform(size=(k, k))
    rows, columns = linear_sum_assignment(cost)
    loss, perm = _align_hungarian(cost)
    assert loss == pytest.approx(cost[rows, columns].sum(), rel=1e-12, abs=0)
    assert sorted(perm) == list(range(k))
    assert loss == cost[list(perm), np.arange(k)].sum()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_aligned_loss_rejects_non_finite_columns(bad):
    a = np.eye(3)
    a_hat = a.copy()
    a_hat[1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        aligned_l1_loss(a_hat, a)


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


def test_reconstruction_error_zero_on_truth():
    inst = planted((6, 5, 15), (2, 2, 2), doc_length=30, seed=64)
    d = inst.model.mean_tensor()
    assert reconstruction_error(inst.model, d) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("dims", [(6, 5, 15), (37, 180, 160)], ids=["one-block", "ragged-blocks"])
def test_blocked_reconstruction_error_matches_the_full_mean_tensor(dims):
    """37 rows of 180 x 160 entries run as a block of 36 rows and one of 1."""
    inst = planted(dims, (2, 2, 2), doc_length=30, seed=65)
    full = float(np.abs(inst.model.mean_tensor() - inst.y).sum())
    assert reconstruction_error(inst.model, inst.y) == pytest.approx(full, rel=1e-12, abs=0)
    with pytest.raises(ValueError, match="do not match"):
        reconstruction_error(inst.model, inst.y[:, :, 1:])


def test_cli_eval_leaves_scipy_optimize_unloaded(tmp_path):
    """Topic alignment uses the in-package solver: a whole ``eval`` runs
    without importing scipy.optimize."""
    inst = planted((8, 6, 20), (2, 2, 3), doc_length=30, seed=67)
    model, truth = tmp_path / "fit.model.json", tmp_path / "truth.json"
    write_model(model, fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=30)).model)
    write_model(truth, inst.model)
    argv = ["eval", "--model", str(model), "--truth", str(truth), "--out", str(tmp_path / "e")]
    code = ("import sys; from tensortopics.cli import main; "
            f"status = main({argv!r}); print(status, 'scipy.optimize' in sys.modules)")
    assert run_fresh(code).splitlines()[-1] == "0 False"
    assert (tmp_path / "e.losses.csv").exists()


def test_cli_import_leaves_arpack_unloaded():
    """The eigensolve runs in-package, so importing the CLI loads no
    scipy.sparse.linalg."""
    code = "import sys, tensortopics.cli; print('scipy.sparse.linalg' in sys.modules)"
    assert run_fresh(code) == "False"


def test_evaluate_scores_the_truth_within_1e12_of_the_full_mean_tensors():
    """Each block of the difference is one GEMM: 37 rows of 180 x 160 entries
    run as a block of 36 rows and one of 1."""
    truth = planted((37, 180, 160), (2, 2, 2), doc_length=30, seed=66)
    fitted = fit(truth.y, FitConfig(ranks=(2, 2, 2), doc_length=30)).model
    full = float(np.abs(fitted.mean_tensor() - truth.model.mean_tensor()).sum())
    report = evaluate(fitted, truth.model)
    assert report.recon_l1 == pytest.approx(full, rel=1e-12, abs=0)
    assert report.recon_l1 == pytest.approx(reconstruction_error(fitted, truth.model.mean_tensor()),
                                            rel=1e-12)


def _random_model(rng, dims, ranks):
    """A model with Dirichlet-drawn factors and core."""
    return TuckerModel(a1=rng.dirichlet(np.ones(ranks[0]), dims[0]),
                       a2=rng.dirichlet(np.ones(ranks[1]), dims[1]),
                       a3=rng.dirichlet(np.ones(dims[2]), ranks[2]).T,
                       g=rng.dirichlet(np.ones(ranks[2]), ranks[:2]))


def test_scoring_with_one_row_per_block_matches_the_full_mean_tensors():
    """With n2 * n3 above 2**20 every block of the GEMM holds one mode-1 row."""
    dims, ranks = (3, 2, (1 << 19) + 1), (2, 2, 3)
    rng = np.random.default_rng(68)
    fitted, truth = _random_model(rng, dims, ranks), _random_model(rng, dims, ranks)
    mean = truth.mean_tensor()
    full = float(np.abs(fitted.mean_tensor() - mean).sum())
    assert evaluate(fitted, truth).recon_l1 == pytest.approx(full, rel=1e-12, abs=0)
    assert reconstruction_error(fitted, mean) == pytest.approx(full, rel=1e-12, abs=0)


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
    d = inst.model.mean_tensor()
    doubled = np.concatenate([d, d], axis=0)
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
    d[:10, :, :40] = first.model.mean_tensor()
    d[10:, :, 40:] = second.model.mean_tensor()
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


@pytest.mark.parametrize("trials", [0, -2, 2.5, True, "3"])
def test_topic_resolution_refuses_a_trial_count_that_is_no_positive_integer(trials):
    inst = planted((12, 8, 30), (2, 2, 3), doc_length=60, seed=65)
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=60)
    with pytest.raises(DataFormatError, match="trials must be a positive integer"):
        topic_resolution(inst.y, cfg, trials=trials)


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("doc_length", [0, -5, 2.5, True])
def test_scree_refuses_a_doc_length_fit_refuses(mode, doc_length):
    """Every mode checks the document length, as ``FitConfig`` does, though
    only the bias-corrected gram reads it."""
    y = planted((8, 6, 20), (2, 2, 3), doc_length=30, seed=69).y
    with pytest.raises(DataFormatError, match="doc_length must be a positive integer"):
        FitConfig(ranks=(2, 2, 3), doc_length=doc_length)
    with pytest.raises(DataFormatError, match="doc_length must be a positive integer"):
        scree(y, mode, 3, doc_length)


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


@pytest.mark.parametrize("mode", [1, 3])
def test_scree_matches_full_eigvalsh_up_to_every_eigenvalue(mode):
    """k_max = n takes the full eigh; shorter screens take the Lanczos pairs."""
    inst = planted((25, 20, 60), (2, 2, 3), doc_length=2000, seed=70)
    q = build_q(unfold(inst.y, mode), mode, 2000)
    reference = np.linalg.eigvalsh(q)[::-1]
    n = q.shape[0]
    for k_max in (3, n - 2, n - 1, n):
        values = scree(inst.y, mode, k_max, 2000)
        assert values.shape == (k_max,)
        np.testing.assert_allclose(values, reference[:k_max], rtol=1e-12,
                                   atol=1e-12 * reference[0])


def test_scree_reads_the_tensor_in_place_and_matches_the_fit():
    """scree builds each gram as fit does, so its values equal the fit's
    eigenvalues bit for bit, and it reads the tensor in place: the mode-2
    unfolding would be a copy of the whole tensor."""
    inst = planted((60, 50, 400), (2, 2, 3), doc_length=300, seed=72)
    result = fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=300, sparse_c_prime=0.0))
    for mode, k in zip((1, 2, 3), (2, 2, 3)):
        np.testing.assert_array_equal(scree(inst.y, mode, k, 300), result.eigvals[mode - 1])
    tracemalloc.start()
    try:
        scree(inst.y, 2, 5, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * inst.y.nbytes


def test_evaluate_on_fitted_model_reports_finite_losses():
    inst = planted((20, 12, 40), (2, 2, 3), doc_length=200, seed=71)
    res = fit(inst.y, FitConfig(ranks=(2, 2, 3), doc_length=200))
    rep = evaluate(res.model, inst.model)
    for value in (rep.loss_a1, rep.loss_a2, rep.loss_a3, rep.loss_g,
                  rep.recon_l1):
        assert np.isfinite(value) and value >= 0
    assert len(rep.perms) == 3
