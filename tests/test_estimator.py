"""End-to-end estimator checks: thresholding, per-mode recovery on exact
data (read off full oracle fits), core recovery, and full-fit determinism."""

import ast
import contextlib
import re
import warnings
from dataclasses import replace
from pathlib import Path

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
    fold,
    leading_eigvecs,
    sample_counts,
    scree,
    threshold_vocab,
    topic_resolution,
    unfold,
)
from tensortopics import estimator, metrics, spectral, synth, tensor
from tensortopics.errors import DataFormatError, FitDegenerateError, _stage
from tensortopics.estimator import fit_core
from tensortopics.simplex import clip_to_simplex
from tensortopics.tensor import _data_word_sums as data_word_sums

from helpers import (arpack_pairs, hooi_reprojecting_reference, hooi_tensordot_reference, kept_data,
                     layouts, planted, run_fresh, start_projection, traced_peak, word_gram)


def _oracle_cfg(ranks, doc_length):
    """The config of a fit to the exact mean tensor: every word kept."""
    return FitConfig(ranks=ranks, doc_length=doc_length, sparse_c_prime=0.0)


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
    q = build_q(unfold(inst.model.mean_tensor(), 3), 3)
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
    g = fit_core(start_projection(kept_data(y), (xi1, xi2)), u[:, :2],
                 (np.eye(1), np.eye(1), v3), np.array([1.0, 1.0]))
    assert g.shape == (1, 1, 2)
    np.testing.assert_allclose(g.sum(), 1.0, atol=1e-12)


def test_fit_core_empty_tube_becomes_uniform():
    y = np.zeros((2, 2, 3))
    y[..., 0] = 1.0
    # vertex maps chosen to zero out one tube entirely
    v3 = np.zeros((2, 2))
    g = fit_core(start_projection(kept_data(y), (np.eye(2), np.eye(2))), np.eye(3)[:, :2],
                 (np.eye(2), np.eye(2), v3), np.array([1.0, 1.0]))
    np.testing.assert_allclose(g, 0.5)


def _core_from_the_tensor(y, xi, v_hats, q0):
    """The core contracted from the whole tensor with all three bases at once: the
    reference that the core from the word projection is held to."""
    v1, v2, v3 = v_hats
    projected = np.einsum("ijr,ip,jq,rs->pqs", y, *xi, optimize=True)
    return clip_to_simplex(np.einsum("pqs,ap,bq,cs->abc", projected, v1, v2, q0[:, None] * v3,
                                     optimize=True))


@pytest.mark.parametrize("use_hooi", [False, True], ids=["spectral", "hooi"])
@pytest.mark.parametrize("seed", [1, 2])
def test_core_from_the_word_projection_is_within_1e_12_of_the_tensor_core(monkeypatch, seed,
                                                                          use_hooi):
    """fit takes its core from the word projection of its final mode-1 and mode-2 bases:
    every entry lies within 1e-12 of the core contracted from the whole tensor with the
    final bases, and the factors, vocabulary, vertices and eigenvalues, which never read
    the core, are bit-identical."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=seed).y
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=use_hooi, hooi_iters=2)
    got = fit(y, cfg)
    bases, membership = [], estimator._membership_from_basis

    def recorded(xi, label):
        bases.append(xi)
        return membership(xi, label)

    monkeypatch.setattr(estimator, "_membership_from_basis", recorded)
    monkeypatch.setattr(estimator, "fit_core", lambda p, xi3, v_hats, q0:
                        _core_from_the_tensor(y, (*bases, xi3), v_hats, q0))
    want = fit(y, cfg)
    assert np.abs(got.model.g - want.model.g).max() <= 1e-12
    for name in ("a1", "a2", "a3"):
        np.testing.assert_array_equal(getattr(got.model, name), getattr(want.model, name))
    for got_part, want_part in ((got.vocab, want.vocab), (got.q0, want.q0),
                                *zip(got.vertices, want.vertices),
                                *zip(got.eigvals, want.eigvals)):
        np.testing.assert_array_equal(got_part, want_part)


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
            scree(bad, (), 3, 30)


def test_finiteness_check_survives_an_overflowing_sum():
    """Entries near the float maximum sum to inf, yet every one is finite."""
    y = np.full((3, 2, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data_word_sums(y)[0] is y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [0.5, 1e308], ids=["plain", "near-max"])
def test_finiteness_check_rejects_nan_and_infinities(bad, scale):
    y = np.full((3, 2, 4), scale)
    y[2, 0, 3] = bad
    with pytest.raises(DataFormatError, match="^data tensor contains non-finite entries$"):
        data_word_sums(y)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_finiteness_check_needs_no_full_size_temporary(layout):
    y = layouts(np.random.default_rng(8).uniform(size=(100, 80, 200)))[layout]
    peak = traced_peak(data_word_sums, y)[1]
    assert peak < 0.01 * y.nbytes


def test_fit_names_a_gram_that_overflows():
    """Finite entries near 1e307 pass the data check, but neither their gram
    nor the per-word sums of the threshold fit in a float; no warning is shown."""
    y = np.random.default_rng(9).uniform(size=(8, 6, 20)) * 1e307
    cfg = FitConfig(ranks=(2, 2, 2), doc_length=30)
    message = "^" + re.escape(f"mode 1 gram overflows: data entries reach {y.max():.1e}") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert threshold_vocab(y, 30, cfg.sparse_c_prime).size == 20
        with pytest.raises(DataFormatError, match=message):
            fit(y, cfg)
        with pytest.raises(DataFormatError, match=message):  # scree runs the fit's gram stage
            scree(y, (), 3, 30)


def test_a_mode_2_gram_overflow_names_the_projection_not_the_data():
    """No data entry exceeds 1e153, but the projection on the mode-1 basis sums a thousand of
    them over sqrt(1000): the mode-2 gram overflows, and its message names that projection."""
    y = np.full((1000, 2, 3), 1e153)
    message = "^mode 2 gram overflows: the projection on the mode-1 basis reaches 3.2e\\+154$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=message):
            scree(y, (1,), 2, 10)
        with pytest.raises(DataFormatError, match=message):
            fit(y, FitConfig(ranks=(1, 2, 2), doc_length=10))


@pytest.mark.parametrize("mode, shape", [(1, (8, 4)), (2, (6, 4))], ids=["mode-1", "mode-2"])
def test_a_hooi_sweep_whose_svd_fails_names_its_mode(monkeypatch, mode, shape):
    """A sweep's mode-1 and mode-2 SVDs run as stages inside the sweep's: one that does not
    converge is a degenerate fit naming the sweep and the mode, not a bare ``LinAlgError``.
    Only the sweep unfolds a projection to ``n1 x k2 k3`` or ``n2 x k1 k3``."""
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82)
    real_svd = np.linalg.svd

    def no_convergence(a, *args, **kwargs):
        if np.shape(a) == shape:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    cfg = FitConfig(ranks=(2, 2, 2), doc_length=30, use_hooi=True, hooi_iters=1)
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    fit(inst.y, replace(cfg, use_hooi=False))  # the fit without sweeps takes no such SVD
    with pytest.raises(FitDegenerateError,
                       match=f"^HOOI sweep 1, mode {mode} basis: SVD did not converge$"):
        fit(inst.y, cfg)


def _staged(error, *names):
    """The error that ``error``, raised inside the nested stages ``names``, leaves them as."""
    with pytest.raises(Exception) as caught, contextlib.ExitStack() as stages:
        for name in names:
            stages.enter_context(_stage(name))
        raise error
    return caught.value


def test_a_stage_names_its_failures_and_passes_other_errors():
    """``errors._stage`` starts the message of a failure with its name: a failed allocation
    becomes a ``DataFormatError`` carrying numpy's shape text when there is one, and a
    ``LinAlgError`` or ``FitDegenerateError`` a ``FitDegenerateError``.  A nested stage's error
    passes the outer guard as it is, and so does any other error."""
    shape = "Unable to allocate 8.00 EiB for an array with shape (2**30, 2**30)"
    for error, kind, message in (
            (MemoryError(), DataFormatError, "core: too big to allocate"),
            (MemoryError(shape), DataFormatError, f"core: too big to allocate: {shape}"),
            (np.linalg.LinAlgError("Singular matrix"), FitDegenerateError, "core: Singular matrix"),
            (FitDegenerateError("weight recovery: singular"), FitDegenerateError,
             "core: weight recovery: singular"),
            (DataFormatError("mode 1 gram overflows: 1e+300"), DataFormatError,
             "mode 1 gram overflows: 1e+300"),
            (ValueError("k must lie in [1, 3], got 4"), ValueError, "k must lie in [1, 3], got 4")):
        caught = _staged(error, "core")
        assert (type(caught), str(caught)) == (kind, message)
    for error, kind in ((np.linalg.LinAlgError("SVD did not converge"), FitDegenerateError),
                        (MemoryError(), DataFormatError)):
        caught = _staged(error, "HOOI sweep 1", "HOOI sweep 1, mode 2 basis")
        assert type(caught) is kind
        assert str(caught).startswith("HOOI sweep 1, mode 2 basis: ")
        assert "HOOI sweep 1:" not in str(caught)


_BROAD = {"MemoryError", "LinAlgError", "Exception", "BaseException"}


def test_allocation_and_linalg_failures_are_caught_only_by_the_stage_guard():
    """One error policy: across ``src/``, a ``MemoryError`` or ``LinAlgError`` (or any error,
    by a bare or broad ``except``) is caught only in ``errors._stage``, in
    ``cli.read_count_tensor`` (a count file too big to load) and in ``cli.main``, whose
    ``LinAlgError`` arm is a safety net.  The files are only read."""
    catchers = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tensortopics").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            caught = {getattr(node, "id", getattr(node, "attr", None))
                      for node in ast.walk(handler.type)} if handler.type else _BROAD
            if caught & _BROAD:
                scope = handler
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                catchers.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert catchers == {"errors._stage", "cli.read_count_tensor", "cli.main"}


@pytest.mark.parametrize("routine", ["svd", "solve"])
@pytest.mark.parametrize("call, stage", [(1, "mode 1 membership"), (2, "mode 2 membership"),
                                         (3, "word membership")], ids=["mode-1", "mode-2", "word"])
def test_a_failing_vertex_matrix_names_its_membership_stage(monkeypatch, routine, call, stage):
    """Each weight solve takes the singular values of its vertex matrix, then solves with it,
    for mode 1, mode 2 and the word mode in turn: a ``LinAlgError`` in either routine is a
    degenerate fit naming the membership stage."""
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82)
    real, calls = getattr(np.linalg, routine), []

    def failing(a, *args, **kwargs):
        if routine == "solve" or kwargs.get("compute_uv") is False:  # not a basis's SVD
            calls.append(a)
            if len(calls) == call:
                raise np.linalg.LinAlgError("Singular matrix")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, failing)
    with pytest.raises(FitDegenerateError, match=f"^{stage}: Singular matrix$"):
        fit(inst.y, FitConfig(ranks=(2, 2, 2), doc_length=30))


def test_option_checks_come_before_the_data_pass(monkeypatch):
    """``threshold_vocab``, ``topic_resolution`` and ``sample_counts`` refuse a bad option
    before they scan the tensor, as ``fit`` and ``scree`` do: a bad option on a tensor that
    fails the data check names the option, and the data pass never runs."""
    y = np.full((4, 4, 6), np.nan)
    scans = []

    def counted(t):
        scans.append(1)
        return data_word_sums(t)

    for module in (estimator, metrics, synth):
        monkeypatch.setattr(module, "_data_word_sums", counted)
    cfg = FitConfig(ranks=(2, 2, 2), doc_length=10)
    for call, message in [
        (lambda: threshold_vocab(y, 10, -1.0), "c_prime must be a finite nonnegative number"),
        (lambda: threshold_vocab(y, 0, 0.005), "doc_length must be a positive integer"),
        (lambda: topic_resolution(y, cfg, axis=3), "splits run along mode 1 or mode 2"),
        (lambda: topic_resolution(y, cfg, trials=0), "trials must be a positive integer"),
        (lambda: sample_counts(y, 0, 1), "doc_length must be a positive integer"),
        (lambda: sample_counts(y, 10, -1), "seed must be a nonnegative integer"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            call()
    assert not scans
    with pytest.raises(DataFormatError, match="^data tensor contains non-finite entries$"):
        threshold_vocab(y, 10, 0.005)
    assert scans == [1]


_SCIPY_PROBE = """
import sys
import numpy as np
from tensortopics import FitConfig, estimator, fit, scree, spectral

def scipy_loaded():
    return any(name.startswith("scipy") for name in sys.modules)
loaded, build_q = [], spectral.build_q
def probe(*args, **kwargs):
    loaded.append(scipy_loaded())
    return build_q(*args, **kwargs)
spectral.build_q = probe
y = np.random.default_rng(5).uniform(size={dims})
{call}
print(loaded[0], scipy_loaded())
"""


@pytest.mark.parametrize("dims, call", [
    ((8, 6, 20), "fit(y, FitConfig(ranks=(2, 2, 2), doc_length=30))"),
    ((3, 3, 4), "fit(y, FitConfig(ranks=(2, 2, 3), doc_length=30))"),
    ((8, 6, 20), "fit(y, FitConfig(ranks=(2, 2, 2), doc_length=30, use_hooi=True, hooi_iters=2))"),
    ((8, 6, 20), "scree(y, (2, 2), 3, 30)"),
    ((8, 6, 20), "scree(y, (), 8, 30)"),
], ids=["fit-arpack", "fit-full-eigh", "fit-hooi", "scree-arpack", "scree-full-eigh"])
def test_arpack_is_loaded_before_the_first_gram_and_only_when_used(dims, call):
    """numpy is the only runtime dependency: a fit, plain or with HOOI sweeps, and a
    scree leave every ``scipy*`` module unloaded, before the first gram and after.  The
    ``arpack`` ids name the sizes that once took a partial eigensolve."""
    assert run_fresh(_SCIPY_PROBE.format(dims=dims, call=call)) == "False False"


@pytest.mark.parametrize("dims, ranks, doc_length, options", [
    ((100, 80, 2000), (3, 3, 5), 200, {}),
    ((100, 80, 2000), (3, 3, 5), 200, {"use_hooi": True, "hooi_iters": 5}),
    ((200, 150, 400), (4, 3, 6), 2000, {"use_hooi": True, "hooi_iters": 5}),
], ids=["corpus-sparse", "corpus-sparse-hooi", "corpus-dense-hooi"])
def test_fit_drifts_at_most_1e12_from_the_arpack_solver(monkeypatch, dims, ranks, doc_length,
                                                        options):
    """The benchmark instances at seed 1 fit within 1e-12 per entry of the
    fits with ARPACK's top ``k`` of ``k + 1`` pairs for modes 1 and 2, keeping the
    same words and vertices."""
    inst = planted(dims, ranks, doc_length=doc_length, seed=1)
    cfg = FitConfig(ranks=ranks, doc_length=doc_length, **options)
    ours = fit(inst.y, cfg)

    def arpack_eigvecs(q, k):
        vals, vecs = arpack_pairs(q, k + 1)
        return spectral._fix_signs(vecs[:, :-k - 1:-1]), vals[:-k - 1:-1]

    monkeypatch.setattr(estimator, "leading_eigvecs", arpack_eigvecs)
    reference = fit(inst.y, cfg)
    for name in ("a1", "a2", "a3", "g"):
        assert np.abs(getattr(ours.model, name) - getattr(reference.model, name)).max() <= 1e-12
    np.testing.assert_array_equal(ours.vocab, reference.vocab)
    for got, want in zip(ours.vertices, reference.vertices):
        np.testing.assert_array_equal(got, want)


def test_fit_hooi_rank_beyond_projected_span_is_value_error():
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    with pytest.raises(ValueError, match="exceeds the projected span"):
        fit(inst.y, FitConfig(ranks=(5, 2, 2), doc_length=30, use_hooi=True))


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
    """One check serves both: its word sums prove the entries finite and feed the threshold."""
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=47)
    calls = []

    def counted(y):
        calls.append(1)
        return data_word_sums(y)

    monkeypatch.setattr(estimator, "_data_word_sums", counted)
    fit(inst.y, FitConfig(ranks=(2, 2, 2), doc_length=30))
    assert len(calls) == 1
    threshold_vocab(inst.y, 30, 0.01)
    assert len(calls) == 2


@pytest.mark.parametrize("dims", [(0, 3, 5), (3, 0, 5)], ids=["n1-zero", "n2-zero"])
def test_a_tensor_with_no_documents_is_an_error_naming_the_cause(dims):
    mode = 1 + dims.index(0)
    ranks = (1, 2, 2) if mode == 1 else (2, 1, 2)  # rank 1 at the empty mode, a Tucker core
    with pytest.raises(ValueError, match=f"^mode {mode} rank 1 exceeds dimension 0$"):
        fit(np.zeros(dims), FitConfig(ranks=ranks, doc_length=5))
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


class _WordBasisSeen(Exception):
    pass


def _explicit_projection(y, xi1, xi2):
    """The word projection through an explicit mode-3 unfolding: ``n3 x k1 k2``."""
    return unfold(y, 3) @ np.kron(xi1, xi2)


@pytest.mark.parametrize("dims", [(100, 80, 2000), (200, 150, 400), (7, 5, 13)],
                         ids=["corpus-sparse", "corpus-dense-hooi", "odd"])
@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_word_gram_takes_the_threshold_sums_bit_for_bit(dims, drop, monkeypatch):
    """fit forms no word gram.  Its word basis holds the leading left singular
    vectors of the tensor projected on the mode-1 and mode-2 bases, over the
    words the threshold kept, within 1e-12 of those of an explicitly unfolded
    projection; a dropped word's row of the projection is zero, and its row of
    the basis zero within 1e-12."""
    y = np.random.default_rng(1).uniform(size=dims)
    y = _one_word_dropped(y, 3) if drop else y
    mode1_projection, seen = tensor.DenseData.mode1_projection, []

    def projected_on_mode_1(data, xi1):
        seen.append(xi1)
        return mode1_projection(data, xi1)

    def projected(z, xi2):
        seen.append(xi2)
        return spectral.word_projection(z, xi2)

    def recorded(p, k3):
        seen.append((p, spectral._left_singular(p, k3)))
        raise _WordBasisSeen

    monkeypatch.setattr(tensor.DenseData, "mode1_projection", projected_on_mode_1)
    monkeypatch.setattr(estimator, "word_projection", projected)
    monkeypatch.setattr(estimator, "_left_singular", recorded)
    with pytest.raises(_WordBasisSeen):
        fit(y, FitConfig(ranks=(2, 2, 3), doc_length=50))
    xi1, xi2, (p, (xi3, vals3)) = seen
    kept = np.arange(dims[2]) != 3 if drop else np.ones(dims[2], dtype=bool)
    u, sigma, _ = np.linalg.svd(_explicit_projection(y, xi1, xi2)[kept], full_matrices=False)
    np.testing.assert_allclose(xi3[kept], spectral._fix_signs(u[:, :3]), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(p[~kept], 0.0)
    np.testing.assert_allclose(xi3[~kept], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vals3, sigma[:3] ** 2, rtol=1e-12, atol=0)


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


def _projected_mode_2_gram(y, xi1, words=slice(None)):
    """The gram of ``Z = Y x1 xi1^T`` over the words in ``words``, through
    explicit unfoldings of the gathered tensor and of ``Z``."""
    data = y[:, :, words]
    z = unfold(fold(xi1.T @ unfold(data, 1), 1, (xi1.shape[1], *data.shape[1:])), 2)
    return z @ z.T


def test_fit_eigenvalues_drift_from_explicit_unfolding_grams_only_in_mode_2():
    """Reading the tensor in place leaves the mode-1 gram, and so its
    eigenvalues, bit-identical to those of an explicit unfolding.  Mode 2
    reports the eigenvalues of the gram of the tensor projected on the mode-1
    basis, and the word mode the squared singular values of the projection on
    both bases, each within 1e-12 relative of explicitly unfolded ones."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=54).y
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100)
    res = fit(y, cfg)
    assert res.vocab.size == 300
    xi1, ref = leading_eigvecs(build_q(unfold(y, 1), 1), 2)
    np.testing.assert_array_equal(res.eigvals[0], ref)
    xi2, ref = leading_eigvecs(_projected_mode_2_gram(y, xi1), 2)
    np.testing.assert_allclose(res.eigvals[1], ref, rtol=1e-12, atol=0)
    sigma = np.linalg.svd(_explicit_projection(y, xi1, xi2), compute_uv=False)
    np.testing.assert_allclose(res.eigvals[2], sigma[:3] ** 2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [2, 13, 17])
def test_fit_leaves_dropped_words_out_of_the_mode_grams_within_rounding(seed, monkeypatch):
    """A dropped word's slab gram is taken off the mode-1 gram, with no copy of
    the kept words, and the projected mode-2 gram is the plain gram of the
    projection, whose dropped columns are zero, bit for bit: each gram is within
    1e-14 of its largest entry of the gram of the gathered tensor's explicit
    unfolding, and its eigenvalues within 1e-13 of the leading one."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=seed).y
    grams = []

    def recorded(q, k):
        grams.append((q.copy(), leading_eigvecs(q, k)))
        return grams[-1][1]

    monkeypatch.setattr(estimator, "leading_eigvecs", recorded)
    res = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100))
    assert res.vocab.size == 299
    xi1 = grams[0][1][0]
    refs = (build_q(unfold(np.take(y, res.vocab, axis=2), 1), 1),
            _projected_mode_2_gram(y, xi1, res.vocab))
    for (gram, _), vals, ref in zip(grams, res.eigvals[:2], refs):
        assert np.abs(gram - ref).max() <= 1e-14 * np.abs(ref).max()
        ref_vals = leading_eigvecs(ref, 2)[1]
        np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-13 * ref_vals[0])
    z = (xi1.T @ unfold(y, 1)).reshape(2, *y.shape[1:])
    z[:, :, np.setdiff1d(np.arange(300), res.vocab)] = 0.0
    np.testing.assert_array_equal(grams[1][0], build_q(np.moveaxis(z, 1, 0), 2))


@pytest.mark.parametrize("use_hooi", [False, True], ids=["spectral", "hooi"])
@pytest.mark.parametrize("dims, kw, c_prime", [
    ((40, 30, 300), {"seed": 2}, FitConfig.sparse_c_prime),
    ((40, 30, 3000), {"seed": 1, "word_dist": "zipf"}, 1.0),
], ids=["one-dropped", "zipf-most-dropped"])
def test_fit_that_drops_words_equals_the_fit_of_its_kept_words(dims, kw, c_prime, use_hooi):
    """The dropped-word rule against the math: a fit that drops words agrees
    with the fit of the tensor restricted to its kept words, threshold off, at
    the same ranks: ``a1``, ``a2``, ``g`` and the kept rows of ``a3`` within
    1e-12 per entry, the other rows of ``a3`` exactly zero, and the vertices
    equal once the word vertices are mapped through ``vocab``."""
    y = planted(dims, (2, 2, 3), doc_length=100, **kw).y
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=100, sparse_c_prime=c_prime, use_hooi=use_hooi)
    res = fit(y, cfg)
    vocab = res.vocab
    assert 0 < vocab.size < dims[2]
    kept = fit(y[:, :, vocab], FitConfig(ranks=(2, 2, 3), doc_length=100, sparse_c_prime=0.0,
                                         use_hooi=use_hooi))
    assert kept.vocab.size == vocab.size
    for got, want in ((res.model.a1, kept.model.a1), (res.model.a2, kept.model.a2),
                      (res.model.g, kept.model.g), (res.model.a3[vocab], kept.model.a3)):
        assert np.abs(got - want).max() <= 1e-12
    np.testing.assert_array_equal(np.delete(res.model.a3, vocab, axis=0), 0.0)
    for got, want in zip(res.vertices, (*kept.vertices[:2], vocab[kept.vertices[2]])):
        np.testing.assert_array_equal(got, want)


def _counted_reads(monkeypatch):
    """Count the calls of every entry point through which a fit reads its data tensor."""
    calls = dict.fromkeys(("check", "mode1_gram", "mode1_projection", "word_contraction"), 0)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(estimator, "_data_word_sums", counted("check", estimator._data_word_sums))
    for name in ("mode1_gram", "mode1_projection", "word_contraction"):
        monkeypatch.setattr(tensor.DenseData, name, counted(name, getattr(tensor.DenseData, name)))
    return calls


@pytest.mark.parametrize("use_hooi, iters", [(False, 5), (True, 0), (True, 1), (True, 3)])
def test_fit_reads_its_tensor_only_through_the_data(use_hooi, iters, monkeypatch):
    """A plain fit reads the tensor three times: the check with the word sums,
    the mode-1 gram and one projection on the mode-1 basis.  Each HOOI sweep
    adds one word contraction and one projection.  The mode-2 gram is formed
    from that projection, whose dropped words' columns are exactly zero."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=2).y
    calls, mode2 = _counted_reads(monkeypatch), []

    def recorded(y_mat, mode):
        if mode == 2:
            mode2.append(y_mat.copy())
        return build_q(y_mat, mode)

    monkeypatch.setattr(spectral, "build_q", recorded)
    res = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=use_hooi, hooi_iters=iters))
    sweeps = iters if use_hooi else 0
    assert calls == {"check": 1, "mode1_gram": 1, "mode1_projection": 1 + sweeps,
                     "word_contraction": sweeps}
    dropped = np.setdiff1d(np.arange(300), res.vocab)
    assert dropped.size == 1
    (z,) = mode2
    assert z.shape == (30, 2, 300)
    np.testing.assert_array_equal(z[:, :, dropped], 0.0)
    assert np.all(np.abs(z[:, :, res.vocab]).sum(axis=(0, 1)) > 0)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_scree_reads_its_tensor_only_through_the_data(mode, monkeypatch):
    """A mode-1 screen makes only the check and the mode-1 gram; modes 2 and 3
    add one projection."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=2).y
    calls = _counted_reads(monkeypatch)
    scree(y, (2, 2)[:mode - 1], 2, 100)
    assert calls == {"check": 1, "mode1_gram": 1, "mode1_projection": int(mode > 1),
                     "word_contraction": 0}


def _word_gram_start(y, doc_length):
    """A stand-in for the word basis SVD that takes the word basis of ``y`` from the
    word gram of the words a fit keeps, less its sampling noise, as the paper's
    modified HOSVD does; the word projection it is handed goes unread."""
    words = threshold_vocab(y, doc_length, FitConfig.sparse_c_prime)

    def gram_start(p, k3):
        vecs, vals = leading_eigvecs(word_gram(np.moveaxis(y[:, :, words], 2, 0), doc_length), k3)
        basis = np.zeros((y.shape[2], k3))
        basis[words] = vecs
        return basis, vals
    return gram_start


def test_hooi_from_the_projected_start_drifts_from_the_word_gram_start_below_1e_4(monkeypatch):
    """Five HOOI sweeps from either word basis reach the same fit: on the
    corpus-dense-hooi instance the factors and core agree within 1e-4 per
    entry (4.2e-5 at this seed, the largest over seeds 0-5)."""
    inst = planted((200, 150, 400), (4, 3, 6), doc_length=2000, seed=4)
    cfg = FitConfig(ranks=(4, 3, 6), doc_length=2000, use_hooi=True, hooi_iters=5)
    projected = fit(inst.y, cfg).model
    monkeypatch.setattr(estimator, "_left_singular", _word_gram_start(inst.y, 2000))
    gram = fit(inst.y, cfg).model
    for name in ("a1", "a2", "a3", "g"):
        assert np.abs(getattr(projected, name) - getattr(gram, name)).max() < 1e-4, name


def test_projected_word_basis_recovers_topics_no_worse_than_the_word_gram(monkeypatch):
    """On a recoverable instance (alpha 0.1, 2000-word documents) the word
    factor loss of the projected basis is never 1 % above that of the word
    gram at the same seed, and lower in the median."""
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=2000)
    insts = [planted((40, 30, 300), (2, 2, 3), doc_length=2000, seed=seed, dirichlet_alpha=0.1)
             for seed in range(1, 9)]
    projected = [aligned_l1_loss(fit(i.y, cfg).model.a3, i.model.a3)[0] for i in insts]
    gram = []
    for i in insts:
        monkeypatch.setattr(estimator, "_left_singular", _word_gram_start(i.y, 2000))
        gram.append(aligned_l1_loss(fit(i.y, cfg).model.a3, i.model.a3)[0])
    assert all(p <= 1.01 * g for p, g in zip(projected, gram)), (projected, gram)
    assert np.median(projected) < np.median(gram)


@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_takes_mode_1_from_its_gram_and_mode_2_from_the_projected_gram(drop, monkeypatch):
    """The sequentially truncated HOSVD: without HOOI the mode-1 basis, its
    eigenvalues and ``a1`` are bit-identical to those of the full mode-1 gram,
    and the mode-2 basis and eigenvalues lie within 1e-12 of an explicit
    eigendecomposition of the gram of the tensor projected on the mode-1
    basis, over the kept words."""
    y = planted((40, 30, 300), (2, 2, 3), doc_length=100, seed=54).y
    y = _one_word_dropped(y, 3) if drop else y
    seen = []

    def projected(z, xi2):
        seen.append(xi2)
        return spectral.word_projection(z, xi2)

    monkeypatch.setattr(estimator, "word_projection", projected)
    res = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100))
    dropped = np.setdiff1d(np.arange(300), res.vocab)
    assert dropped.size == drop
    xi1, vals1 = leading_eigvecs(kept_data(y, res.vocab).mode1_gram(), 2)
    np.testing.assert_array_equal(res.eigvals[0], vals1)
    np.testing.assert_array_equal(res.model.a1, estimator._membership_from_basis(xi1, "")[0])
    vals2, vecs2 = np.linalg.eigh(_projected_mode_2_gram(y, xi1, res.vocab))
    np.testing.assert_allclose(res.eigvals[1], vals2[:-3:-1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(seen[0], spectral._fix_signs(vecs2[:, :-3:-1]), rtol=0, atol=1e-12)


def _two_gram_start(monkeypatch):
    """Have ``fit`` take its mode-2 basis from the mode-2 gram of the whole
    tensor over the kept words, as it did before it took it from the projected
    tensor."""
    vocabulary, seen = estimator._vocabulary, []

    def kept(*args, **kwargs):
        seen[:] = [vocabulary(*args, **kwargs)]
        return seen[0]

    def from_the_tensor(q, k):
        seen.append(q)
        if len(seen) == 3:  # the fit's second solve, mode 2: handed the gram of Z
            data = seen[0]
            q = build_q(np.moveaxis(np.take(data.y, data.vocab, axis=2), 1, 0), 2)
        return leading_eigvecs(q, k)

    monkeypatch.setattr(estimator, "_vocabulary", kept)
    monkeypatch.setattr(estimator, "leading_eigvecs", from_the_tensor)


@pytest.mark.parametrize("seed", [1, 11])
def test_hooi_from_the_projected_mode_2_start_drifts_from_the_two_gram_start_below_1e_5(
        seed, monkeypatch):
    """Five HOOI sweeps from either mode-2 basis reach the same
    corpus-dense-hooi fit: factors and core agree within 1e-5 per entry."""
    inst = planted((200, 150, 400), (4, 3, 6), doc_length=2000, seed=seed)
    cfg = FitConfig(ranks=(4, 3, 6), doc_length=2000, use_hooi=True, hooi_iters=5)
    projected = fit(inst.y, cfg).model
    _two_gram_start(monkeypatch)
    gram = fit(inst.y, cfg).model
    for name in ("a1", "a2", "a3", "g"):
        assert np.abs(getattr(projected, name) - getattr(gram, name)).max() < 1e-5, name


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dims, ranks, doc_length", [((100, 80, 2000), (3, 3, 5), 200),
                                                     ((200, 150, 400), (4, 3, 6), 2000)],
                         ids=["corpus-sparse", "corpus-dense-hooi"])
def test_hooi_fit_drifts_at_most_1e12_from_the_tensordot_mode_2_contraction(
        dims, ranks, doc_length, seed, monkeypatch):
    """Mode 2 of a sweep reads the shared word contraction in place by a
    batched GEMM, not through the transposed copy ``tensordot`` made: with
    five sweeps the benchmark instances fit within 1e-12 per entry of the
    ``tensordot`` path (2.3e-15 at most), keeping the same words and vertices."""
    y = planted(dims, ranks, doc_length=doc_length, seed=seed).y
    cfg = FitConfig(ranks=ranks, doc_length=doc_length, use_hooi=True, hooi_iters=5)
    ours = fit(y, cfg)
    monkeypatch.setattr(estimator, "hooi_refine", hooi_tensordot_reference)
    reference = fit(y, cfg)
    for name in ("a1", "a2", "a3", "g"):
        assert np.abs(getattr(ours.model, name) - getattr(reference.model, name)).max() <= 1e-12
    np.testing.assert_array_equal(ours.vocab, reference.vocab)
    for got, want in zip(ours.vertices, reference.vertices):
        np.testing.assert_array_equal(got, want)


def test_projected_mode_2_basis_recovers_memberships_no_worse_than_the_mode_2_gram(
        monkeypatch):
    """Over 20 seeds of a recoverable instance (alpha 0.1, 200-word documents)
    the median mode-2 membership loss of the projected basis is no higher than
    that of the full mode-2 gram (1.86 against 2.31)."""
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=200)
    insts = [planted((40, 30, 300), (2, 2, 3), doc_length=200, seed=seed, dirichlet_alpha=0.1)
             for seed in range(20)]
    projected = [aligned_l1_loss(fit(i.y, cfg).model.a2, i.model.a2)[0] for i in insts]
    _two_gram_start(monkeypatch)
    gram = [aligned_l1_loss(fit(i.y, cfg).model.a2, i.model.a2)[0] for i in insts]
    assert np.median(projected) <= np.median(gram), (projected, gram)


@pytest.mark.parametrize("use_hooi", [False, True], ids=["spectral", "hooi"])
def test_fit_forms_the_full_gram_of_mode_1_only(use_hooi, monkeypatch):
    """fit calls ``build_q`` for modes 1 and 2, and mode 2 reads the tensor
    projected on the mode-1 basis, ``Z`` of shape ``(k1, n2, n3)``: no full
    mode-2 or word gram is formed, and the word basis comes from the word
    projection."""
    calls = []

    def counted(y_mat, mode):
        calls.append((mode, np.moveaxis(y_mat, 0, mode - 1).shape))
        return build_q(y_mat, mode)

    monkeypatch.setattr(spectral, "build_q", counted)
    y = planted((20, 12, 40), (2, 2, 3), doc_length=100, seed=45).y
    fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=use_hooi, hooi_iters=2))
    assert calls == [(1, (20, 12, 40)), (2, (2, 12, 40))]


@pytest.mark.parametrize("iters, projections", [(0, 1), (2, 3)])
def test_hooi_fit_projects_once_more_than_it_sweeps(iters, projections, monkeypatch):
    """A HOOI fit projects the tensor on a mode-1 basis ``iters + 1`` times: once
    for the spectral start and once at the end of each sweep, whose word
    projection the next sweep and the core take.  With no sweep it returns the
    plain fit's bits."""
    y = planted((20, 12, 40), (2, 2, 3), doc_length=100, seed=45).y
    plain = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100))
    mode1_projection, calls = tensor.DenseData.mode1_projection, []

    def counted(data, xi1):
        calls.append(xi1)
        return mode1_projection(data, xi1)

    monkeypatch.setattr(tensor.DenseData, "mode1_projection", counted)
    res = fit(y, FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=True, hooi_iters=iters))
    assert len(calls) == projections
    if not iters:
        _assert_same_fit(res, plain)


def _assert_same_fit(got, want):
    for name in ("a1", "a2", "a3", "g"):
        np.testing.assert_array_equal(getattr(got.model, name), getattr(want.model, name))
    for a, b in zip((got.vocab, got.q0, *got.vertices, *got.eigvals),
                    (want.vocab, want.q0, *want.vertices, *want.eigvals)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dims, ranks, doc_length", [((200, 150, 400), (4, 3, 6), 2000),
                                                     ((100, 80, 2000), (3, 3, 5), 200),
                                                     ((30, 30, 100), (2, 2, 3), 200)],
                         ids=["corpus-dense-hooi", "corpus-sparse", "criterion-6"])
def test_hooi_fit_carrying_the_word_projection_is_bit_identical_to_reprojecting(
        dims, ranks, doc_length, monkeypatch):
    """Sweep 1's mode-3 update re-projected the tensor on the spectral bases and
    returned the spectral word basis bit for bit, and the fit projected once more
    after the last sweep.  Carrying the word projection through the sweeps
    leaves every bit of a five-sweep fit as it was."""
    y = planted(dims, ranks, doc_length=doc_length, seed=1).y
    cfg = FitConfig(ranks=ranks, doc_length=doc_length, use_hooi=True, hooi_iters=5)
    data = estimator._vocabulary(y, ranks, doc_length, cfg.sparse_c_prime)
    bases, p = estimator._hosvd(data, ranks)
    xi = tuple(basis for basis, _ in bases)
    np.testing.assert_array_equal(spectral.hooi_refine(data, xi, p, 1)[0][2], xi[2])
    ours = fit(y, cfg)
    monkeypatch.setattr(estimator, "hooi_refine", hooi_reprojecting_reference)
    _assert_same_fit(ours, fit(y, cfg))


@pytest.mark.parametrize("use_hooi", [False, True])
@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_never_writes_its_input(drop, use_hooi):
    y = planted((12, 9, 40), (2, 2, 3), doc_length=60, seed=53).y
    y = _one_word_dropped(y, 7) if drop else y.copy()
    before = y.copy()
    y.flags.writeable = False  # a write inside fit raises
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=60, sparse_c_prime=0.005 if drop else 0.0,
                    use_hooi=use_hooi, hooi_iters=1)
    assert fit(y, cfg).vocab.size == 40 - drop
    np.testing.assert_array_equal(y, before)


def test_fit_peak_memory_holds_no_copy_of_the_tensor():
    """Whether every word is kept or one is dropped, the grams, HOOI and the
    core read the tensor in place."""
    y = planted((60, 50, 200), (2, 2, 3), doc_length=100, seed=5).y
    res, peak = traced_peak(fit, y, FitConfig(ranks=(2, 2, 3), doc_length=100, sparse_c_prime=0.0,
                                         use_hooi=True))
    assert res.vocab.size == 200
    assert peak < 0.25 * y.nbytes
    y = _one_word_dropped(y, 7)
    res, peak = traced_peak(fit, y, FitConfig(ranks=(2, 2, 3), doc_length=100, use_hooi=True))
    assert res.vocab.size == 199
    assert peak < 0.25 * y.nbytes


@pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "word-dropped"])
def test_fit_of_a_wide_vocabulary_allocates_less_than_one_word_gram(drop):
    y = planted((12, 10, 3000), (2, 2, 3), doc_length=2000, seed=6).y
    y = _one_word_dropped(y, 7) if drop else y
    # the threshold keeps every word, or, at a cut far below one count, all but the zeroed one
    cfg = FitConfig(ranks=(2, 2, 3), doc_length=2000, use_hooi=True,
                    sparse_c_prime=1e-6 if drop else 0.0)
    res, peak = traced_peak(fit, y, cfg)
    assert res.vocab.size == 3000 - drop
    assert peak < 8 * 3000 ** 2


def test_hooi_fit_holds_one_contraction_sized_array_at_a_time():
    """On a dense 80 x 60 x 120 tensor with ranks (3, 2, 6), twice a sweep's
    shared word contraction (``k3 n1 n2`` entries) outweighs the mode-1
    projection ``Z`` (``k1 n2 n3``).  The fit's peak stays under the larger of
    the two plus the Gram matrices of modes 1 and 2 (0.31 MB; 0.28 MB
    measured), where copying the shared contraction for mode 2 peaked at
    0.52 MB."""
    (n1, n2, n3), (k1, k2, k3) = dims, ranks = (80, 60, 120), (3, 2, 6)
    assert 2 * k3 * n1 * n2 > k1 * n2 * n3
    y = planted(dims, ranks, doc_length=2000, seed=1).y
    peak = traced_peak(fit, y, FitConfig(ranks=ranks, doc_length=2000, use_hooi=True))[1]
    assert peak <= 8 * (max(k3 * n1 * n2, k1 * n2 * n3) + n1 ** 2 + n2 ** 2)


def test_fit_with_fewer_positive_word_rows_than_topics_is_degenerate():
    """A word whose leading-eigenvector entry is not positive is dropped by
    ratio normalization; fewer survivors than topics is a named degenerate
    fit, not the vertex hunt's bare range error."""
    y = np.zeros((5, 5, 8))
    y[:, :, 3] = 1.0
    with pytest.raises(FitDegenerateError,
                       match="ratio normalization: kept 1 of 8 word rows, fewer than the 2"):
        fit(y, FitConfig(ranks=(2, 2, 2), doc_length=10, sparse_c_prime=0.0))


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
       st.sampled_from([0.0, 0.005, 1.0]))
def test_fit_of_degenerate_tensors_names_the_stage_or_returns_a_valid_model(
        y, ranks, doc_length, use_hooi, hooi_iters, c_prime):
    try:  # FitConfig refuses ranks that break a rule needing no data, naming the mode
        cfg = FitConfig(ranks=ranks, doc_length=doc_length, use_hooi=use_hooi,
                        hooi_iters=hooi_iters, sparse_c_prime=c_prime)
    except DataFormatError as err:
        assert _STAGE.search(str(err)), f"FitConfig names no mode: {err}"
        return
    outcome = _fit_outcome(y, cfg)
    assert outcome == _fit_outcome(np.ascontiguousarray(y), cfg)
    if isinstance(outcome[1], str):
        assert _STAGE.search(outcome[1]), f"{outcome[0]} names no stage: {outcome[1]}"
    else:
        fit(y, cfg).model.validate()
