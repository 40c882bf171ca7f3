"""Gram construction, eigenvector conventions, and the power refinement."""

import numpy as np
import pytest

from tensortopics import build_q, leading_eigvecs, unfold
from tensortopics.spectral import _fix_signs, hooi_refine

from helpers import (eigh_reference, exact_mode_basis, hooi_per_mode_reference, hooi_reference,
                     kept_data, layouts, planted, start_projection, subspace_gap, traced_peak,
                     word_gram)


def test_build_q_hand_example_modes12():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(build_q(y, 1), [[5.0, 11.0], [11.0, 25.0]])
    np.testing.assert_array_equal(build_q(y, 2), [[5.0, 11.0], [11.0, 25.0]])


def test_build_q_exactly_symmetric():
    rng = np.random.default_rng(21)
    y = rng.uniform(size=(40, 90))
    q = build_q(y, 1)
    assert np.array_equal(q, q.T)
    q3 = build_q(y.T, 3)
    assert np.array_equal(q3, q3.T)


@pytest.mark.parametrize("shape", [(7, 5, 11), (40, 30, 300)], ids=["small", "blocked"])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_build_q_reads_the_tensor_in_place(mode, layout, shape):
    """The tensor with the mode's axis first gives an exactly symmetric gram
    in every layout.  On a C-ordered tensor, as ``fit`` passes it, modes 1
    and 3 flatten to views and match the explicit unfolding's gram bit for
    bit; mode 2 sums slab grams, in another order."""
    y = np.random.default_rng(23).uniform(size=shape)
    ref = build_q(unfold(y, mode), mode)
    q = build_q(np.moveaxis(layouts(y)[layout], mode - 1, 0), mode)
    assert np.array_equal(q, q.T)
    if layout == "C" and mode != 2:
        assert np.array_equal(q, ref)
    else:
        assert np.abs(q - ref).max() <= 1e-13 * np.abs(ref).max()


def test_build_q_rejects_oversized_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        build_q(np.ones((2, 2)), 4)


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


_A = np.random.default_rng(24).normal(size=(60, 60))


@pytest.mark.parametrize("k", [8, 9, 10])
def test_every_k_is_the_full_eigh(k):
    """Every ``k`` takes the top pairs of one full ``eigh``, signed by ``_fix_signs``."""
    a = np.random.default_rng(23).normal(size=(10, 10))
    q = a @ a.T
    xi, vals = leading_eigvecs(q, k)
    ref_vals, ref_vecs = eigh_reference(q)
    np.testing.assert_array_equal(vals, ref_vals[:k])
    np.testing.assert_array_equal(xi, _fix_signs(ref_vecs[:, :k]))


@pytest.mark.parametrize("q", [_A @ _A.T, np.eye(30), np.diag(np.r_[3.0, 3.0, np.ones(10)])],
                         ids=["generic", "identity", "repeated-top"])
def test_shorter_solve_is_a_prefix_of_a_longer_one(q):
    """``leading_eigvecs(q, k)`` is the first ``k`` pairs of ``leading_eigvecs(q, k')`` bit
    for bit for every ``k < k'``, so a longer screen starts with the fit's spectrum."""
    n = len(q)
    for longer in (2, n // 2, n):
        long_xi, long_vals = leading_eigvecs(q, longer)
        for k in range(1, longer):
            xi, vals = leading_eigvecs(q, k)
            np.testing.assert_array_equal(vals, long_vals[:k])
            np.testing.assert_array_equal(xi, long_xi[:, :k])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cell", [(0, 0), (4, 7)], ids=["diagonal", "off-diagonal"])
def test_non_finite_matrix_is_value_error(bad, cell):
    """``eigh`` would return NaN pairs, or finite pairs that ignore a NaN entry."""
    q = np.eye(30)
    q[cell] = bad
    with pytest.raises(ValueError, match="^q is not finite"):
        leading_eigvecs(q, 3)


def _repeated_top_gram(n=40):
    """Eigenvalues 5 (three times), 2 (five times) and 1, in a random basis."""
    u, _ = np.linalg.qr(np.random.default_rng(25).normal(size=(n, n)))
    return (u * np.r_[5.0, 5.0, 5.0, [2.0] * 5, np.ones(n - 8)]) @ u.T


def test_eigensolve_traces_the_size_of_its_gram_and_output():
    """On a 2000-row gram, the solve allocates ``q.nbytes`` for the eigenvectors of the
    full ``eigh``, its output, and a few vectors of that length."""
    n = 2000
    a = np.random.default_rng(26).normal(size=(n, 200))
    q = a @ a.T / 200.0
    (xi, vals), peak = traced_peak(leading_eigvecs, q, 5)
    assert peak <= q.nbytes + xi.nbytes + vals.nbytes + 4 * n * 8
    ref_vals, _ = eigh_reference(q)
    np.testing.assert_array_equal(vals, ref_vals[:5])


@pytest.mark.parametrize("q", [_A @ _A.T, np.eye(5), _repeated_top_gram(), np.zeros((30, 30))],
                         ids=["generic", "identity", "repeated-top", "zero"])
def test_two_calls_are_bit_identical(q):
    """Equal inputs give equal bits, also where every vector is an
    eigenvector (the identity)."""
    first, second = leading_eigvecs(q, 2), leading_eigvecs(q, 2)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


def test_noiseless_gram_has_exact_rank():
    inst = planted((30, 10, 50), (2, 2, 3), doc_length=100, seed=4)
    q = build_q(unfold(inst.model.mean_tensor(), 1), 1)
    vals = np.linalg.eigvalsh(q)[::-1]
    assert vals[2] / vals[0] < 1e-8  # rank k1 = 2


def _start(y, xi):
    """The fit's data of ``y`` and the arguments ``hooi_refine`` takes with the start ``xi``:
    ``xi``, its word projection and its captured energy."""
    data = kept_data(y)
    p = start_projection(data, xi)
    return data, xi, p, float(np.sum((xi[2].T @ p.reshape(len(p), -1)) ** 2))


def _refined(y, xi, iters):
    """The bases ``hooi_refine`` returns from the start ``xi``."""
    return hooi_refine(*_start(y, xi), iters)[0]


def test_hooi_zero_iters_identity():
    inst = planted((10, 8, 15), (2, 2, 2), doc_length=30, seed=6)
    d = inst.model.mean_tensor()
    xi = tuple(exact_mode_basis(d, m, 2) for m in (1, 2, 3))
    out = _refined(inst.y, xi, 0)
    for a, b in zip(out, xi):
        np.testing.assert_array_equal(a, b)


def test_hooi_noiseless_fixed_point():
    """On exact data the true subspaces are invariant under a power sweep."""
    inst = planted((12, 9, 25), (2, 2, 3), doc_length=100, seed=8)
    d = inst.model.mean_tensor()
    xi = tuple(exact_mode_basis(d, m, k) for m, k in ((1, 2), (2, 2), (3, 3)))
    out = _refined(d, xi, 1)
    for before, after in zip(xi, out):
        assert subspace_gap(before, after) < 1e-9


def _gram_start(y, ranks, doc_length):
    """Leading eigenvectors of the grams of modes 1 and 2 and of the word gram
    less its sampling noise: a spectral start for the sweeps."""
    return tuple(leading_eigvecs(word_gram(unfold(y, 3), doc_length) if m == 3
                                 else build_q(unfold(y, m), m), k)[0]
                 for m, k in zip((1, 2, 3), ranks))


def test_hooi_helps_on_noisy_data():
    """Median subspace error over 20 noisy instances: 3 sweeps never lose to
    the plain spectral start by more than rounding."""
    gains = []
    for seed in range(20):
        inst = planted((30, 30, 100), (2, 2, 3), doc_length=200, seed=seed)
        start = _gram_start(inst.y, (2, 2, 3), 200)
        refined = _refined(inst.y, start, 3)
        d = inst.model.mean_tensor()
        truth = [exact_mode_basis(d, m, k) for m, k in ((1, 2), (2, 2), (3, 3))]
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
    start = _gram_start(inst.y, ranks, 100)
    refined = _refined(inst.y, start, 3)
    reference = hooi_reference(inst.y, start, iters=3)
    for got, want in zip(refined, reference):
        assert got.shape == want.shape
        assert subspace_gap(got, want) <= 1e-12


def _random_bases(dims, ranks, seed):
    """A seeded uniform tensor and orthonormal bases of the given shapes."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(size=dims)
    return y, tuple(np.linalg.qr(rng.normal(size=(n, k)))[0] for n, k in zip(dims, ranks))


_BENCHMARK_SHAPES = [((100, 80, 2000), (3, 3, 5)), ((200, 150, 400), (4, 3, 6))]


@pytest.mark.parametrize("dims,ranks", _BENCHMARK_SHAPES, ids=["corpus-sparse", "corpus-dense-hooi"])
def test_hooi_shared_word_contraction_is_bit_identical_to_per_mode_einsums(dims, ranks):
    """On these shapes einsum contracts the word mode first for modes 1 and 2,
    as the sweep does.  Mode 2 then contracts the document mode by a batched
    GEMM that reads the shared contraction in place, and mode 3 takes its
    projection from two GEMMs, not einsum, so the bases differ from the
    per-mode einsums in the last bits only: within 1e-12 in subspace gap."""
    y, start = _random_bases(dims, ranks, seed=1)
    refined = _refined(y, start, 2)
    for got, want in zip(refined, hooi_per_mode_reference(y, start, 2)):
        assert subspace_gap(got, want) <= 1e-12


def test_hooi_shared_word_contraction_where_einsum_orders_mode_2_otherwise():
    """On (30, 20, 50) with ranks (2, 3, 4) einsum contracts mode 1 first for
    mode 2, so the bases may differ in the last bits, not in their spans."""
    dims, ranks = (30, 20, 50), (2, 3, 4)
    assert np.einsum_path("ijr,ip,rs->jps", np.empty(dims), np.empty((30, 2)), np.empty((50, 4)),
                          optimize=True)[0][1] == (0, 1)
    inst = planted(dims, ranks, doc_length=100, seed=1)
    start = _gram_start(inst.y, ranks, 100)
    refined = _refined(inst.y, start, 3)
    for reference in (hooi_per_mode_reference, hooi_reference):
        for got, want in zip(refined, reference(inst.y, start, 3)):
            assert subspace_gap(got, want) <= 1e-12


def test_hooi_sweep_peaks_no_higher_than_per_mode_einsums():
    """A sweep holds one contraction-sized array at a time: the shared word
    contraction, read in place by modes 1 and 2 and freed before the sweep
    contracts the tensor with its new bases, then the mode-1 projection.  Its peak is at most the
    larger of the two, ``8 max(k3 n1 n2, k1 n2 n3)`` bytes, plus twice its
    k-wide arrays (each mode's basis and projection): 2.09 MB on this shape,
    where copying the shared contraction for mode 2 peaked at 3.03 MB."""
    dims, ranks = _BENCHMARK_SHAPES[1]
    (n1, n2, n3), (k1, k2, k3) = dims, ranks
    y, start = _random_bases(dims, ranks, seed=1)
    peak = traced_peak(hooi_refine, *_start(y, start), 2)[1]
    k_wide = n1 * (k1 + k2 * k3) + n2 * (k2 + k1 * k3) + n3 * (k3 + k1 * k2)
    assert peak <= 8 * max(k3 * n1 * n2, k1 * n2 * n3) + 2 * 8 * k_wide
    assert peak <= traced_peak(hooi_per_mode_reference, y, start, 2)[1]
