"""Spectral bases per tensor mode.

A fit forms the mode-1 gram only, as a sequentially truncated HOSVD: the mode-2 basis comes
from the gram of the tensor projected on the mode-1 basis (``mode1_projection``), and
``word_basis`` from the tensor projected on the bases of modes 1 and 2 (``word_projection``).
The projections keep too few of the multinomial sampling noise directions to bias a
diagonal, so every gram is the plain one.

``leading_eigvecs`` takes the top ``k`` pairs of a full LAPACK ``eigh``.  Its O(n^3) cost is
about that of forming a gram of ``12 n`` columns; the fit solves only the mode-1 gram, of
``n2 n3`` columns, and the mode-2 gram, of ``k1 n3``.  A shorter solve is a prefix of a longer
one bit for bit, so ``scree`` and ``fit`` agree at any length, and replays are bit-identical.
"""

import numpy as np

from .errors import DataFormatError, FitDegenerateError, _all_finite, _check_mode

def _gram(m):
    """Gram matrix of ``m``, exactly symmetric: ``m @ m.T`` of a matrix, or the sum of the
    slab grams ``m[:, s, :] @ m[:, s, :].T`` of a tensor with the mode's axis first, read
    in place (one product where its trailing axes flatten to a view)."""
    if m.ndim == 3 and m.strides[1] == m.shape[2] * m.strides[2]:
        m = m.reshape(m.shape[0], -1)  # a view for these strides
    if m.ndim == 3:
        q = _gram(m[:, 0])
        for s in range(1, m.shape[1]):
            q += _gram(m[:, s])
        return q
    m = m if m.flags.f_contiguous else np.ascontiguousarray(m)  # a rank-k update
    return m @ m.T


def build_q(y_mat, mode):
    """Gram matrix of one mode, exactly symmetric.

    ``y_mat`` is a mode unfolding, or a tensor with the mode's axis first, read in place (a
    sum over slabs ``y_mat[:, i, :]`` unless its trailing axes flatten to a view): the
    frequency tensor for mode 1, its :func:`mode1_projection` for mode 2.  Their leading
    eigenvalues are a fit's ``eigvals`` of these modes, and ``scree`` returns a prefix of them.
    """
    y = np.asarray(y_mat, dtype=float)
    if y.ndim not in (2, 3):
        raise ValueError("expected an unfolding or a tensor with the mode's axis first")
    _check_mode(mode)
    return _gram(y)


def _fix_signs(vecs):
    """Flip columns so each sums positive; a zero sum falls back to making
    the first entry of largest magnitude positive."""
    vecs = np.array(vecs)
    for c in range(vecs.shape[1]):
        column = vecs[:, c]
        total = column.sum()
        if total < 0.0:
            column *= -1.0
        elif total == 0.0:
            lead = int(np.argmax(np.abs(column)))
            if column[lead] < 0.0:
                column *= -1.0
    return vecs


def leading_eigvecs(q, k):
    """Top ``k`` eigenpairs of a symmetric matrix by a full ``eigh``, deterministically signed.

    Columns come back orthonormal with eigenvalues sorted descending.
    Raises ``ValueError`` when ``q`` is not a finite square matrix or ``k`` is out of range,
    and ``numpy.linalg.LinAlgError`` if the eigensolver fails to converge.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be a square matrix")
    if not _all_finite(q):
        raise ValueError("q is not finite: it holds a NaN or an infinite entry")
    n = q.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    vals, vecs = np.linalg.eigh(q)
    return _fix_signs(vecs[:, :-k - 1:-1]), vals[:-k - 1:-1].copy()


def _too_big(mode, rows, width):
    return DataFormatError(
        f"mode {mode} projection: a {rows} x {width} matrix is too big to allocate")


def mode1_projection(y, xi1):
    """``Z = Y x1 xi1^T``, of shape ``(k1, n2, n3)``: one GEMM on the mode-1 unfolding
    view of the C-ordered ``y``.  Errors name mode 2, whose basis ``fit`` takes from ``Z``."""
    try:
        return np.matmul(xi1.T, y.reshape(len(y), -1)).reshape(xi1.shape[1], *y.shape[1:])
    except MemoryError:
        raise _too_big(2, y.shape[1], xi1.shape[1] * y.shape[2]) from None


def word_projection(z, xi2):
    """``P = Z x2 xi2^T`` of the :func:`mode1_projection` ``z``, viewed as ``(n3, k1, k2)``:
    one batched GEMM; errors name mode 3.  ``P`` cannot overflow where the mode-1 gram did
    not."""
    try:
        return np.matmul(xi2.T, z).transpose(2, 0, 1)
    except MemoryError:
        raise _too_big(3, z.shape[2], z.shape[0] * xi2.shape[1]) from None


def word_basis(p, k3, words=slice(None)):
    """The ``k3`` leading left singular vectors of the :func:`word_projection` ``p`` unfolded
    to ``n3 x k1 k2``, signed as :func:`leading_eigvecs` signs them, and their squared singular
    values.  Only the rows in ``words`` (default: all) enter; other rows are zero.  Errors
    name mode 3."""
    unfolded = p.reshape(len(p), -1)
    try:
        u, s, _ = np.linalg.svd(unfolded[words], full_matrices=False)
    except MemoryError:
        raise _too_big(3, *unfolded.shape) from None
    except np.linalg.LinAlgError as err:
        raise FitDegenerateError(f"mode 3 SVD did not converge: {err}") from err
    basis = np.zeros((len(p), k3))
    basis[words] = _fix_signs(u[:, :k3])
    return basis, s[:k3] ** 2


def hooi_refine(y, xi, p, iters, words=slice(None)):
    """Power-iteration refinement of all three bases against raw ``y``; returns the bases and
    their :func:`word_projection`.

    ``xi`` holds one orthonormal ``(n_a, k_a)`` basis per mode and ``p`` is the word projection
    of its first two.  Each sweep contracts ``y`` with the other two modes' bases from the
    previous sweep and takes fresh leading left singular vectors of the projection, so all
    three updates within a sweep read the same iterate.  Mode 3 is :func:`word_basis` of the
    carried ``p`` over the rows in ``words``; modes 1 and 2 read their shared contraction with
    the word basis in place, and the sweep ends with the word projection of its new bases, so
    a sweep reads ``y`` twice and holds one contraction-sized array at a time.  Signs follow
    :func:`leading_eigvecs`; inputs are taken as ``fit`` checks them.
    """
    xi = tuple(xi)
    for _ in range(iters):
        word = word_basis(p, xi[2].shape[1], words)[0]
        by_word = np.tensordot(xi[2], y, axes=([0], [2]))  # (k3, n1, n2)
        projected = [np.tensordot(by_word, xi[1], axes=([2], [0])).transpose(1, 2, 0),
                     np.matmul(xi[0].T, by_word).transpose(2, 0, 1)]
        del by_word  # freed before the word projection contracts y
        xi = (*(_fix_signs(np.linalg.svd(m.reshape(len(m), -1), full_matrices=False)[0][:, :k])
                for m, k in zip(projected, (x.shape[1] for x in xi))), word)
        p = word_projection(mode1_projection(y, xi[0]), xi[1])
    return xi, p
