"""Spectral bases per tensor mode.

A fit forms the mode-1 gram only, as a sequentially truncated HOSVD: the mode-2 basis comes
from the gram of ``Z``, the tensor projected on the mode-1 basis, and the word basis from its
``word_projection``.  The projections keep too few of the multinomial sampling noise directions
to bias a diagonal, so every gram is the plain one.  The data tensor is read only through a
``tensor.DenseData``, which hands it to ``build_q`` and forms ``hooi_refine``'s contractions.

``leading_eigvecs`` takes the top ``k`` pairs of a full LAPACK ``eigh``.  Its O(n^3) cost is
about that of forming a gram of ``12 n`` columns; the fit solves only the mode-1 gram, of
``n2 n3`` columns, and the mode-2 gram, of ``k1 n3``.  A shorter solve is a prefix of a longer
one bit for bit, so ``scree`` and ``fit`` agree at any length, and replays are bit-identical.
"""

import numpy as np

from .errors import DataFormatError, _all_finite, _check_mode, _stage

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
    frequency tensor for mode 1, its projection ``Z`` on the mode-1 basis for mode 2.  Their
    leading eigenvalues are a fit's ``eigvals`` of these modes; ``scree`` returns a prefix.
    """
    y = np.asarray(y_mat, dtype=float)
    if y.ndim not in (2, 3):
        raise ValueError("expected an unfolding or a tensor with the mode's axis first")
    _check_mode(mode)
    return _gram(y)


def _mode_gram(m, mode, less=()):
    """:func:`build_q` of ``m``, the mode's axis first, less the gram of each matrix in ``less``;
    an overflow is a ``DataFormatError`` naming the mode."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        q = build_q(m, mode)
        for slab in less:
            q -= _gram(slab)
    if not _all_finite(q):
        what = "data entries reach" if mode == 1 else "the projection on the mode-1 basis reaches"
        raise DataFormatError(f"mode {mode} gram overflows: {what} {max(m.max(), -m.min()):.1e}")
    return q


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


def word_projection(z, xi2):
    """``P = Z x2 xi2^T`` of the projection ``z`` of shape ``(k1, n2, n3)``, viewed as
    ``(n3, k1, k2)``: one batched GEMM.  ``P`` cannot overflow where the mode-1 gram did not."""
    return np.matmul(xi2.T, z).transpose(2, 0, 1)


def _left_singular(m, k):
    """The ``k`` leading left singular vectors of ``m`` unfolded to ``len(m)`` rows, signed as in
    :func:`leading_eigvecs`, and their squared singular values: the one SVD of every basis, where
    a dropped word's zero row of the :func:`word_projection` gives a row zero within rounding."""
    u, s, _ = np.linalg.svd(m.reshape(len(m), -1), full_matrices=False)
    return _fix_signs(u[:, :k]), s[:k] ** 2


def hooi_refine(data, xi, p, iters):
    """Power-iteration refinement of all three bases; returns them and their word projection.

    ``data`` is the fit's ``tensor.DenseData``, ``xi`` one orthonormal ``(n_a, k_a)`` basis per
    mode and ``p`` the word projection of its first two.  Each sweep takes fresh leading left
    singular vectors of the tensor contracted with the other two modes' previous bases, so all
    three updates read the same iterate: mode 3 from the carried ``p``, modes 1 and 2 from
    their shared word contraction, read in place.  The sweep ends with the word projection of
    its new bases, so it reads the tensor twice and holds one contraction-sized array at a
    time.  Signs follow :func:`leading_eigvecs`; inputs are taken as ``fit`` checks them.
    Sweep ``s`` is the stage ``HOOI sweep s``, and its SVDs ``HOOI sweep s, mode m basis``.
    """
    xi, ranks = tuple(xi), [x.shape[1] for x in xi]
    for sweep in range(1, iters + 1):
        with _stage(f"HOOI sweep {sweep}"):
            by_word = data.word_contraction(xi[2])  # (k3, n1, n2)
            projected = [np.tensordot(by_word, xi[1], axes=([2], [0])).transpose(1, 2, 0),
                         np.matmul(xi[0].T, by_word).transpose(2, 0, 1), p]
            del by_word  # freed before the projection contracts the tensor
            bases = []
            for mode, (m, k) in enumerate(zip(projected, ranks), start=1):
                with _stage(f"HOOI sweep {sweep}, mode {mode} basis"):
                    bases.append(_left_singular(m, k)[0])
            xi = tuple(bases)
            p = word_projection(data.mode1_projection(xi[0]), xi[1])
    return xi, p
