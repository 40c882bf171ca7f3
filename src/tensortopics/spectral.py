"""Spectral bases per tensor mode.

The gram matrix of a noisy frequency unfolding is biased on its diagonal by
the multinomial sampling noise.  That bias cancels between documents on the
two membership modes but not on the word mode, so mode 3 subtracts it before
the eigendecomposition; ``centered=False`` restores the plain gram matrix for
exact-mean inputs.

``leading_eigvecs`` computes only the top ``k + 1`` eigenpairs, by ARPACK's
Lanczos method (``scipy.sparse.linalg.eigsh``) started from a fixed vector of
a seeded generator, so replays are bit-identical; a start at the all-ones
vector would never reach an eigenvector that sums to zero.  When ``k + 1``
reaches the matrix size, the full LAPACK ``eigh`` runs instead.  Eigenvalues,
those in the fit diagnostics included, agree with a full ``eigh`` within
1e-12 relative, and bases within the solver residual over the eigengap.
"""

import numpy as np

from .errors import _checked_int

# Per mode: the other two modes, and the contraction of the tensor with their
# bases that keeps this mode's axis first.  Reshaped to a matrix, it equals
# ``unfold(y, mode) @ np.kron(xi_b, xi_c)`` without building either factor.
_PROJECTIONS = {
    1: ((2, 3), "ijr,jq,rs->iqs"),
    2: ((1, 3), "ijr,ip,rs->jps"),
    3: ((1, 2), "ijr,ip,jq->rpq"),
}


def _gram(m):
    """``m @ m.T``, exactly symmetric: a rank-k update once ``m`` is contiguous."""
    m = m if m.flags.f_contiguous else np.ascontiguousarray(m)
    return m @ m.T


def build_q(y_mat, mode, doc_length, centered=True):
    """Gram matrix of an unfolding, bias-corrected on the word mode.

    ``y_mat`` is a mode unfolding of the frequency tensor, or the tensor with
    the mode's axis first, read in place (a sum over slabs ``y_mat[:, i, :]``
    unless its trailing axes flatten to a view).  For mode 3 with
    ``centered=True`` the result is ``y @ y.T - diag(y @ 1) / doc_length``;
    modes 1 and 2 always return the plain gram matrix.  The output is exactly
    symmetric.
    """
    y = np.asarray(y_mat, dtype=float)
    if y.ndim not in (2, 3):
        raise ValueError("expected an unfolding or a tensor with the mode's axis first")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    if y.ndim == 3 and y.strides[1] == y.shape[2] * y.strides[2]:
        y = y.reshape(y.shape[0], -1)  # a view for these strides
    slabs = np.moveaxis(y, 1, 0) if y.ndim == 3 else [y]
    q = _gram(slabs[0])
    for slab in slabs[1:]:
        q += _gram(slab)
    if mode == 3 and centered:
        q[np.diag_indices_from(q)] -= (y.sum(axis=tuple(range(1, y.ndim)))
                                       / _checked_int("doc_length", doc_length, 1))
    return q


def eigsh(q, **kwargs):
    """``scipy.sparse.linalg.eigsh``, imported on first use so the CLI starts without ARPACK."""
    from scipy.sparse.linalg import eigsh as arpack
    return arpack(q, **kwargs)


def _load_arpack(ranks, sizes):
    """Import ARPACK if a ``leading_eigvecs`` call of these ranks and matrix sizes
    would take it.  Its BLAS starts threads as it loads, and a gram run while they
    start runs slow: callers load it before their first gram, ahead of other work."""
    if any(k + 1 < n for k, n in zip(ranks, sizes)):
        import scipy.sparse.linalg  # noqa: F401


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
    """Top ``k`` eigenpairs of a symmetric matrix, deterministically signed.

    Columns come back orthonormal with eigenvalues sorted descending.
    Raises ``ValueError`` when ``k`` is out of range and
    ``numpy.linalg.LinAlgError`` if the eigensolver fails to converge.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be a square matrix")
    n = q.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k + 1 < n:
        from scipy.sparse.linalg import ArpackError
        rng = np.random.default_rng(0)
        try:
            vals, vecs = eigsh(q, k=k + 1, which="LA", v0=rng.uniform(0.5, 1.5, n), rng=rng)
        except ArpackError as err:
            raise np.linalg.LinAlgError(str(err)) from err
    else:
        vals, vecs = np.linalg.eigh(q)
    order = np.argsort(vals, kind="stable")[::-1][:k]
    return _fix_signs(vecs[:, order]), vals[order]


def hooi_refine(y, xi, iters):
    """Power-iteration refinement of all three bases against raw ``y``.

    ``xi`` holds one orthonormal ``(n_a, k_a)`` basis per mode.  Each sweep
    contracts ``y`` with the other two modes' bases from the previous sweep
    and takes fresh leading left singular vectors of the projection, so all
    three updates within a sweep read the same iterate.
    ``iters=0`` returns the input bases unchanged.  Sign convention matches
    :func:`leading_eigvecs`.
    """
    iters = _checked_int("iters", iters, 0)
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise ValueError("expected an order-3 data tensor")
    xi = tuple(xi)
    for _ in range(iters):
        new_xi = []
        for mode in (1, 2, 3):
            (b, c), subscripts = _PROJECTIONS[mode]
            projected = np.einsum(subscripts, y, xi[b - 1], xi[c - 1], optimize=True)
            projected = projected.reshape(projected.shape[0], -1)
            k = xi[mode - 1].shape[1]
            if k > min(projected.shape):
                raise ValueError(
                    f"mode {mode} rank {k} exceeds the projected span "
                    f"{min(projected.shape)}")
            u, _, _ = np.linalg.svd(projected, full_matrices=False)
            new_xi.append(_fix_signs(u[:, :k]))
        xi = tuple(new_xi)
    return xi
