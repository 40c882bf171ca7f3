"""Spectral bases per tensor mode.

The gram matrix of a noisy frequency unfolding is biased on its diagonal by
the multinomial sampling noise.  That bias cancels between documents on the
two membership modes but not on the word mode, so mode 3 subtracts it before
the eigendecomposition; ``centered=False`` restores the plain gram matrix for
exact-mean inputs.

``leading_eigvecs`` computes only the top ``k + 1`` eigenpairs, by a
thick-restart Lanczos method started from a fixed vector of a seeded
generator, so replays are bit-identical; a start at the all-ones vector would
never reach an eigenvector that sums to zero.  When ``k + 1`` reaches the
matrix size, the full LAPACK ``eigh`` runs instead.  Eigenvalues, those in the
fit diagnostics included, agree with a full ``eigh`` within 1e-12 relative,
and bases within the solver residual over the eigengap.
"""

import numpy as np

from .errors import _check_mode, _checked_int

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
    _check_mode(mode)
    if y.ndim == 3 and y.strides[1] == y.shape[2] * y.strides[2]:
        y = y.reshape(y.shape[0], -1)  # a view for these strides
    slabs = np.moveaxis(y, 1, 0) if y.ndim == 3 else [y]
    q = _gram(slabs[0])
    for slab in slabs[1:]:
        q += _gram(slab)
    if mode == 3 and centered:
        doc_length = _checked_int("doc_length", doc_length, 1)
        _subtract_word_noise(q, y.sum(axis=tuple(range(1, y.ndim))), doc_length)
    return q


def _subtract_word_noise(q, word_sums, doc_length):
    """Subtract the sampling noise ``diag(word_sums) / doc_length`` from a word gram; the
    positive integer ``doc_length`` is taken as its callers check it."""
    q[np.diag_indices_from(q)] -= word_sums / doc_length


_MAX_RESTARTS = 1000  # the reference word gram takes about 30


def _orthogonalize(w, basis):
    """Remove from ``w``, in place, its part in the span of the orthonormal
    columns of ``basis`` by two classical Gram-Schmidt passes; return ``w``."""
    for _ in range(2):
        w -= basis @ (basis.T @ w)
    return w


def _lanczos(q, nev):
    """Top ``nev < n`` eigenpairs of a symmetric ``q``, eigenvalues ascending:
    thick-restart Lanczos (Wu and Simon), fully reorthogonalized, on a basis of
    ``max(2 nev + 1, 20)`` vectors (at most ``n``) rotated in place.  Restarts
    keep the leading Ritz vectors largest first, so a converged dominant pair
    does not spread its rounding over the rest.  Pairs converge at residual
    estimates of epsilon times the largest ``|q v|`` seen.  An invariant
    subspace goes on from a fresh seeded direction.
    """
    n = q.shape[0]
    m = min(n, max(2 * nev + 1, 20))
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    basis = np.empty((n, m), order="F")
    t = np.zeros((m, m))
    v = rng.uniform(0.5, 1.5, n)
    kept, scale = 0, 0.0
    for _ in range(_MAX_RESTARTS + 1):
        for j in range(kept, m):
            basis[:, j] = v = v / np.linalg.norm(v)
            w = q @ v
            scale = max(scale, np.linalg.norm(w))
            t[j, j] = v @ w
            beta = np.linalg.norm(_orthogonalize(w, basis[:, :j + 1]))
            if beta <= n * eps * scale:  # numerically invariant, as a full basis is
                beta = 0.0
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
                v = w if beta else _orthogonalize(rng.uniform(-1.0, 1.0, n), basis[:, :j + 1])
        theta, s = np.linalg.eigh(t)
        converged = np.abs(beta * s[-1, -nev:]) <= eps * scale
        kept = nev if converged.all() else nev + (m - nev) // 2
        top = slice(None, -kept - 1, -1)
        for rows in range(0, n, 512):
            block = basis[rows:rows + 512]
            block[:, :kept] = block @ s[:, top]
        if converged.all():
            return theta[-nev:], basis[:, nev - 1::-1]
        t = np.diag(np.r_[theta[top], np.zeros(m - kept)])
        t[:kept, kept] = t[kept, :kept] = beta * s[-1, top]
        v = w
    raise np.linalg.LinAlgError(f"Lanczos: {converged.sum()} of {nev} eigenpairs converged "
                                f"in {_MAX_RESTARTS} restarts")


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
    vals, vecs = _lanczos(q, k + 1) if k + 1 < n else np.linalg.eigh(q)
    return _fix_signs(vecs[:, :-k - 1:-1]), vals[:-k - 1:-1].copy()


def hooi_refine(y, xi, iters):
    """Power-iteration refinement of all three bases against raw ``y``.

    ``xi`` holds one orthonormal ``(n_a, k_a)`` basis per mode.  Each sweep contracts ``y``
    with the other two modes' bases from the previous sweep and takes fresh leading left
    singular vectors of the projection, so all three updates within a sweep read the same
    iterate.  Modes 1 and 2 share the contraction with the word basis, so a sweep reads ``y``
    twice.  ``iters=0`` returns the input bases unchanged.  Signs follow
    :func:`leading_eigvecs`; inputs are taken as ``fit`` checks them.
    """
    xi = tuple(xi)
    for _ in range(iters):
        by_word = np.tensordot(xi[2], y, axes=([0], [2]))  # (k3, n1, n2)
        projected = [np.tensordot(by_word, xi[1], axes=([2], [0])).transpose(1, 2, 0),
                     np.tensordot(by_word, xi[0], axes=([1], [0])).transpose(1, 2, 0)]
        del by_word  # freed before mode 3 contracts y
        projected.append(np.einsum("ijr,ip,jq->rpq", y, xi[0], xi[1], optimize=True))
        xi = tuple(_fix_signs(np.linalg.svd(p.reshape(len(p), -1), full_matrices=False)[0][:, :k])
                   for p, k in zip(projected, (x.shape[1] for x in xi)))
    return xi
