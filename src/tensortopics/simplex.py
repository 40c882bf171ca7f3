"""Vertex geometry on spectral row clouds.

Rows of an exact factor basis live in a simplex whose vertices correspond to
pure topics; these routines locate the vertices and express every row in the
vertex basis.  All tie-breaks take the lowest row index, so equal inputs pick
identical vertices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FitDegenerateError


@dataclass(frozen=True)
class ScoreResult:
    """Ratio coordinates of eigenvector rows with a positive leading entry."""

    s: np.ndarray          # (kept, k-1) trailing entries over the leading one
    first_col: np.ndarray  # (kept,) strictly positive leading entries
    kept: np.ndarray       # (kept,) indices into the original rows


@dataclass(frozen=True)
class VertexSet:
    """Rows chosen as simplex vertices."""

    indices: np.ndarray  # (k,) distinct row indices into the searched cloud
    v: np.ndarray        # (k, d) the corresponding input rows, unprojected


def score_normalize(xi):
    """Divide each eigenvector row by its leading entry, dropping bad rows.

    Rows whose leading entry is not positive beyond rounding (``n`` epsilons
    of the largest) carry no usable scale and are absent from ``kept``.  The
    surviving rows satisfy ``diag(first_col) @ [1 | s] == xi[kept]`` up to rounding.
    ``xi`` is taken as ``fit`` hands it on: a float eigenvector basis.
    """
    kept = np.flatnonzero(xi[:, 0] > len(xi) * np.finfo(float).eps * np.abs(xi[:, 0]).max())
    if kept.size == 0:
        raise FitDegenerateError(
            "ratio normalization: no row of the leading eigenvector is positive")
    first = xi[kept, 0].copy()
    s = xi[kept, 1:] / first[:, None]
    return ScoreResult(s=s, first_col=first, kept=kept)


def spa_vertex_hunt(points, k):
    """Greedy extreme-row search: take the longest row, project everything
    onto its orthogonal complement, repeat ``k`` times.

    On a cloud contained in the convex hull of ``k`` of its rows this returns
    exactly those rows.  Ties fall to the lowest row index, and a row is never
    picked twice.

    The search runs on homogeneous coordinates ``[1 | row]``.  Simplex
    vertices are affinely independent but need not be linearly independent
    (k points in k-1 dimensions never are), and the constant coordinate is
    what lets all k picks survive the orthogonal deflation.  The first pick
    is still the maximum-norm row, since ``1 + |row|^2`` is monotone.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a matrix of row coordinates")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    work = np.column_stack([np.ones(n), pts])
    free = np.ones(n, dtype=bool)
    chosen = []
    for _ in range(k):
        norms = np.einsum("ij,ij->i", work, work)
        norms[~free] = -1.0
        pick = int(np.argmax(norms))
        direction = work[pick]
        length = np.linalg.norm(direction)
        if length > 0.0:
            direction = direction / length
            work = work - np.outer(work @ direction, direction)
        chosen.append(pick)
        free[pick] = False
    indices = np.asarray(chosen, dtype=np.intp)
    return VertexSet(indices=indices, v=pts[indices].copy())


def recover_weights(s_star, v_star):
    """Express rows of ``s_star`` in the vertex basis ``v_star`` and clip the
    result onto the probability simplex.

    Solves ``weights @ v_star = s_star`` row by row, zeroes negative solved
    coordinates, and renormalizes each row to unit sum; a row that loses all
    its mass becomes uniform.  Raises when the vertex matrix is numerically
    singular (smallest singular value at most ``1e-10`` of the largest).  Inputs
    are taken as ``fit`` hands them on: float rows and a square vertex matrix
    of matching width.
    """
    spectrum = np.linalg.svd(v_star, compute_uv=False)
    if spectrum[-1] <= 1e-10 * spectrum[0]:
        raise FitDegenerateError(
            "weight recovery: vertex matrix is numerically singular, the hunted "
            "vertices do not span the simplex")
    return clip_to_simplex(np.linalg.solve(v_star.T, s_star.T).T)


def clip_to_simplex(x):
    """Zero the negative entries of ``x`` and rescale every slice along the
    last axis to unit sum; a slice left with no mass becomes uniform."""
    x = np.clip(x, 0.0, None)
    sums = x.sum(axis=-1, keepdims=True)
    empty = sums[..., 0] == 0.0
    if np.any(empty):
        x[empty] = 1.0 / x.shape[-1]
        sums[empty] = 1.0
    return x / sums
