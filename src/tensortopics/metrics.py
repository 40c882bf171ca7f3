"""Permutation-aligned losses, split-half agreement, and rank screening.

Topic order is not identified, so factor losses minimize over column
permutations and the core loss reuses whatever permutations the factor
losses chose.
"""

from dataclasses import dataclass

import numpy as np

from .errors import _checked_int
from .estimator import FitConfig, _hosvd, _vocabulary, fit
from .tensor import _data_word_sums, reconstruct


@dataclass(frozen=True)
class LossReport:
    """Aligned factor and core losses of a fitted model against a truth."""

    loss_a1: float
    loss_a2: float
    loss_a3: float
    loss_g: float
    recon_l1: float
    perms: tuple  # per mode, perms[a][k] = fitted column aligned to true column k


def _column_cost(a_hat, a):
    return np.abs(a_hat[:, :, None] - a[:, None, :]).sum(axis=0)


def _align_hungarian(cost):
    """Exact minimum-cost assignment, ``perm[c]`` the row of column ``c``: the Hungarian
    method by shortest augmenting paths with row and column potentials (Jonker-Volgenant),
    in O(K^3).  Column ``K`` is a dummy that holds the row being added."""
    k = cost.shape[0]
    u, v, row_of = np.zeros(k), np.zeros(k + 1), np.full(k + 1, -1)
    for i in range(k):
        row_of[k], col = i, k
        dist, came_from, done = np.full(k + 1, np.inf), np.full(k + 1, k), np.zeros(k + 1, bool)
        while row_of[col] != -1:  # grow shortest paths until one reaches a free column
            done[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v[:k]
            closer = ~done[:k] & (reduced < dist[:k])
            dist[:k][closer], came_from[:k][closer] = reduced[closer], col
            col = int(np.argmin(np.where(done[:k], np.inf, dist[:k])))
            step = dist[col]
            u[row_of[done]] += step
            v[done] -= step
            dist[~done] -= step
        while col != k:  # augment: shift the matching along the path back to the dummy
            row_of[col], col = row_of[came_from[col]], came_from[col]
    perm = row_of[:k]
    return float(cost[perm, np.arange(k)].sum()), tuple(int(p) for p in perm)


def aligned_l1_loss(a_hat, a):
    """Minimum over column permutations of the summed columnwise l1 gaps.

    Returns ``(loss, perm)`` with ``perm[k]`` the column of ``a_hat`` aligned
    to column ``k`` of ``a``, found by the Hungarian method.  The loss is the
    exact minimum; where two permutations tie exactly, either may come back.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    if a_hat.ndim != 2 or a_hat.shape != a.shape:
        raise ValueError(f"column sets must share a shape, got {a_hat.shape} vs {a.shape}")
    cost = _column_cost(a_hat, a)
    if not np.isfinite(cost).all():
        raise ValueError("column gaps must be finite")
    return _align_hungarian(cost)


def core_loss(g_hat, g, perms):
    """Entrywise l1 gap between cores after applying per-mode alignments.

    ``perms`` holds one permutation per mode, as produced by
    :func:`aligned_l1_loss`; entry ``g_hat[p1[i], p2[j], p3[k]]`` is compared
    against ``g[i, j, k]``.  Inputs are taken as ``evaluate`` hands them on:
    two cores of one shape and a permutation of each axis.
    """
    return float(np.abs(g_hat[np.ix_(*perms)] - g).sum())


def _mean_l1(models, d=None):
    """Entrywise l1 norm of the first model's mean tensor less the second's and ``d``, where
    given, by blocks of mode-1 rows of about 2**20 entries: with ``T = G(1) (a2 kron a3)^T``
    per model, a block is one GEMM, ``[a1_first | a1_second][rows] @ [T_first; -T_second]``,
    written into one buffer that every block reuses."""
    a1 = np.hstack([model.a1 for model in models])
    t = np.vstack([sign * reconstruct(m.g, np.eye(m.ranks[0]), m.a2, m.a3).reshape(m.ranks[0], -1)
                   for sign, m in zip((1.0, -1.0), models)])
    rows = max(1, (1 << 20) // max(1, t.shape[1]))
    buf = np.empty((min(rows, a1.shape[0]), t.shape[1]))
    total = 0.0
    for i in range(0, a1.shape[0], rows):
        part = a1[i:i + rows]
        block = np.matmul(part, t, out=buf[:len(part)])
        if d is not None:
            block -= d[i:i + rows].reshape(block.shape)
        total += np.abs(block, out=block).sum()
    return float(total)


def reconstruction_error(model, d):
    """Entrywise l1 distance between the model's mean tensor and ``d``, by blocks."""
    d = np.asarray(d, dtype=float)
    if model.dims != d.shape:
        raise ValueError(f"model dims {model.dims} do not match tensor {d.shape}")
    return _mean_l1((model,), d)


def evaluate(fitted, truth):
    """Score ``fitted`` against ``truth`` with one consistent alignment.

    The permutation minimizing each factor loss is reused to align the core,
    so the reported core loss reflects the same topic labeling, and the
    reconstruction error compares the two mean tensors block by block, one
    GEMM a block, without forming either.
    """
    loss1, perm1 = aligned_l1_loss(fitted.a1, truth.a1)
    loss2, perm2 = aligned_l1_loss(fitted.a2, truth.a2)
    loss3, perm3 = aligned_l1_loss(fitted.a3, truth.a3)
    loss_g = core_loss(fitted.g, truth.g, (perm1, perm2, perm3))
    return LossReport(loss_a1=loss1, loss_a2=loss2, loss_a3=loss3, loss_g=loss_g,
                      recon_l1=_mean_l1((fitted, truth)), perms=(perm1, perm2, perm3))


def cosine_match(a, b):
    """Greedy cosine pairing of columns without replacement.

    Repeatedly takes the highest-similarity remaining pair (ties to the
    lowest indices) and removes both columns.  A zero column has similarity 0
    with everything.  Returns the matched similarities in pick order.  Inputs
    are taken as ``topic_resolution`` hands them on: two word factors of one shape.
    """
    norm_a = np.linalg.norm(a, axis=0)
    norm_b = np.linalg.norm(b, axis=0)
    denom = np.outer(norm_a, norm_b)
    sim = np.zeros((a.shape[1], b.shape[1]))
    positive = denom > 0
    sim[positive] = (a.T @ b)[positive] / denom[positive]
    working = sim.copy()
    matched = []
    for _ in range(a.shape[1]):
        flat = int(np.argmax(working))
        i, j = divmod(flat, working.shape[1])
        matched.append(sim[i, j])
        working[i, :] = -np.inf
        working[:, j] = -np.inf
    return np.asarray(matched)


def topic_resolution(y, cfg, trials=20, rng=None, axis=1, splits=None):
    """Split-half topic agreement: median matched cosine across refits.

    Each trial splits the slices along ``axis`` (mode 1 or 2) into two
    halves, fits each half with ``cfg``, and greedily pairs the two word
    factors' columns by cosine similarity; the trial score is the median
    matched cosine.  Returns ``(median, interquartile range)`` of the trial
    scores.  Pass ``splits`` (one ``(first, second)`` index pair per trial)
    to force the halves; otherwise ``rng`` shuffles the slices.  A half with
    fewer slices than its rank fails as its ``fit`` does.
    """
    if axis not in (1, 2):
        raise ValueError("splits run along mode 1 or mode 2")
    trials = _checked_int("trials", trials, 1)
    y = _data_word_sums(y)[0]
    n = y.shape[axis - 1]
    if splits is None:
        if rng is None:
            rng = np.random.default_rng(0)
        shuffles = [rng.permutation(n) for _ in range(trials)]
        splits = [(np.sort(p[: n // 2]), np.sort(p[n // 2:])) for p in shuffles]
    else:
        splits = [(np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp))
                  for first, second in splits]
        if len(splits) != trials:
            raise ValueError("need exactly one split per trial")
    scores = []
    for halves in splits:
        fit_a, fit_b = (fit(np.take(y, half, axis=axis - 1), cfg) for half in halves)
        matched = cosine_match(fit_a.model.a3, fit_b.model.a3)
        scores.append(float(np.median(matched)))
    scores = np.asarray(scores)
    q25, q75 = np.percentile(scores, [25.0, 75.0])
    return float(np.median(scores)), float(q75 - q25)


def scree(y, ranks, k_max, doc_length):
    """Leading spectrum of mode ``len(ranks) + 1``, descending, for rank choice.

    ``ranks`` holds the fit ranks of the modes before it: ``()``, ``(K1,)`` or ``(K1, K2)``.
    scree runs the fit's own stages in the fit's order, the default vocabulary threshold
    included, so the spectrum it returns and the one a fit at these ranks reports in
    ``FitResult.eigvals`` agree bit for bit on their common prefix, and it fails as
    ``fit`` does.  ``k_max`` is at most ``n1`` for mode 1, ``n2`` for mode 2, and for mode 3
    both the kept words and ``K1 K2``.  A knee in the sequence suggests the mode's rank.
    """
    if not isinstance(ranks, (tuple, list)) or len(ranks) > 2:
        raise ValueError(f"ranks must hold the fit ranks of at most two modes, got {ranks!r}")
    ranks = (*(_checked_int(f"mode {mode} rank", k, 1) for mode, k in enumerate(ranks, start=1)),
             _checked_int("k_max", k_max, 1))  # one tuple: scree traces no more than fit does
    doc_length = _checked_int("doc_length", doc_length, 1)
    if len(ranks) == 3 and ranks[2] > ranks[0] * ranks[1]:
        raise ValueError(f"mode 3 k_max {ranks[2]} exceeds the projected span "
                         f"{ranks[0] * ranks[1]}")
    return _hosvd(_vocabulary(y, ranks, doc_length, FitConfig.sparse_c_prime), ranks)[0][-1][1]
