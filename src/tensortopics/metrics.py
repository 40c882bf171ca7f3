"""Permutation-aligned losses, split-half agreement, and rank screening.

Topic order is not identified, so factor losses minimize over column
permutations and the core loss reuses whatever permutations the factor
losses chose.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .estimator import fit
from .spectral import build_q
from .tensor import unfold


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


def _align_brute(cost):
    """Exhaustive minimum over all permutations: the reference that tests
    hold the assignment solver to."""
    k = cost.shape[0]
    columns = np.arange(k)
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(k)):
        total = cost[perm, columns].sum()
        if total < best:
            best = total
            best_perm = perm
    return float(best), tuple(best_perm)


def _align_hungarian(cost):
    rows, columns = linear_sum_assignment(cost)
    perm = np.empty(len(rows), dtype=int)
    perm[columns] = rows
    return float(cost[perm, np.arange(len(rows))].sum()), tuple(int(p) for p in perm)


def aligned_l1_loss(a_hat, a):
    """Minimum over column permutations of the summed columnwise l1 gaps.

    Returns ``(loss, perm)`` with ``perm[k]`` the column of ``a_hat`` aligned
    to column ``k`` of ``a``, found by a linear assignment solver.  The loss
    is the exact minimum; where two permutations tie exactly, which of them
    comes back is left to the solver.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    if a_hat.ndim != 2 or a_hat.shape != a.shape:
        raise ValueError(f"column sets must share a shape, got {a_hat.shape} vs {a.shape}")
    return _align_hungarian(_column_cost(a_hat, a))


def core_loss(g_hat, g, perms):
    """Entrywise l1 gap between cores after applying per-mode alignments.

    ``perms`` holds one permutation per mode, as produced by
    :func:`aligned_l1_loss`; entry ``g_hat[p1[i], p2[j], p3[k]]`` is compared
    against ``g[i, j, k]``.
    """
    g_hat = np.asarray(g_hat, dtype=float)
    g = np.asarray(g, dtype=float)
    if g_hat.ndim != 3 or g_hat.shape != g.shape:
        raise ValueError(f"cores must share a shape, got {g_hat.shape} vs {g.shape}")
    if len(perms) != 3:
        raise ValueError("need one permutation per mode")
    aligned_axes = []
    for axis, perm in enumerate(perms):
        perm = np.asarray(perm, dtype=np.intp)
        if sorted(perm.tolist()) != list(range(g.shape[axis])):
            raise ValueError(f"perms[{axis}] is not a permutation of axis {axis}")
        aligned_axes.append(perm)
    aligned = g_hat[np.ix_(*aligned_axes)]
    return float(np.abs(aligned - g).sum())


def reconstruction_error(model, d):
    """Entrywise l1 distance between the model's mean tensor and ``d``."""
    d = np.asarray(d, dtype=float)
    mean = model.mean_tensor()
    if mean.shape != d.shape:
        raise ValueError(f"model dims {mean.shape} do not match tensor {d.shape}")
    return float(np.abs(mean - d).sum())


def evaluate(fitted, truth):
    """Score ``fitted`` against ``truth`` with one consistent alignment.

    The permutation minimizing each factor loss is reused to align the core,
    so the reported core loss reflects the same topic labeling, and the
    reconstruction error compares against the truth's mean tensor.
    """
    loss1, perm1 = aligned_l1_loss(fitted.a1, truth.a1)
    loss2, perm2 = aligned_l1_loss(fitted.a2, truth.a2)
    loss3, perm3 = aligned_l1_loss(fitted.a3, truth.a3)
    loss_g = core_loss(fitted.g, truth.g, (perm1, perm2, perm3))
    recon = reconstruction_error(fitted, truth.mean_tensor())
    return LossReport(loss_a1=loss1, loss_a2=loss2, loss_a3=loss3,
                      loss_g=loss_g, recon_l1=recon, perms=(perm1, perm2, perm3))


def cosine_match(a, b):
    """Greedy cosine pairing of columns without replacement.

    Repeatedly takes the highest-similarity remaining pair (ties to the
    lowest indices) and removes both columns.  A zero column has similarity 0
    with everything.  Returns the matched similarities in pick order.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("need two column sets with equal column counts")
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
    to force the halves; otherwise ``rng`` shuffles the slices.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise ValueError("expected an order-3 data tensor")
    if axis not in (1, 2):
        raise ValueError("splits run along mode 1 or mode 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    n = y.shape[axis - 1]
    if n // 2 < cfg.ranks[axis - 1]:
        raise ValueError(
            f"half of {n} slices cannot support rank {cfg.ranks[axis - 1]}")
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
    for first, second in splits:
        if axis == 1:
            half_a, half_b = y[first], y[second]
        else:
            half_a, half_b = y[:, first], y[:, second]
        fit_a = fit(np.ascontiguousarray(half_a), cfg)
        fit_b = fit(np.ascontiguousarray(half_b), cfg)
        matched = cosine_match(fit_a.model.a3, fit_b.model.a3)
        scores.append(float(np.median(matched)))
    scores = np.asarray(scores)
    q25, q75 = np.percentile(scores, [25.0, 75.0])
    return float(np.median(scores)), float(q75 - q25)


def scree(y, mode, k_max, doc_length):
    """Leading gram eigenvalues of one mode, descending, for rank choice.

    Uses the same bias-corrected gram matrix as the fit, so a knee in this
    sequence suggests the planted rank of that mode.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise ValueError("expected an order-3 data tensor")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    n = y.shape[mode - 1]
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must lie in [1, {n}], got {k_max}")
    q = build_q(unfold(y, mode), mode, doc_length)
    vals = np.linalg.eigvalsh(q)
    return vals[::-1][:k_max].copy()
