"""Shared fixtures: planted instances, a hand-built structured model, and
independent brute-force oracles used to cross-check the library."""

import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from tensortopics import GenSpec, TuckerModel, build_q, generate
from tensortopics.spectral import word_projection
from tensortopics.tensor import DenseData


def planted(dims, ranks, doc_length, seed, **kw):
    return generate(GenSpec(dims=dims, ranks=ranks, doc_length=doc_length,
                            seed=seed, **kw))


def kept_data(y, vocab=None):
    """``y`` as a fit's data, C-ordered float, with the words in ``vocab`` kept (all by
    default)."""
    y = np.ascontiguousarray(y, dtype=float)
    return DenseData(y, np.arange(y.shape[2]) if vocab is None else np.asarray(vocab))


def start_projection(data, xi):
    """The word projection ``P`` of the bases of modes 1 and 2 in ``xi``."""
    return word_projection(data.mode1_projection(xi[0]), xi[1])


def toy_structured_model():
    """Small fully hand-specified model: block memberships, anchored words."""
    a1 = np.zeros((30, 2))
    a1[:10, 0] = 1.0
    a1[10:20] = 0.5
    a1[20:, 1] = 1.0
    a2 = np.zeros((10, 2))
    a2[:5, 0] = 1.0
    a2[5:, 1] = 1.0
    rng = np.random.default_rng(20240817)
    w = rng.uniform(0.2, 1.0, size=(50, 3))
    w[:3] *= np.eye(3)
    a3 = w / w.sum(axis=0)
    g = np.array([
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]],
        [[0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]],
    ])
    return TuckerModel(a1=a1, a2=a2, a3=a3, g=g)


def _align_brute(cost):
    """Exhaustive minimum over all permutations: the reference that tests
    hold the assignment solver to."""
    k = cost.shape[0]
    columns = np.arange(k)
    best = np.inf
    best_perm = None
    for perm in permutations(range(k)):
        total = cost[perm, columns].sum()
        if total < best:
            best = total
            best_perm = perm
    return float(best), tuple(best_perm)


def max_volume_subset(points, k):
    """Exhaustive max-volume vertex search, the oracle for the greedy hunt.

    Scores every k-subset by the Gram determinant of its edge vectors from
    the first member; the true simplex vertices maximize enclosed volume.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    best_score = -np.inf
    best = None
    for combo in combinations(range(n), k):
        rows = pts[list(combo)]
        edges = rows[1:] - rows[0]
        gram = edges @ edges.T
        score = float(np.linalg.det(gram)) if k > 1 else float(rows[0] @ rows[0])
        if score > best_score + 1e-15:
            best_score = score
            best = combo
    return np.asarray(best, dtype=np.intp)


def subspace_gap(u, v):
    """Spectral distance between the column spans of two orthonormal bases."""
    return float(np.linalg.norm(u @ u.T - v @ v.T, 2))


def subspace_sine(u, v):
    """Sine of the largest principal angle between the spans of two
    orthonormal bases of equal width, without forming ``n x n`` projectors."""
    return float(np.linalg.norm(v - u @ (u.T @ v), 2))


def eigh_reference(q):
    """Every eigenpair of a symmetric matrix by a full LAPACK ``eigh``,
    eigenvalues descending: ``leading_eigvecs`` returns its top pairs bit for bit."""
    vals, vecs = np.linalg.eigh(q)
    return vals[::-1], vecs[:, ::-1]


def word_gram(y3, doc_length):
    """The paper's word gram less its multinomial sampling noise,
    ``Y3 Y3^T - diag(Y3 1) / doc_length``, of a mode-3 unfolding or of the tensor
    with the word axis first: the estimator the word basis once came from, kept
    as a reference."""
    y = np.asarray(y3, dtype=float)
    q = build_q(y, 3)
    q[np.diag_indices_from(q)] -= y.sum(axis=tuple(range(1, y.ndim))) / doc_length
    return q


def arpack_pairs(q, nev):
    """Top ``nev`` eigenpairs by ARPACK from a seeded start vector, eigenvalues
    ascending: an independent partial eigensolver that fits with the full
    ``eigh`` of ``leading_eigvecs`` are held to."""
    from scipy.sparse.linalg import eigsh

    rng = np.random.default_rng(0)
    vals, vecs = eigsh(q, k=nev, which="LA", v0=rng.uniform(0.5, 1.5, q.shape[0]), rng=rng)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def exact_mode_basis(d, mode, k):
    """Top-k left singular vectors of a mode unfolding, sign unconstrained."""
    from tensortopics import unfold

    u, _, _ = np.linalg.svd(unfold(d, mode), full_matrices=False)
    return u[:, :k]


def hooi_reference(y, xi, iters):
    """HOOI sweeps through explicit unfoldings and Kronecker products: the
    reference that the direct tensor contraction of ``hooi_refine`` is held to."""
    from tensortopics import unfold
    from tensortopics.spectral import _fix_signs

    others = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    xi = tuple(xi)
    for _ in range(iters):
        new_xi = []
        for mode in (1, 2, 3):
            b, c = others[mode]
            projected = unfold(y, mode) @ np.kron(xi[b - 1], xi[c - 1])
            u, _, _ = np.linalg.svd(projected, full_matrices=False)
            new_xi.append(_fix_signs(u[:, :xi[mode - 1].shape[1]]))
        xi = tuple(new_xi)
    return xi


def hooi_tensordot_reference(data, xi, p, iters):
    """HOOI sweeps as ``hooi_refine`` ran them when mode 2 took its projection
    from the shared word contraction by ``tensordot``, which copies it to a
    transposed layout: the reference its in-place batched GEMM is held to.
    Like :func:`hooi_reprojecting_reference`, it projects the tensor anew for
    every mode-3 update and ignores ``p``."""
    return hooi_reprojecting_reference(data, xi, p, iters, mode2_by_tensordot=True)


def hooi_reprojecting_reference(data, xi, p, iters, mode2_by_tensordot=False):
    """HOOI sweeps as ``hooi_refine`` ran them before it carried the word
    projection: each mode-3 update projects the tensor on the previous bases
    of modes 1 and 2 anew, ``p`` is ignored, and the word projection of the
    final bases is formed once more after the last sweep.  Returns the bases
    and that projection, the reference the carried projection is held to bit
    for bit."""
    from tensortopics.spectral import _fix_signs, _left_singular

    xi = tuple(xi)
    for _ in range(iters):
        by_word = np.tensordot(xi[2], data.y, axes=([0], [2]))
        projected = [np.tensordot(by_word, xi[1], axes=([2], [0])).transpose(1, 2, 0),
                     np.tensordot(by_word, xi[0], axes=([1], [0])).transpose(1, 2, 0)
                     if mode2_by_tensordot else np.matmul(xi[0].T, by_word).transpose(2, 0, 1)]
        word = _left_singular(start_projection(data, xi), xi[2].shape[1])[0]
        xi = (*(_fix_signs(np.linalg.svd(m.reshape(len(m), -1), full_matrices=False)[0][:, :k])
                for m, k in zip(projected, (x.shape[1] for x in xi))), word)
    return xi, start_projection(data, xi)


# Per mode: the other two modes, and the contraction of the tensor with their
# bases that keeps this mode's axis first.
_PROJECTIONS = {
    1: ((2, 3), "ijr,jq,rs->iqs"),
    2: ((1, 3), "ijr,ip,rs->jps"),
    3: ((1, 2), "ijr,ip,jq->rpq"),
}


def hooi_per_mode_reference(y, xi, iters):
    """HOOI sweeps with one three-operand ``einsum`` per mode, each reading the
    whole tensor: the loop ``hooi_refine`` ran before modes 1 and 2 shared
    their word-mode contraction, the reference it is held to bit for bit."""
    from tensortopics.spectral import _fix_signs

    xi = tuple(xi)
    for _ in range(iters):
        new_xi = []
        for mode in (1, 2, 3):
            (b, c), subscripts = _PROJECTIONS[mode]
            projected = np.einsum(subscripts, y, xi[b - 1], xi[c - 1], optimize=True)
            projected = projected.reshape(projected.shape[0], -1)
            k = xi[mode - 1].shape[1]
            u, _, _ = np.linalg.svd(projected, full_matrices=False)
            new_xi.append(_fix_signs(u[:, :k]))
        xi = tuple(new_xi)
    return xi


def traced_peak(call, *args):
    """``call(*args)`` under tracemalloc: its result and the peak number of bytes
    allocated while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layouts(y):
    """The same float tensor in three memory layouts: C-ordered,
    Fortran-ordered, and a strided slice of a larger array."""
    y = np.asarray(y, dtype=float)
    host = np.full((y.shape[0] + 1, y.shape[1], 2 * y.shape[2]), np.nan)
    strided = host[1:, :, ::2]
    strided[...] = y
    return {"C": np.ascontiguousarray(y), "F": np.asfortranarray(y), "strided": strided}


def sample_counts_reference(d, doc_length, seed):
    """Every document drawn in turn on one thread, from its own substream:
    the serial loop the threaded ``sample_counts`` is held to, bit for bit."""
    from tensortopics.synth import substream

    p = np.array(d, dtype=float, order="C")
    p /= p.sum(axis=2, keepdims=True)
    n1, n2, n_words = p.shape
    counts = np.empty((n1, n2, n_words), dtype=np.int64)
    for i in range(n1):
        for j in range(n2):
            counts[i, j] = substream(seed, 1, i * n2 + j).multinomial(doc_length, p[i, j])
    return counts


def run_python(*args, timeout=120):
    """Run ``python *args`` in a fresh interpreter that imports this checkout's
    package, stopped after ``timeout`` seconds; return the completed process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; return its stripped standard output."""
    out = run_python("-c", code)
    out.check_returncode()
    return out.stdout.strip()


# documents shorter than the vocabulary: anchors injected or not, zipf words,
# a small alpha, one token a document, and five topics
TOKEN_SPECS = [
    dict(dims=(6, 5, 40), ranks=(2, 2, 3), doc_length=17),
    dict(dims=(7, 4, 30), ranks=(3, 2, 4), doc_length=29, anchor_mode="none"),
    dict(dims=(5, 6, 60), ranks=(2, 3, 5), doc_length=40, word_dist="zipf", dirichlet_alpha=0.05),
    dict(dims=(3, 3, 50), ranks=(2, 2, 2), doc_length=1),
]


def spec_id(spec):
    """A test id for a spec of ``TOKEN_SPECS``: its dims."""
    return "x".join(map(str, spec["dims"]))


def token_counts_reference(model, doc_length, seed, docs=None):
    """Each document's tokens drawn in turn, one at a time, from its own substream:
    ``2 doc_length`` uniforms, the first half picking topics from ``w_ij = g x1 a1[i]
    x2 a2[j]`` and the second half words within column ``a3[:, t]``, each by
    ``searchsorted`` on cumulative sums scaled by the uniform.  The serial loop that
    generate's token path is held to, bit for bit; ``docs`` (default: all) names the
    documents ``i * n2 + j`` drawn, and the rows of the others stay zero."""
    from tensortopics.synth import substream

    n1, n2, n_words = model.dims
    k1, k2, k3 = model.ranks
    word_cdf = np.cumsum(model.a3, axis=0)
    counts = np.zeros((n1 * n2, n_words), dtype=np.int64)
    for doc in range(n1 * n2) if docs is None else docs:
        i, j = divmod(doc, n2)
        w = np.zeros(k3)
        for p in range(k1):
            for q in range(k2):
                w += model.a1[i, p] * model.a2[j, q] * model.g[p, q]
        topic_cdf = np.cumsum(w)
        u = substream(seed, 1, doc).random(2 * doc_length)
        for x, y in zip(u[:doc_length], u[doc_length:]):
            t = np.searchsorted(topic_cdf, x * topic_cdf[-1], side="right")
            counts[doc, np.searchsorted(word_cdf[:, t], y * word_cdf[-1, t], side="right")] += 1
    return counts.reshape(n1, n2, n_words)
