"""End-to-end fitting of planted Tucker topic structure.

One fit runs four stages:

1. check the ranks against the tensor's dimensions, then optionally drop words whose
   average frequency falls below the sparsity threshold (``threshold_vocab``);
2. take the leading eigenvector basis of the mode-1 gram, the mode-2 basis of the tensor
   projected on it, and the word basis of the tensor projected on both (a sequentially
   truncated HOSVD), optionally refined by power sweeps (``spectral``), reading the tensor
   and its kept words only through ``tensor.DenseData``;
3. hunt simplex vertices in each basis row cloud and solve for memberships;
   the word mode first passes to ratio coordinates, and the recovered
   weights are rescaled by the leading eigenvector and normalized per topic
   (``simplex``);
4. project the word projection of the final mode-1 and mode-2 bases onto the
   word basis, map the result through the vertex matrices (word mode rescaled
   by the recovered topic masses), then clip negatives and renormalize every
   topic tube (``fit_core``).

Everything is deterministic: equal data and config give bit-identical output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DataFormatError, FitDegenerateError, _as_tensor, _check_ranks,
                     _check_tucker_ranks, _checked_int, _checked_real, _checked_triple, _stage)
from .simplex import clip_to_simplex, recover_weights, score_normalize, spa_vertex_hunt
from .spectral import _left_singular, _mode_gram, hooi_refine, leading_eigvecs, word_projection
from .tensor import DenseData, _data_word_sums, reconstruct

_TOL = 1e-9  # how far TuckerModel.validate lets an entry fall below 0 or a sum miss 1


@dataclass(frozen=True)
class TuckerModel:
    """Factor triple plus core with the topic-model normalizations.

    Rows of ``a1`` and ``a2`` are memberships and sum to one, columns of
    ``a3`` are word distributions and sum to one, and every core tube
    ``g[p, q, :]`` is a topic mixture summing to one.  Everything is
    entrywise nonnegative.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "a3"):
            factor = np.asarray(getattr(self, name), dtype=float)
            if factor.ndim != 2:
                raise DataFormatError(f"{name} must be a matrix, got ndim={factor.ndim}")
            object.__setattr__(self, name, factor)
        object.__setattr__(self, "g", _as_tensor(np.asarray(self.g, dtype=float), "core"))
        widths = (self.a1.shape[1], self.a2.shape[1], self.a3.shape[1])
        if widths != self.g.shape:
            raise DataFormatError(
                f"factor column counts {widths} do not match core shape {self.g.shape}")

    @property
    def dims(self):
        return (self.a1.shape[0], self.a2.shape[0], self.a3.shape[0])

    @property
    def ranks(self):
        return self.g.shape

    def validate(self):
        """Raise unless every entry is finite and all stochasticity
        constraints hold within ``_TOL``."""
        checks = (
            ("a1 rows", self.a1, self.a1.sum(axis=1)),
            ("a2 rows", self.a2, self.a2.sum(axis=1)),
            ("a3 columns", self.a3, self.a3.sum(axis=0)),
            ("core tubes", self.g, self.g.sum(axis=2)),
        )
        for label, block, sums in checks:
            if not np.isfinite(block).all():
                raise DataFormatError(f"{label}: non-finite entries")
            if np.min(block) < -_TOL:
                raise DataFormatError(f"{label}: entries below -{_TOL}")
            if np.max(np.abs(sums - 1.0)) > _TOL:
                raise DataFormatError(f"{label}: sums deviate from 1 by more than {_TOL}")

    def mean_tensor(self):
        """The modeled document-word mean tensor; every tube sums to one."""
        return reconstruct(self.g, self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fit.

    ``doc_length`` scales the sparsity threshold.  ``sparse_c_prime=0`` keeps
    the whole vocabulary; the default constant matches the recommended value
    for power-law vocabularies and is far below any uniform word frequency at
    desk scales.  Field types are checked, not coerced: a string ``"false"``
    is no boolean and ``2.5`` is no rank.  The rank rules that need no data (the Tucker span,
    two topics) are checked here, and ``fit`` checks the ranks against the data."""

    ranks: tuple
    doc_length: int
    use_hooi: bool = False
    hooi_iters: int = 5
    sparse_c_prime: float = 0.005

    def __post_init__(self):
        object.__setattr__(self, "ranks", _checked_triple("ranks", self.ranks))
        _check_tucker_ranks(self.ranks)
        if self.ranks[2] < 2:
            raise DataFormatError("word-mode recovery needs at least two topics")
        object.__setattr__(self, "doc_length", _checked_int("doc_length", self.doc_length, 1))
        if not isinstance(self.use_hooi, bool):
            raise DataFormatError(f"use_hooi must be a boolean, got {self.use_hooi!r}")
        object.__setattr__(self, "hooi_iters", _checked_int("hooi_iters", self.hooi_iters, 0))
        object.__setattr__(self, "sparse_c_prime",
                           _checked_real("sparse_c_prime", self.sparse_c_prime, positive=False))


@dataclass(frozen=True)
class FitResult:
    """A fitted model plus the diagnostics produced along the way.

    ``vocab`` lists the word indices that survived thresholding; rows of
    ``model.a3`` outside it are exactly zero.  ``q0`` holds the recovered
    strictly positive topic masses.  ``vertices`` gives per mode the row
    indices chosen as simplex vertices (word-mode entries are original word
    indices).  ``eigvals`` are the initial spectral step's leading eigenvalues of the
    mode-1 gram and of the mode-2 gram of the tensor projected on the mode-1 basis, each the
    top of one full ``eigh``, and squared singular values of the word projection, from its one
    SVD; a ``scree`` of a mode agrees with them bit for bit on their common prefix.
    """

    model: TuckerModel
    vocab: np.ndarray
    q0: np.ndarray
    vertices: tuple
    eigvals: tuple


def threshold_vocab(y, doc_length, c_prime):
    """Indices of words whose average frequency reaches the sparsity cut.

    The cut is ``c_prime * sqrt(log(max_dim) / (n1 * n2 * doc_length))``
    against the per-word mean frequency ``y.sum(axis=(0, 1)) / (n1 * n2)``;
    a zero constant keeps every word.  A tensor with no documents is an error.
    """
    c_prime = _checked_real("c_prime", c_prime, positive=False)
    doc_length = _checked_int("doc_length", doc_length, 1)
    y, word_sums = _data_word_sums(y)
    return _threshold(word_sums, y.shape, doc_length, c_prime)[0]


def _threshold(word_sums, dims, doc_length, c_prime):
    """``threshold_vocab`` of a tensor of ``dims`` from its word sums, and whether any word
    has mass, on inputs as ``fit`` checks them.  An overflowing (infinite) word sum keeps its
    word; the gram names the overflow."""
    n1, n2, n_words = dims
    if not n1 * n2:
        raise DataFormatError(f"vocabulary threshold: a tensor of dims {dims} holds no documents")
    tau = c_prime * math.sqrt(math.log(max(n1, n2, n_words)) / (n1 * n2 * doc_length))
    return np.flatnonzero(word_sums / (n1 * n2) >= tau), bool(word_sums.any())


def _vocabulary(y, ranks, doc_length, c_prime):
    """What ``fit``, ``scree`` and ``topic_resolution``'s halves run before the bases, for the
    first ``len(ranks)`` modes: the data check, the ranks against the dimensions (the one check
    of that rule on data) and the threshold.  Returns the data as a ``DenseData``."""
    y, word_sums = _data_word_sums(np.ascontiguousarray(y, dtype=float))
    _check_ranks(ranks, y.shape)
    vocab, has_mass = _threshold(word_sums, y.shape, doc_length, c_prime)
    if not has_mass:
        raise FitDegenerateError("vocabulary threshold: the data tensor holds no mass")
    if vocab.size < (ranks[2] if len(ranks) == 3 else 1):
        fewer = f", fewer than the {ranks[2]} requested topics" if len(ranks) == 3 else ""
        raise FitDegenerateError(
            f"vocabulary threshold: kept {vocab.size} of {y.shape[2]} words{fewer}")
    return DenseData(y, vocab)


def _hosvd(data, ranks):
    """The sequentially truncated HOSVD that ``fit`` and ``scree`` share, for the first
    ``len(ranks)`` modes of the data as :func:`_vocabulary` returns it: each mode's
    ``(basis, spectrum)``, and the word projection ``P`` (or ``None``); mode ``m`` is the stage
    ``mode m basis``, from the gram or projection it reads to its ``eigh`` or SVD."""
    with _stage("mode 1 basis"):
        bases, p = [leading_eigvecs(data.mode1_gram(), ranks[0])], None
    if len(ranks) > 1:
        with _stage("mode 2 basis"):
            z = data.mode1_projection(bases[0][0])
            bases.append(leading_eigvecs(_mode_gram(np.moveaxis(z, 1, 0), 2), ranks[1]))
    if len(ranks) > 2:
        with _stage("mode 3 basis"):
            p = word_projection(z, bases[1][0])
            del z  # freed before the word basis and the sweeps
            bases.append(_left_singular(p, ranks[2]))
    return bases, p


def _membership_from_basis(xi, stage):
    """Memberships and vertices of the rows of ``xi``, hunted and solved as the stage ``stage``."""
    with _stage(stage):
        hunt = spa_vertex_hunt(xi, xi.shape[1])
        return recover_weights(xi, hunt.v), hunt


def _word_factor_from_basis(xi, words):
    """Word factor, topic masses, vertex matrix and vertex rows of the rows ``words`` of one
    basis; other rows of the word factor are zero.  The vertex matrix carries the leading
    all-ones column the core stage needs; vertex rows index ``xi``."""
    k = xi.shape[1]
    score = score_normalize(xi[words])
    if score.kept.size < k:
        raise FitDegenerateError(f"ratio normalization: kept {score.kept.size} of {words.size} "
                                 f"word rows, fewer than the {k} requested topics")
    hunt = spa_vertex_hunt(score.s, k)
    v_star = np.column_stack([np.ones(k), hunt.v])
    s_star = np.column_stack([np.ones(score.s.shape[0]), score.s])
    with _stage("word membership"):
        weights = recover_weights(s_star, v_star)
    scaled = score.first_col[:, None] * weights
    q0 = scaled.sum(axis=0)
    low = np.flatnonzero(q0 <= 0.0)
    if low.size:
        raise FitDegenerateError(
            f"topic mass: recovered mass of topic {low[0] + 1} is not positive; "
            "the data does not support this many topics")
    a3 = np.zeros(xi.shape)
    a3[words[score.kept]] = scaled / q0
    return a3, q0, v_star, words[score.kept[hunt.indices]]


def fit_core(p, xi3, v_hats, q0):
    """Core recovery from the word projection, word basis, vertex matrices, and topic masses.

    Projects the :func:`~tensortopics.spectral.word_projection` ``p`` (the tensor projected
    on the mode-1 and mode-2 bases) onto the word basis ``xi3``, maps the result through the
    vertex matrices (``v_hats[2]`` rescaled row-wise by ``q0``), then clips negatives and
    renormalizes every topic tube to unit sum; a tube clipped to nothing becomes uniform.
    Inputs are taken as ``fit`` produces them: strictly positive ``q0``.
    """
    v1, v2, v3 = v_hats
    projected = np.tensordot(p, xi3, axes=([0], [0]))
    core = np.einsum("pqs,ap,bq,cs->abc", projected, v1, v2, q0[:, None] * v3,
                     optimize=True)
    return clip_to_simplex(core)


def fit(y, cfg):
    """Full pipeline: ranks against the dimensions, threshold, spectral bases, vertex hunts, core.

    ``y`` is the frequency tensor (counts over ``cfg.doc_length``) or the exact mean tensor; it
    is never written to, and copied only if it is not C-ordered float.  A dropped word's slab
    gram is taken off the mode-1 gram, and its columns of the projection on the mode-1 basis
    are zero.  Raises ``FitDegenerateError`` with the failing stage named when the data cannot
    support the requested ranks.
    """
    data = _vocabulary(y, cfg.ranks, cfg.doc_length, cfg.sparse_c_prime)
    bases, p = _hosvd(data, cfg.ranks)
    xi, eigvals = zip(*bases)
    if cfg.use_hooi:
        xi, p = hooi_refine(data, xi, p, cfg.hooi_iters)

    a1, hunt1 = _membership_from_basis(xi[0], "mode 1 membership")
    a2, hunt2 = _membership_from_basis(xi[1], "mode 2 membership")
    a3, q0, v3_star, word_vertices = _word_factor_from_basis(xi[2], data.vocab)
    with _stage("core"):
        g = fit_core(p, xi[2], (hunt1.v, hunt2.v, v3_star), q0)
    return FitResult(model=TuckerModel(a1=a1, a2=a2, a3=a3, g=g), vocab=data.vocab, q0=q0,
                     vertices=(hunt1.indices, hunt2.indices, word_vertices), eigvals=eigvals)
