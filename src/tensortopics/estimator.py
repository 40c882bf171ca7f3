"""End-to-end fitting of planted Tucker topic structure.

One fit runs four stages:

1. check the ranks against the tensor's dimensions, then optionally drop
   words whose average frequency falls below the sparsity threshold
   (``threshold_vocab``);
2. take leading eigenvector bases of each mode's gram matrix, word mode
   bias-corrected, optionally refined by power sweeps (``spectral``);
3. hunt simplex vertices in each basis row cloud and solve for memberships;
   the word mode first passes to ratio coordinates, and the recovered
   weights are rescaled by the leading eigenvector and normalized per topic
   (``simplex``);
4. project the tensor onto the bases, map the projection through the vertex
   matrices (word mode rescaled by the recovered topic masses), then clip
   negatives and renormalize every topic tube (``fit_core``).

Everything is deterministic: equal data and config give bit-identical output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DataFormatError, FitDegenerateError, _all_finite, _as_data, _as_tensor,
                     _check_tucker_ranks, _checked_int, _checked_real, _checked_triple)
from .simplex import clip_to_simplex, recover_weights, score_normalize, spa_vertex_hunt
from .spectral import _subtract_word_noise, build_q, hooi_refine, leading_eigvecs
from .tensor import reconstruct


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

    def validate(self, tol=1e-9):
        """Raise unless every entry is finite and all stochasticity
        constraints hold within ``tol``."""
        checks = (
            ("a1 rows", self.a1, self.a1.sum(axis=1)),
            ("a2 rows", self.a2, self.a2.sum(axis=1)),
            ("a3 columns", self.a3, self.a3.sum(axis=0)),
            ("core tubes", self.g, self.g.sum(axis=2)),
        )
        for label, block, sums in checks:
            if not np.isfinite(block).all():
                raise DataFormatError(f"{label}: non-finite entries")
            if np.min(block) < -tol:
                raise DataFormatError(f"{label}: entries below -{tol}")
            if np.max(np.abs(sums - 1.0)) > tol:
                raise DataFormatError(f"{label}: sums deviate from 1 by more than {tol}")

    def mean_tensor(self):
        """The modeled document-word mean tensor; every tube sums to one."""
        return reconstruct(self.g, self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fit.

    ``doc_length`` scales the word-mode bias correction and the sparsity
    threshold.  ``sparse_c_prime=0`` keeps the whole vocabulary; the default
    constant matches the recommended value for power-law vocabularies and is
    far below any uniform word frequency at desk scales.  ``oracle=True``
    declares the input to be the exact mean tensor, which skips the word-mode
    bias correction.  Field types are checked, not coerced: a string
    ``"false"`` is no boolean and ``2.5`` is no rank.
    """

    ranks: tuple
    doc_length: int
    use_hooi: bool = False
    hooi_iters: int = 5
    sparse_c_prime: float = 0.005
    oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ranks", _checked_triple("ranks", self.ranks))
        object.__setattr__(self, "doc_length", _checked_int("doc_length", self.doc_length, 1))
        for name in ("use_hooi", "oracle"):
            if not isinstance(getattr(self, name), bool):
                raise DataFormatError(f"{name} must be a boolean, got {getattr(self, name)!r}")
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
    indices).  ``eigvals`` are the leading gram eigenvalues per mode from the
    initial spectral step.
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
    y = _as_data(y)
    c_prime = _checked_real("c_prime", c_prime, positive=False)
    doc_length = _checked_int("doc_length", doc_length, 1)
    if not y.shape[0] * y.shape[1]:
        raise DataFormatError(
            f"vocabulary threshold: a tensor of dims {y.shape} holds no documents")
    return _threshold(y, doc_length, c_prime)[0]


def _threshold(y, doc_length, c_prime):
    """``threshold_vocab`` with the per-word sums it cut, on inputs as ``fit`` checks them."""
    n1, n2, n_words = y.shape
    tau = c_prime * math.sqrt(math.log(max(n1, n2, n_words)) / (n1 * n2 * doc_length))
    with np.errstate(over="ignore"):  # an overflowing word sum keeps the word; the gram names it
        word_sums = y.sum(axis=(0, 1))
    return np.flatnonzero(word_sums / (n1 * n2) >= tau), word_sums


def _mode_basis(y, mode, k, doc_length, centered=True, mass=None):
    """Leading ``k`` gram eigenpairs of one mode of the checked tensor ``y`` (word sums ``mass``
    if known) as ``fit`` and ``scree`` take them, with the mode named in every error."""
    n = y.shape[mode - 1]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            q = build_q(np.moveaxis(y, mode - 1, 0), mode, doc_length, centered and mass is None)
            if mode == 3 and centered and mass is not None:
                _subtract_word_noise(q, mass, doc_length)
    except MemoryError:
        raise DataFormatError(
            f"mode {mode} gram: a {n} x {n} matrix is too big to allocate") from None
    if not _all_finite(q):
        raise DataFormatError(f"mode {mode} gram overflows: data entries reach {np.max(y):.1e}")
    try:
        return leading_eigvecs(q, k)
    except np.linalg.LinAlgError as err:
        raise FitDegenerateError(f"mode {mode} eigensolve did not converge: {err}") from err


def _stage_weights(stage, s_star, v_star):
    """``recover_weights`` with the failing stage named in its error."""
    try:
        return recover_weights(s_star, v_star)
    except FitDegenerateError as err:
        raise FitDegenerateError(f"{stage}: {err}") from err


def _membership_from_basis(xi, label):
    hunt = spa_vertex_hunt(xi, xi.shape[1])
    return _stage_weights(label, xi, hunt.v), hunt


def _word_factor_from_basis(xi):
    """Word factor, topic masses, vertex matrix and vertex rows of one basis.

    The vertex matrix carries the leading all-ones column the core stage
    needs; vertex rows index ``xi``.
    """
    n_words, k = xi.shape
    score = score_normalize(xi)
    if score.kept.size < k:
        raise FitDegenerateError(f"ratio normalization: kept {score.kept.size} of {n_words} "
                                 f"word rows, fewer than the {k} requested topics")
    hunt = spa_vertex_hunt(score.s, k)
    v_star = np.column_stack([np.ones(k), hunt.v])
    s_star = np.column_stack([np.ones(score.s.shape[0]), score.s])
    scaled = score.first_col[:, None] * _stage_weights("word membership", s_star, v_star)
    q0 = scaled.sum(axis=0)
    low = np.flatnonzero(q0 <= 0.0)
    if low.size:
        raise FitDegenerateError(
            f"topic mass: recovered mass of topic {low[0] + 1} is not positive; "
            "the data does not support this many topics")
    a3 = np.zeros((n_words, k))
    a3[score.kept] = scaled / q0
    return a3, q0, v_star, score.kept[hunt.indices]


def fit_core(y, xi, v_hats, q0):
    """Core recovery from bases, vertex matrices, and topic masses.

    Projects ``y`` onto the three bases, maps the projection through the
    vertex matrices (``v_hats[2]`` rescaled row-wise by ``q0``), then clips
    negatives and renormalizes every topic tube to unit sum; a tube clipped
    to nothing becomes uniform.  Inputs are taken as ``fit`` produces them:
    a validated float tensor and strictly positive ``q0``.
    """
    xi1, xi2, xi3 = xi
    v1, v2, v3 = v_hats
    projected = np.einsum("ijr,ip,jq,rs->pqs", y, xi1, xi2, xi3, optimize=True)
    core = np.einsum("pqs,ap,bq,cs->abc", projected, v1, v2, q0[:, None] * v3,
                     optimize=True)
    return clip_to_simplex(core)


def fit(y, cfg):
    """Full pipeline: rank checks, threshold, spectral bases, vertex hunts, core.

    ``y`` is the frequency tensor (counts over ``cfg.doc_length``), or the
    exact mean tensor when ``cfg.oracle`` is set; it is never written to, and
    copied only if it is not C-ordered float or the threshold drops a word.
    Raises ``FitDegenerateError`` with the failing stage named when the data
    cannot support the requested ranks.
    """
    y = _as_data(np.ascontiguousarray(y, dtype=float))
    n1, n2, n_words = y.shape
    k1, k2, k3 = cfg.ranks
    for mode, k, n in ((1, k1, n1), (2, k2, n2), (3, k3, n_words)):
        if k > n:
            raise ValueError(f"mode {mode} rank {k} exceeds dimension {n}")
    _check_tucker_ranks(cfg.ranks)
    if k3 < 2:
        raise ValueError("word-mode recovery needs at least two topics")
    vocab, mass = _threshold(y, cfg.doc_length, cfg.sparse_c_prime)
    if not mass.any():
        raise FitDegenerateError("vocabulary threshold: the data tensor holds no mass")
    if vocab.size < k3:
        raise FitDegenerateError(
            f"vocabulary threshold: kept {vocab.size} of {n_words} words, "
            f"fewer than the {k3} requested topics")
    data = y if vocab.size == n_words else np.take(y, vocab, axis=2)

    xi, spectra = zip(*(_mode_basis(data, mode, k, cfg.doc_length, not cfg.oracle, mass[vocab])
                        for mode, k in ((1, k1), (2, k2), (3, k3))))
    if cfg.use_hooi:
        xi = hooi_refine(data, xi, cfg.hooi_iters)

    a1, hunt1 = _membership_from_basis(xi[0], "mode 1 membership")
    a2, hunt2 = _membership_from_basis(xi[1], "mode 2 membership")
    a3_kept, q0, v3_star, word_rows = _word_factor_from_basis(xi[2])
    g = fit_core(data, xi, (hunt1.v, hunt2.v, v3_star), q0)

    a3 = np.zeros((n_words, k3))
    a3[vocab] = a3_kept
    model = TuckerModel(a1=a1, a2=a2, a3=a3, g=g)
    return FitResult(
        model=model,
        vocab=vocab,
        q0=q0,
        vertices=(hunt1.indices, hunt2.indices, vocab[word_rows]),
        eigvals=spectra,
    )
