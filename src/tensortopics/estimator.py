"""End-to-end fitting of planted Tucker topic structure.

One fit runs four stages:

1. optionally drop words whose average frequency falls below the sparsity
   threshold (``threshold_vocab``);
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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, FitDegenerateError
from .simplex import recover_weights, score_normalize, spa_vertex_hunt
from .spectral import SpectralFactors, build_q, hooi_refine, leading_eigvecs
from .tensor import reconstruct, unfold


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
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 3:
            raise DataFormatError(f"g must be an order-3 core, got ndim={g.ndim}")
        object.__setattr__(self, "g", g)
        widths = (self.a1.shape[1], self.a2.shape[1], self.a3.shape[1])
        if widths != g.shape:
            raise DataFormatError(
                f"factor column counts {widths} do not match core shape {g.shape}")

    @property
    def dims(self):
        return (self.a1.shape[0], self.a2.shape[0], self.a3.shape[0])

    @property
    def ranks(self):
        return self.g.shape

    def validate(self, tol=1e-9):
        """Raise unless all stochasticity constraints hold within ``tol``."""
        checks = (
            ("a1 rows", self.a1, self.a1.sum(axis=1)),
            ("a2 rows", self.a2, self.a2.sum(axis=1)),
            ("a3 columns", self.a3, self.a3.sum(axis=0)),
            ("core tubes", self.g, self.g.sum(axis=2)),
        )
        for label, block, sums in checks:
            if np.min(block) < -tol:
                raise DataFormatError(f"{label}: entries below -{tol}")
            if np.max(np.abs(sums - 1.0)) > tol:
                raise DataFormatError(f"{label}: sums deviate from 1 by more than {tol}")

    def mean_tensor(self):
        """The modeled document-word mean tensor; every tube sums to one."""
        return reconstruct(self.g, self.a1, self.a2, self.a3)

    def doc_topic_weights(self):
        """Per-document topic weights ``w[i, j, t]``.

        The mode-3 unfolding of this tensor equals
        ``unfold(g, 3) @ kronecker(a1, a2).T``, the matrix the word factor
        multiplies to yield the mean tensor's word unfolding.
        """
        return np.einsum("pqs,ip,jq->ijs", self.g, self.a1, self.a2, optimize=True)


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
        ranks = tuple(self.ranks) if isinstance(self.ranks, (tuple, list)) else ()
        if len(ranks) != 3 or not all(_is_int(k) and k >= 1 for k in ranks):
            raise DataFormatError(f"ranks must be three positive integers, got {self.ranks!r}")
        object.__setattr__(self, "ranks", tuple(int(k) for k in ranks))
        if self.doc_length < 1:
            raise DataFormatError("doc_length must be at least 1")
        for name in ("use_hooi", "oracle"):
            if not isinstance(getattr(self, name), bool):
                raise DataFormatError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        if not _is_int(self.hooi_iters) or self.hooi_iters < 0:
            raise DataFormatError(
                f"hooi_iters must be a nonnegative integer, got {self.hooi_iters!r}")
        c_prime = self.sparse_c_prime
        if not (isinstance(c_prime, numbers.Real) and not isinstance(c_prime, bool)
                and math.isfinite(c_prime) and c_prime >= 0):
            raise DataFormatError(
                f"sparse_c_prime must be a finite nonnegative number, got {c_prime!r}")
        object.__setattr__(self, "sparse_c_prime", float(c_prime))


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


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_data(y):
    y = np.asarray(y, dtype=float)
    if y.ndim != 3:
        raise DataFormatError(f"expected an order-3 data tensor, got ndim={y.ndim}")
    if not np.isfinite(y).all():
        raise DataFormatError("data tensor contains non-finite entries")
    if np.min(y, initial=0.0) < 0:
        raise DataFormatError("data tensor contains negative entries")
    return y


def threshold_vocab(y, doc_length, c_prime):
    """Indices of words whose average frequency reaches the sparsity cut.

    The cut is ``c_prime * sqrt(log(max_dim) / (n1 * n2 * doc_length))``
    against the per-word mean frequency ``y.sum(axis=(0, 1)) / (n1 * n2)``;
    a zero constant keeps every word.
    """
    y = _as_data(y)
    if c_prime < 0:
        raise ValueError("c_prime must be nonnegative")
    if doc_length < 1:
        raise ValueError("doc_length must be at least 1")
    n1, n2, n_words = y.shape
    if c_prime == 0:
        return np.arange(n_words)
    tau = c_prime * math.sqrt(math.log(max(n1, n2, n_words)) / (n1 * n2 * doc_length))
    freq = y.sum(axis=(0, 1)) / (n1 * n2)
    return np.flatnonzero(freq >= tau)


def _mode_basis(y, mode, k, cfg):
    q = build_q(unfold(y, mode), mode, cfg.doc_length, centered=not cfg.oracle)
    return leading_eigvecs(q, k)


def _membership_from_basis(xi, label):
    hunt = spa_vertex_hunt(xi, xi.shape[1])
    try:
        weights = recover_weights(xi, hunt.v)
    except FitDegenerateError as err:
        raise FitDegenerateError(f"{label}: {err}") from err
    return weights, hunt


def _word_factor_from_basis(xi):
    """Word factor, topic masses, vertex matrix and vertex rows of one basis.

    The vertex matrix carries the leading all-ones column the core stage
    needs; vertex rows index ``xi``.
    """
    n_words, k = xi.shape
    score = score_normalize(xi)
    hunt = spa_vertex_hunt(score.s, k)
    v_star = np.column_stack([np.ones(k), hunt.v])
    s_star = np.column_stack([np.ones(score.s.shape[0]), score.s])
    try:
        weights = recover_weights(s_star, v_star)
    except FitDegenerateError as err:
        raise FitDegenerateError(f"word membership: {err}") from err
    scaled = score.first_col[:, None] * weights
    q0 = scaled.sum(axis=0)
    low = np.flatnonzero(q0 <= 0.0)
    if low.size:
        raise FitDegenerateError(
            f"topic mass: recovered mass of topic {low[0] + 1} is not positive; "
            "the data does not support this many topics")
    a3 = np.zeros((n_words, k))
    a3[score.kept] = scaled / q0
    return a3, q0, v_star, score.kept[hunt.indices]


def fit_core(y, factors, v_hats, q0):
    """Core recovery from bases, vertex matrices, and topic masses.

    Projects ``y`` onto the three bases, maps the projection through the
    vertex matrices (``v_hats[2]`` rescaled row-wise by ``q0``), then clips
    negatives and renormalizes every topic tube to unit sum; a tube clipped
    to nothing becomes uniform.  Inputs are taken as ``fit`` produces them:
    a validated float tensor and strictly positive ``q0``.
    """
    xi1, xi2, xi3 = factors.xi
    v1, v2, v3 = v_hats
    projected = np.einsum("ijr,ip,jq,rs->pqs", y, xi1, xi2, xi3, optimize=True)
    core = np.einsum("pqs,ap,bq,cs->abc", projected, v1, v2, q0[:, None] * v3,
                     optimize=True)
    np.clip(core, 0.0, None, out=core)
    sums = core.sum(axis=2)
    empty = sums == 0.0
    if np.any(empty):
        core[empty] = 1.0 / core.shape[2]
        sums[empty] = 1.0
    return core / sums[:, :, None]


def fit(y, cfg):
    """Full pipeline: threshold, spectral bases, vertex hunts, core.

    ``y`` is the frequency tensor (counts over ``cfg.doc_length``), or the
    exact mean tensor when ``cfg.oracle`` is set.  Raises
    ``FitDegenerateError`` with the failing stage named when the data cannot
    support the requested ranks.
    """
    y = _as_data(y)
    n1, n2, n_words = y.shape
    k1, k2, k3 = cfg.ranks
    for k, n, label in ((k1, n1, "mode 1"), (k2, n2, "mode 2"), (k3, n_words, "mode 3")):
        if k > n:
            raise ValueError(f"{label} rank {k} exceeds dimension {n}")
    if k3 < 2:
        raise ValueError("word-mode recovery needs at least two topics")

    vocab = threshold_vocab(y, cfg.doc_length, cfg.sparse_c_prime)
    if vocab.size < k3:
        raise FitDegenerateError(
            f"vocabulary threshold: kept {vocab.size} of {n_words} words, "
            f"fewer than the {k3} requested topics")
    data = np.ascontiguousarray(y[:, :, vocab])

    bases = []
    spectra = []
    for mode, k in ((1, k1), (2, k2), (3, k3)):
        xi, vals = _mode_basis(data, mode, k, cfg)
        bases.append(xi)
        spectra.append(vals)
    factors = SpectralFactors(xi=tuple(bases), eigvals=tuple(spectra))
    if cfg.use_hooi and cfg.hooi_iters > 0:
        factors = hooi_refine(data, factors, cfg.hooi_iters)

    a1, hunt1 = _membership_from_basis(factors.xi[0], "mode 1 membership")
    a2, hunt2 = _membership_from_basis(factors.xi[1], "mode 2 membership")
    a3_kept, q0, v3_star, word_rows = _word_factor_from_basis(factors.xi[2])
    g = fit_core(data, factors, (hunt1.v, hunt2.v, v3_star), q0)

    a3 = np.zeros((n_words, k3))
    a3[vocab] = a3_kept
    model = TuckerModel(a1=a1, a2=a2, a3=a3, g=g)
    return FitResult(
        model=model,
        vocab=vocab,
        q0=q0,
        vertices=(hunt1.indices, hunt2.indices, vocab[word_rows]),
        eigvals=tuple(spectra),
    )
