"""Seeded synthetic corpora with planted Tucker topic structure.

All randomness flows through counter-based Philox streams derived from one
seed: substream ``(0,)`` draws the planted model and substream
``(1, i * n2 + j)`` draws the counts of document ``(i, j)``, so documents
regenerate bit-identically in any order and equal specs give equal bits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .estimator import TuckerModel, _is_int, _is_real

_MODEL_STREAM = 0
_DOC_STREAM = 1
_ANCHOR_MODES = ("none", "inject")
_WORD_DISTS = ("uniform", "zipf")


def substream(seed, *path):
    """Deterministic generator for one tagged substream of ``seed``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one planted instance.

    ``dims`` and ``ranks`` are ``(n1, n2, n_words)`` and ``(k1, k2,
    k_topics)``; ``doc_length`` is the multinomial draw count per document.
    ``anchor_mode="inject"`` rewrites the first ``k`` rows of each membership
    factor to unit rows and dedicates word row ``t`` to topic ``t``, so every
    cluster and topic has a pure representative.  ``word_dist="zipf"`` scales
    word row ``r`` by ``(r + 1) ** (-1 / zipf_q)`` before column
    normalization, giving power-law word frequencies; ``"uniform"`` draws
    plain uniform entries.  Field types are checked, not coerced: ``8.9`` is
    no dimension.
    """

    dims: tuple
    ranks: tuple
    doc_length: int
    anchor_mode: str = "inject"
    dirichlet_alpha: float = 1.0
    word_dist: str = "uniform"
    zipf_q: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("dims", "ranks"):
            value = getattr(self, name)
            entries = tuple(value) if isinstance(value, (tuple, list)) else ()
            if len(entries) != 3 or not all(_is_int(v) and v >= 1 for v in entries):
                raise DataFormatError(f"{name} must be three positive integers, got {value!r}")
            object.__setattr__(self, name, tuple(int(v) for v in entries))
        if any(k > d for k, d in zip(self.ranks, self.dims)):
            raise DataFormatError(
                f"ranks {self.ranks} must lie in [1, dim] for dims {self.dims}")
        if not _is_int(self.doc_length) or self.doc_length < 1:
            raise DataFormatError(
                f"doc_length must be a positive integer, got {self.doc_length!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise DataFormatError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.anchor_mode not in _ANCHOR_MODES:
            raise DataFormatError(f"anchor_mode must be one of {_ANCHOR_MODES}")
        if self.word_dist not in _WORD_DISTS:
            raise DataFormatError(f"word_dist must be one of {_WORD_DISTS}")
        for name in ("dirichlet_alpha", "zipf_q"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise DataFormatError(f"{name} must be a finite positive number, got {value!r}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class PlantedInstance:
    """A planted model together with one multinomial realization of it."""

    model: TuckerModel
    d: np.ndarray        # mean tensor; every tube sums to one
    y: np.ndarray        # counts / doc_length
    counts: np.ndarray   # int64; every document sums to doc_length


def sample_dirichlet(alpha, rng):
    """One Dirichlet draw via normalized Gamma variates."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0 or not np.all(alpha > 0):
        raise DataFormatError("alpha must be a nonempty vector of positive reals")
    draw = rng.gamma(alpha)
    total = draw.sum()
    while total == 0.0:  # tiny alpha can underflow every coordinate
        draw = rng.gamma(alpha)
        total = draw.sum()
    return draw / total


def sample_multinomial(n_draws, p, rng):
    """Multinomial counts of ``n_draws`` items over categories ``p``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or not np.isfinite(p).all() or np.any(p < 0):
        raise DataFormatError("p must be a vector of finite nonnegative reals")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise DataFormatError(f"p sums to {total!r}, expected 1 within 1e-9")
    if n_draws < 0 or int(n_draws) != n_draws:
        raise DataFormatError(f"n_draws must be a nonnegative integer, got {n_draws!r}")
    return rng.multinomial(int(n_draws), p / total)


def sample_counts(d, doc_length, seed):
    """Fresh multinomial counts for every document of a mean tensor ``d``.

    Each document draws from its own substream of ``seed``, so the result
    does not depend on traversal order.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 3:
        raise DataFormatError("expected an order-3 mean tensor")
    if doc_length < 1:
        raise DataFormatError("doc_length must be at least 1")
    n1, n2, n_words = d.shape
    counts = np.empty((n1, n2, n_words), dtype=np.int64)
    for i in range(n1):
        for j in range(n2):
            rng = substream(seed, _DOC_STREAM, i * n2 + j)
            counts[i, j] = sample_multinomial(doc_length, d[i, j], rng)
    return counts


def _dirichlet_rows(n, k, alpha, rng):
    rows = np.empty((n, k))
    concentration = np.full(k, alpha)
    for i in range(n):
        rows[i] = sample_dirichlet(concentration, rng)
    return rows


def _word_columns(spec, rng):
    n_words, k = spec.dims[2], spec.ranks[2]
    w = rng.uniform(size=(n_words, k))
    if spec.word_dist == "zipf":
        w *= np.arange(1, n_words + 1, dtype=float)[:, None] ** (-1.0 / spec.zipf_q)
    return w


def generate(spec):
    """Draw a planted instance; identical specs yield identical bits."""
    n1, n2, n_words = spec.dims
    k1, k2, k3 = spec.ranks
    rng = substream(spec.seed, _MODEL_STREAM)
    a1 = _dirichlet_rows(n1, k1, spec.dirichlet_alpha, rng)
    a2 = _dirichlet_rows(n2, k2, spec.dirichlet_alpha, rng)
    g = _dirichlet_rows(k1 * k2, k3, spec.dirichlet_alpha, rng).reshape(k1, k2, k3)
    w = _word_columns(spec, rng)
    if spec.anchor_mode == "inject":
        a1[:k1] = np.eye(k1)
        a2[:k2] = np.eye(k2)
        w[:k3] *= np.eye(k3)
    column_mass = w.sum(axis=0)
    if np.any(column_mass == 0.0):
        raise DataFormatError("a word column lost all mass; widen the word distribution")
    a3 = w / column_mass
    model = TuckerModel(a1=a1, a2=a2, a3=a3, g=g)
    d = model.mean_tensor()
    counts = sample_counts(d, spec.doc_length, spec.seed)
    return PlantedInstance(model=model, d=d, y=counts / spec.doc_length, counts=counts)
