"""Spectral estimation of Tucker topic models from multinomial count tensors."""

from .errors import DataFormatError, FitDegenerateError
from .estimator import FitConfig, FitResult, TuckerModel, fit, threshold_vocab
from .metrics import (
    aligned_l1_loss,
    evaluate,
    reconstruction_error,
    scree,
    topic_resolution,
)
from .simplex import spa_vertex_hunt
from .spectral import build_q, leading_eigvecs
from .tensor import fold, unfold

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "FitDegenerateError",
    "FitConfig",
    "FitResult",
    "TuckerModel",
    "fit",
    "threshold_vocab",
    "aligned_l1_loss",
    "evaluate",
    "reconstruction_error",
    "scree",
    "topic_resolution",
    "spa_vertex_hunt",
    "build_q",
    "leading_eigvecs",
    "GenSpec",
    "generate",
    "sample_counts",
    "fold",
    "unfold",
    "__version__",
]


def __getattr__(name):
    """``GenSpec``, ``generate`` and ``sample_counts`` load ``synth`` on first use: it
    imports ``numpy.random``, which the fit and eval commands never need."""
    if name in ("GenSpec", "generate", "sample_counts"):
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
