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
from .synth import GenSpec, generate, sample_counts
from .tensor import fold, kronecker, unfold

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
    "kronecker",
    "unfold",
    "__version__",
]
