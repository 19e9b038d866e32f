"""Core contribution: conventional LDA, the LDA-FP program, and its solver."""

from .classifier import FixedPointLinearClassifier
from .lda import LdaModel, fit_lda, quantize_lda
from .ldafp import LdaFpConfig, LdaFpNodeProblem, LdaFpReport, train_lda_fp
from .localsearch import (
    LocalSearchResult,
    ScoredPoint,
    coordinate_descent,
    scale_sweep_candidates,
)
from .pipeline import PipelineConfig, PipelineResult, TrainingPipeline
from .problem import LdaFpProblem, eta_inf, eta_sup
from .serialize import (
    classifier_from_dict,
    classifier_to_dict,
    load_classifier,
    save_classifier,
)

__all__ = [
    "FixedPointLinearClassifier",
    "LdaModel",
    "fit_lda",
    "quantize_lda",
    "LdaFpConfig",
    "LdaFpNodeProblem",
    "LdaFpReport",
    "train_lda_fp",
    "LocalSearchResult",
    "ScoredPoint",
    "coordinate_descent",
    "scale_sweep_candidates",
    "PipelineConfig",
    "PipelineResult",
    "TrainingPipeline",
    "LdaFpProblem",
    "eta_inf",
    "eta_sup",
    "classifier_from_dict",
    "classifier_to_dict",
    "load_classifier",
    "save_classifier",
]
