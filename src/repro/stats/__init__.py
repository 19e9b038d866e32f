"""Statistics substrate: normal distribution, scatter estimators, CV, metrics."""

from .bootstrap import (
    BootstrapInterval,
    bootstrap_error_interval,
    paired_bootstrap_pvalue,
)
from .crossval import KFold, LeaveOneOut, StratifiedKFold, train_test_split
from .metrics import (
    ConfusionMatrix,
    accuracy,
    balanced_error,
    classification_error,
    confusion_matrix,
)
from .normal import confidence_beta, norm_cdf, norm_pdf, norm_ppf
from .scatter import (
    ClassStats,
    TwoClassStats,
    estimate_class_stats,
    estimate_two_class_stats,
)

__all__ = [
    "BootstrapInterval",
    "bootstrap_error_interval",
    "paired_bootstrap_pvalue",
    "KFold",
    "StratifiedKFold",
    "LeaveOneOut",
    "train_test_split",
    "ConfusionMatrix",
    "classification_error",
    "accuracy",
    "balanced_error",
    "confusion_matrix",
    "norm_pdf",
    "norm_cdf",
    "norm_ppf",
    "confidence_beta",
    "ClassStats",
    "TwoClassStats",
    "estimate_class_stats",
    "estimate_two_class_stats",
]
