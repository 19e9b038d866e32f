"""From-scratch numerical linear algebra used by the classifiers and solver."""

from .cholesky import cholesky, logdet_spd, solve_spd
from .psd import is_psd, is_symmetric, nearest_psd, symmetrize
from .shrinkage import ShrinkageResult, ledoit_wolf_gamma, shrink_covariance
from .triangular import solve_lower, solve_upper

__all__ = [
    "cholesky",
    "solve_spd",
    "logdet_spd",
    "is_psd",
    "is_symmetric",
    "nearest_psd",
    "symmetrize",
    "ShrinkageResult",
    "ledoit_wolf_gamma",
    "shrink_covariance",
    "solve_lower",
    "solve_upper",
]
