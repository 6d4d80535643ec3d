"""Cluster size distributions and the extremal index from block maxima.

Estimates the limiting distribution of extreme-value cluster sizes (and
through it the extremal index) of a stationary series, from exceedance
counts over disjoint or sliding blocks.  Ships the matching limit
covariance evaluators, classical benchmark estimators, reference model
simulators and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .asymptotics import (
    CovMatrix,
    QuadratureSpec,
    disjoint_process_var,
    gamma,
    recursion_matrix,
    robert_crossover,
    sigma_db,
    sigma_sb,
    sliding_process_cov,
    theta_asymp_var,
)
from .competitors import CompetitorSpec, cpp_invert, ferro_pi, hsing_pi, robert_pi
from .cpmodel import (
    BivariatePmfFamily,
    CppModel,
    Pmf,
    cpp_pmf,
    geometric_pi,
    iid_model,
    max_ar_family,
    pbar_theory,
)
from .errors import DegenerateEstimateError, FieldError, NumericFailureError, UnsupportedModelError
from .estimators import (
    ClusterSizeEstimator,
    PbarEstimate,
    PiEstimate,
    pbar_hat,
    pi_from_pbar,
    theta_hat,
)
from .experiments import ExperimentConfig, SummaryTable, read_config, run, write_csv
from .simulate import ModelSpec, gen, substream_seed

__all__ = [
    "__version__",
    "BivariatePmfFamily",
    "ClusterSizeEstimator",
    "CompetitorSpec",
    "CovMatrix",
    "CppModel",
    "DegenerateEstimateError",
    "ExperimentConfig",
    "FieldError",
    "ModelSpec",
    "NumericFailureError",
    "PbarEstimate",
    "PiEstimate",
    "Pmf",
    "QuadratureSpec",
    "SummaryTable",
    "UnsupportedModelError",
    "cpp_invert",
    "cpp_pmf",
    "disjoint_process_var",
    "ferro_pi",
    "gamma",
    "gen",
    "geometric_pi",
    "hsing_pi",
    "iid_model",
    "max_ar_family",
    "pbar_hat",
    "pbar_theory",
    "pi_from_pbar",
    "read_config",
    "recursion_matrix",
    "robert_crossover",
    "robert_pi",
    "run",
    "sigma_db",
    "sigma_sb",
    "sliding_process_cov",
    "substream_seed",
    "theta_asymp_var",
    "theta_hat",
    "write_csv",
]
