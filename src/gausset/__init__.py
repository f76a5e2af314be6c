"""Fully Bayesian Gaussian classifier with a shared within-class covariance.

Training data is reduced to sufficient statistics, a conjugate
matrix-normal-Wishart prior turns them into a closed-form posterior,
and each class scores new patterns with a multivariate-T predictive
density. Classes declared with no training data remain scorable, and
the shrinkage parameter r can be tuned by maximizing the marginal
likelihood of the training data. Monte-Carlo oracles for every closed
form ship with the library.
"""

from .dataset import (
    LabeledDataset,
    SufficientStats,
    accumulate,
    load_csv,
    load_features,
    merge,
)
from .errors import (
    AllZeroPrior,
    DegenerateScatter,
    DimensionMismatch,
    DomainError,
    EmptyDimension,
    GaussetError,
    ImproperPrior,
    InsufficientDof,
    NonFiniteValue,
    NotPositiveDefinite,
    ParseError,
    ShapeMismatch,
)
from .evidence import (
    EvidenceCurve,
    evidence_curve,
    log_evidence_noninformative,
    log_evidence_proper,
    tune_r,
    write_curve_csv,
)
from .inference import (
    PosteriorMNW,
    PriorHyper,
    add_empty_class,
    column_marginal,
    posterior,
)
from .linalg import CholeskyFactor
from .model_io import load_model, save_model
from .montecarlo import (
    mc_predictive,
    run_verification,
    sample_dataset,
    sample_matrix_normal,
    sample_wishart,
    seeded_generator,
)
from .predictive import (
    ClassPrior,
    PredictiveModel,
    build_model,
    class_posterior,
    decide,
    log_predictive,
    log_predictive_unnormalized,
    posterior_from_scores,
    score_batch,
    zero_one_costs,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroPrior",
    "CholeskyFactor",
    "ClassPrior",
    "DegenerateScatter",
    "DimensionMismatch",
    "DomainError",
    "EmptyDimension",
    "EvidenceCurve",
    "GaussetError",
    "ImproperPrior",
    "InsufficientDof",
    "LabeledDataset",
    "NonFiniteValue",
    "NotPositiveDefinite",
    "ParseError",
    "PosteriorMNW",
    "PredictiveModel",
    "PriorHyper",
    "ShapeMismatch",
    "SufficientStats",
    "accumulate",
    "add_empty_class",
    "build_model",
    "class_posterior",
    "column_marginal",
    "decide",
    "evidence_curve",
    "load_csv",
    "load_features",
    "load_model",
    "log_evidence_noninformative",
    "log_evidence_proper",
    "log_predictive",
    "log_predictive_unnormalized",
    "mc_predictive",
    "merge",
    "posterior",
    "posterior_from_scores",
    "run_verification",
    "sample_dataset",
    "sample_matrix_normal",
    "sample_wishart",
    "save_model",
    "score_batch",
    "seeded_generator",
    "tune_r",
    "write_curve_csv",
    "zero_one_costs",
]
