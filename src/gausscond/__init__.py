"""Exact conditioning of multivariate normal vectors on linear transformations.

Works for every rank: singular covariance operators and rank-deficient
(or rectangular, or empty) transforms are first-class inputs. The public
surface is re-exported here; the CLI lives in gausscond.cli.
"""

from .checks import CheckReport, PropertyCheck, run_suite
from .conditioning import (
    AnovaReport,
    ConditionalLaw,
    Decomposition,
    anova_check,
    condition,
    decompose,
    endomorphism_reduction,
    evaluate,
    lift_observation,
)
from .errors import (
    DimError,
    GausscondError,
    InconsistentObservation,
    InvalidInput,
    NotPositive,
    TooFewAccepted,
    XInSubspace,
)
from .gaussian import (
    Gaussian,
    IndependenceResult,
    JointGaussian,
    char_fn,
    independence_test,
    joint,
    pushforward,
    sample,
    standard_normal_rows,
)
from .oracle import (
    OracleResult,
    ginv_condition,
    mc_conditional_moments,
    mc_independence,
)
from .regression import (
    PartialOutResult,
    extended_projection_delta,
    partial_out,
    partial_out_identity_check,
)
from .spectral import (
    DEFAULT_RANK_TOL_SCALE,
    LinearMap,
    Projector,
    SpectralDecomposition,
    SymOperator,
    eig_sym,
    invertible_left_factor,
    null_space_projector,
    pinv_sqrt_psd,
    range_projector,
    row_space_projector,
    sqrt_psd,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaReport",
    "CheckReport",
    "ConditionalLaw",
    "DEFAULT_RANK_TOL_SCALE",
    "Decomposition",
    "DimError",
    "Gaussian",
    "GausscondError",
    "IndependenceResult",
    "InconsistentObservation",
    "InvalidInput",
    "JointGaussian",
    "LinearMap",
    "NotPositive",
    "OracleResult",
    "PartialOutResult",
    "Projector",
    "PropertyCheck",
    "SpectralDecomposition",
    "SymOperator",
    "TooFewAccepted",
    "XInSubspace",
    "anova_check",
    "char_fn",
    "condition",
    "decompose",
    "eig_sym",
    "endomorphism_reduction",
    "evaluate",
    "extended_projection_delta",
    "ginv_condition",
    "independence_test",
    "invertible_left_factor",
    "joint",
    "lift_observation",
    "mc_conditional_moments",
    "mc_independence",
    "null_space_projector",
    "partial_out",
    "partial_out_identity_check",
    "pinv_sqrt_psd",
    "pushforward",
    "range_projector",
    "row_space_projector",
    "run_suite",
    "sample",
    "sqrt_psd",
    "standard_normal_rows",
    "__version__",
]
