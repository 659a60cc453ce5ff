"""Structured covariance kernels on time grids.

Wiener and first-order stable-spline (SS-1) kernels with closed-form
inverses, determinants and factorizations, maximum-entropy audits,
exact process samplers, and a kernel-regularized FIR estimator whose
linear algebra runs at the FIR order rather than the data length.

Importing the package loads numpy only.  scipy is imported where it is
called, on first use: by the samplers' inverse normal CDF and by the
estimator's regressor, Cholesky solves and simplex refinement.
"""

from .errors import (
    CheckFailed,
    DimensionMismatch,
    Empty,
    EmptySearchSpace,
    InvalidParameter,
    NegativeTime,
    NonIncreasing,
    NotCompletable,
    NotPositiveDefinite,
    NotSymmetric,
    OrderTooLarge,
    Singular,
    SingularGram,
    StableKernError,
    TooFewPaths,
)
from .grid import SamplingGrid, make_grid, read_grid_file, uniform_grid
from .kernels import (
    SS1,
    WIENER,
    KernelMatrix,
    KernelSpec,
    gram,
    kernel_eval,
    read_kernel_file,
    stable_increments,
)
from .structure import (
    StructuredSqrt,
    TridiagonalMatrix,
    UpperBidiagonal,
    apply_precision,
    closed_form_inverse,
    log_det,
    precision_factor,
    sqrt_factor,
)
from .maxent import (
    ENTROPY_TOLERANCE,
    BandSkeleton,
    GaussianEntropyReport,
    band_extend,
    band_project,
    completion_entropy_audit,
    gaussian_entropy,
    increment_constrained_entropy_test,
    random_positive_extension,
)
from .process import (
    NOISE_ALGORITHM,
    ConstraintAuditReport,
    PathSet,
    TimeTransform,
    WhiteNoiseSource,
    audit_constraints,
    sample_ss1,
    sample_wiener,
    stable_time_transform,
)
from .estimator import (
    EstimationProblem,
    ImpulseResponseEstimate,
    SearchConfig,
    fit,
    log_marginal_likelihood,
    posterior_mean,
    toeplitz_regressor,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StableKernError",
    "Empty",
    "NegativeTime",
    "NonIncreasing",
    "InvalidParameter",
    "SingularGram",
    "DimensionMismatch",
    "NotSymmetric",
    "NotCompletable",
    "NotPositiveDefinite",
    "OrderTooLarge",
    "EmptySearchSpace",
    "TooFewPaths",
    "Singular",
    "CheckFailed",
    # grid
    "SamplingGrid",
    "make_grid",
    "uniform_grid",
    "read_grid_file",
    # kernels
    "WIENER",
    "SS1",
    "KernelSpec",
    "KernelMatrix",
    "kernel_eval",
    "gram",
    "stable_increments",
    "read_kernel_file",
    # structure
    "TridiagonalMatrix",
    "UpperBidiagonal",
    "StructuredSqrt",
    "closed_form_inverse",
    "log_det",
    "precision_factor",
    "sqrt_factor",
    "apply_precision",
    # maxent
    "ENTROPY_TOLERANCE",
    "BandSkeleton",
    "GaussianEntropyReport",
    "band_project",
    "band_extend",
    "gaussian_entropy",
    "random_positive_extension",
    "increment_constrained_entropy_test",
    "completion_entropy_audit",
    # process
    "NOISE_ALGORITHM",
    "WhiteNoiseSource",
    "PathSet",
    "TimeTransform",
    "ConstraintAuditReport",
    "sample_wiener",
    "sample_ss1",
    "stable_time_transform",
    "audit_constraints",
    # estimator
    "EstimationProblem",
    "SearchConfig",
    "ImpulseResponseEstimate",
    "toeplitz_regressor",
    "posterior_mean",
    "log_marginal_likelihood",
    "fit",
]
