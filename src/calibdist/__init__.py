"""calibdist: distance-from-calibration measures for binary probabilistic predictors.

Measures operate on an :class:`~calibdist.core.EmpiricalDistribution` of
(prediction, label) samples: expected calibration error and binned variants,
the surrogate interval calibration error, smooth calibration by an exact
O(d log d) dynamic program, the lower distance to calibration via the dual
of a discretized transport LP, and Laplace/Gaussian kernel calibration
error with exact and randomized estimators.  ``calibdist.fixtures`` carries
the adversarial constructions and brute-force oracles used to certify the
inequalities between the measures.

Importing the package loads numpy but no scipy module.  scipy is loaded on
first use by the two routines that need it: the lower-distance LP
(``calibdist.lowerdist`` owns the HiGHS call) and the dbeta family's
logistic map.  The general LPs for smooth calibration, the primal coupling
LP for the lower distance and the Monte Carlo kernel identity check are test
oracles and live with the tests.
"""

__version__ = "0.1.0"

from .binning import IntervalPartition, binned_ece, ece, uniform_partition
from .core import (
    MAX_BINS,
    EmpiricalDistribution,
    ReliabilityColumns,
    SeededRng,
    make_empirical,
    reliability_bins,
    round_to_grid,
)
from .errors import (
    BadAlpha,
    BadBins,
    BadConfig,
    BadEps,
    BadLabel,
    BadStep,
    BadWidth,
    CalibrationError,
    EmptyInput,
    ModeKindMismatch,
    OutOfRange,
    SolverFailure,
    TooLarge,
)
from .fixtures import (
    FiniteProblem,
    GaussGapConfig,
    SyntheticConfig,
    dce_bruteforce,
    discontinuity_pair,
    f_eps,
    gap_pa_pair,
    gap_quadratic,
    gen_dbeta,
    gen_gauss_gap,
    induce_gamma,
    induce_gamma_exact,
    udce_bruteforce,
)
from .interval import (
    IntervalEstimatorConfig,
    rintce_exact,
    rintce_hat,
    sintce_exact,
    sintce_hat,
)
from .kernel import (
    KernelEstimatorConfig,
    KernelKind,
    kce_estimate,
    kce_estimate_squared,
    kce_exact,
)
from .lowerdist import DualSolution, Grid, ldce, ldce_dual_solution
from .smooth import WeightVector, smce

__all__ = [
    "__version__",
    "EmpiricalDistribution", "ReliabilityColumns", "SeededRng",
    "MAX_BINS", "make_empirical", "reliability_bins", "round_to_grid",
    "IntervalPartition", "binned_ece", "ece", "uniform_partition",
    "IntervalEstimatorConfig", "rintce_exact", "rintce_hat", "sintce_exact", "sintce_hat",
    "WeightVector", "smce",
    "DualSolution", "Grid", "ldce", "ldce_dual_solution",
    "KernelEstimatorConfig", "KernelKind",
    "kce_estimate", "kce_estimate_squared", "kce_exact",
    "FiniteProblem", "GaussGapConfig", "SyntheticConfig",
    "dce_bruteforce", "udce_bruteforce", "induce_gamma", "induce_gamma_exact",
    "f_eps", "gap_pa_pair", "gap_quadratic", "discontinuity_pair",
    "gen_dbeta", "gen_gauss_gap",
    "CalibrationError", "EmptyInput", "OutOfRange", "BadLabel", "BadStep",
    "BadBins", "BadWidth", "BadEps", "BadAlpha", "BadConfig",
    "ModeKindMismatch", "TooLarge", "SolverFailure",
]
