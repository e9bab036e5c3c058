"""Finite-statistics decoy-state BB84 post-processing.

The package turns the observed counts of a decoy-state session into a
certified secret key: exact binomial confidence bounds feed a
photon-number linear program whose single-photon yield/error bounds
price the privacy amplification, alongside measured efficiencies for
error reconciliation (CASCADE) and bias removal (iterated pairwise
extraction).  A Monte-Carlo channel simulator, a scheme optimizer, a
range-curve sweep, and a calibration routine for the demonstration
link round out the toolkit; the ``decoyqkd`` console script exposes it
all on the command line.
"""

from .core import (
    BASES,
    ChannelModel,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    LevelCounts,
    SessionTally,
    ValidationError,
    conjugate_basis,
    dumps,
    validate_tally,
)
from .stats import (
    binary_entropy,
    binomial_interval,
    binomial_lower,
    binomial_upper,
    poisson_tail,
    poisson_weights,
)
from .decoy import (
    ConstraintSystem,
    SinglePhotonBounds,
    single_photon_bounds,
)
from .keyrate import (
    KeyBudget,
    SessionAnalysis,
    compose_session,
    privacy_amplification_factor,
    secret_length,
)
from .recon import (
    DistillResult,
    ParityMessage,
    ReconciliationResult,
    cascade_reconcile,
    distill_session,
    measure_f_ec,
)
from .extract import (
    DeskewResult,
    measure_f_ds,
    peres_extract,
    privacy_amplify,
)
from .sim import (
    REFERENCE_DETECTIONS,
    REFERENCE_DURATION_H,
    REFERENCE_DUTY_CYCLE,
    REFERENCE_KEY_TARGETS,
    REFERENCE_SIFT_RATIO,
    REFERENCE_SIFTED_TOTAL,
    REFERENCE_ZERO_FRACTION,
    CalibrationResult,
    ExpectedStatistics,
    RawKeys,
    calibrate_to_reference,
    evaluate_scheme,
    expected_statistics,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)
from .opt import (
    CurvePoint,
    OptimizationResult,
    RangeCurve,
    curve_csv,
    optimize_scheme,
    range_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "BASES",
    "ChannelModel",
    "ConfidenceConfig",
    "DecoyScheme",
    "LevelCounts",
    "SessionTally",
    "ValidationError",
    "InputError",
    "conjugate_basis",
    "dumps",
    "validate_tally",
    # stats
    "binary_entropy",
    "binomial_interval",
    "binomial_lower",
    "binomial_upper",
    "poisson_tail",
    "poisson_weights",
    # decoy
    "ConstraintSystem",
    "SinglePhotonBounds",
    "single_photon_bounds",
    # keyrate
    "KeyBudget",
    "SessionAnalysis",
    "compose_session",
    "privacy_amplification_factor",
    "secret_length",
    # recon
    "ParityMessage",
    "ReconciliationResult",
    "cascade_reconcile",
    "measure_f_ec",
    "DistillResult",
    "distill_session",
    # extract
    "DeskewResult",
    "measure_f_ds",
    "peres_extract",
    "privacy_amplify",
    # sim
    "REFERENCE_DETECTIONS",
    "REFERENCE_DURATION_H",
    "REFERENCE_DUTY_CYCLE",
    "REFERENCE_KEY_TARGETS",
    "REFERENCE_SIFT_RATIO",
    "REFERENCE_SIFTED_TOTAL",
    "REFERENCE_ZERO_FRACTION",
    "CalibrationResult",
    "ExpectedStatistics",
    "RawKeys",
    "calibrate_to_reference",
    "evaluate_scheme",
    "expected_statistics",
    "expected_tally",
    "reference_model",
    "reference_scheme",
    "simulate_session",
    # opt
    "CurvePoint",
    "OptimizationResult",
    "RangeCurve",
    "curve_csv",
    "optimize_scheme",
    "range_curve",
]
