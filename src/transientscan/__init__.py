"""Quickest identification of transient change-points in a two-law stream.

The stream is nominally driven by a known law F0 and occasionally switches
to a known law F1 for short, non-overlapping windows at unknown times.  The
monitor's job is to stop exactly on the first sample of one such window
while keeping the mean run length to a false alarm at a budgeted level.
The memoryless one-sample likelihood-ratio test shipped here attains the
best achievable conditional-detection sum for that budget; the metrics
module estimates both sides of that optimality statement so the claim
stays empirically checkable.
"""

__version__ = "0.1.0"

from .distributions import (
    DistributionPair,
    GaussianMeanShift,
    norm_upper_quantile,
    norm_upper_tail,
    pair_from_config,
)
from .sequence_model import (
    ChangeSchedule,
    InfeasibleScheduleError,
    generate_sequence,
    make_schedule,
)
from .detector import (
    AlwaysStopRule,
    BernoulliStopRule,
    CalibrationError,
    FixedTimeRule,
    ShewhartDetector,
    calibrate,
    equalizing_initial_stop,
)
from .metrics import (
    ArlEstimate,
    CriteriaReport,
    CurveRow,
    DegenerateEstimateError,
    Estimate,
    PollakEstimate,
    TrialOutcome,
    detect_first_any_curves,
    estimate_arl,
    estimate_pollak,
    estimate_optimality_ceiling,
    evaluate_criteria,
    geometric_gof_pvalue,
    monitor_sequence,
    run_monitoring,
    simulate_run_lengths,
)
from .harness import (
    ExperimentConfig,
    load_preset,
    preset_names,
    run_eta_sweep,
    run_experiment,
    write_report,
)

__all__ = [
    "__version__",
    "DistributionPair",
    "GaussianMeanShift",
    "norm_upper_quantile",
    "norm_upper_tail",
    "pair_from_config",
    "ChangeSchedule",
    "InfeasibleScheduleError",
    "generate_sequence",
    "make_schedule",
    "AlwaysStopRule",
    "BernoulliStopRule",
    "CalibrationError",
    "FixedTimeRule",
    "ShewhartDetector",
    "calibrate",
    "equalizing_initial_stop",
    "ArlEstimate",
    "CriteriaReport",
    "CurveRow",
    "DegenerateEstimateError",
    "Estimate",
    "PollakEstimate",
    "TrialOutcome",
    "detect_first_any_curves",
    "estimate_arl",
    "estimate_pollak",
    "estimate_optimality_ceiling",
    "evaluate_criteria",
    "geometric_gof_pvalue",
    "monitor_sequence",
    "run_monitoring",
    "simulate_run_lengths",
    "ExperimentConfig",
    "load_preset",
    "preset_names",
    "run_eta_sweep",
    "run_experiment",
    "write_report",
]
