"""Quickest identification of transient change-points in a two-law stream.

The stream is nominally driven by a known law F0 and occasionally switches
to a known law F1 for short, non-overlapping windows at unknown times.  The
monitor's job is to stop exactly on the first sample of one such window
while keeping the mean run length to a false alarm at a budgeted level.
The memoryless one-sample likelihood-ratio test shipped here attains the
best achievable conditional-detection sum for that budget; the metrics
module estimates both sides of that optimality statement so the claim
stays empirically checkable.

Importing the package loads no submodule: each public name loads its
submodule on first use, so a program that only runs the detector never
loads the estimators or the experiment harness.
"""

import importlib
import os

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_SUBMODULE = {
    "DistributionPair": "distributions",
    "GaussianMeanShift": "distributions",
    "norm_upper_quantile": "distributions",
    "norm_upper_tail": "distributions",
    "pair_from_config": "distributions",
    "ChangeSchedule": "sequence_model",
    "InfeasibleScheduleError": "sequence_model",
    "generate_sequence": "sequence_model",
    "make_schedule": "sequence_model",
    "AlwaysStopRule": "detector",
    "BernoulliStopRule": "detector",
    "CalibrationError": "detector",
    "FixedTimeRule": "detector",
    "ShewhartDetector": "detector",
    "calibrate": "detector",
    "CriteriaReport": "metrics",
    "CurveRow": "metrics",
    "DegenerateEstimateError": "metrics",
    "Estimate": "metrics",
    "PollakEstimate": "metrics",
    "detect_first_any_curves": "metrics",
    "estimate_pollak": "metrics",
    "estimate_optimality_ceiling": "metrics",
    "evaluate_criteria": "metrics",
    "simulate_run_lengths": "metrics",
    "ExperimentConfig": "harness",
    "load_preset": "harness",
    "run_eta_sweep": "harness",
    "run_experiment": "harness",
    "write_report": "harness",
}

__all__ = ["__version__", "preset_names", *_SUBMODULE]

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def preset_names() -> list[str]:
    """Names of the experiment configs shipped with the package."""
    return sorted(f[: -len(".json")] for f in os.listdir(_PRESET_DIR) if f.endswith(".json"))


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
