"""The one-sample likelihood-ratio (Shewhart) stopping rule and its calibration.

The rule alarms the first time the likelihood ratio of the current sample
reaches a threshold ``alpha``.  The threshold is calibrated so the
per-sample alarm probability under the nominal law equals ``1 / eta``,
which makes the run length to a false alarm geometric with mean exactly
``eta``.

The decision is ``log l(x) >= log alpha`` on the log ratio, computed in
place; only the randomized-boundary (atom) branch compares on the ratio
scale, where equality with the atom is exact.

The decision at each step is a pure function of the current sample, so the
rule is measurable with respect to the coarse filtration that forgets
everything before the most recent transient window; that property is what
the plug-in rule interface below assumes (verdicts may depend on the time
index, the current sample, and independent randomization, never on earlier
samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Protocol, runtime_checkable

import numpy as np

from .distributions import DistributionPair

#: tolerance at which calibration is considered exact (continuous families)
CALIBRATION_TOL = 1e-9


class CalibrationError(ValueError):
    """The threshold equation cannot be satisfied for the given pair."""


@runtime_checkable
class StoppingRule(Protocol):
    """Per-sample stopping rule usable by the Monte Carlo estimators.

    ``alarm_mask`` returns the alarm verdicts, shaped like ``x``, for the
    samples ``x`` observed at 1-based ``times``; it may consume ``rng`` for
    independent randomization.  The estimators pass 2-D blocks (one row per
    trial, one column per time drawn) with ``times`` broadcast to ``x``'s
    shape, so verdicts must be elementwise.  Restart mode relies on this
    per-sample contract: it draws and decides the onset samples only.
    ``memoryless`` declares that the verdict distribution does not depend
    on the time index (fixed-time rules are per-sample but not memoryless),
    and a memoryless rule's verdicts must not depend on ``times`` at all:
    when every sample of a run has one law, the estimators cut all of a
    chunk's runs from one flat 1-D stream and pass ``times`` as read-only
    zeros shaped like ``x``.
    """

    memoryless: bool

    def alarm_mask(
        self, times: np.ndarray, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class ShewhartDetector:
    """Calibrated one-sample likelihood-ratio test.

    Fields:
      pair: the (F0, F1) model used to form likelihood ratios.
      alpha: threshold; alarm when l(x) >= alpha, decided as ``log l(x) >=
        log alpha`` (:attr:`log_alpha`) on the log ratio computed in place,
        or on the ratio scale with randomize_boundary set.
      eta: the run-length target the threshold was calibrated to.
      initial_stop_prob: probability of declaring a change before consuming
        any sample (stopping time 0).  A proof device for equalizing the
        run-length constraint of rules that overshoot it; defaults to 0.
      randomize_boundary: None for continuous ratios (plain closed
        comparison l >= alpha).  For ratios with an atom at alpha, the
        probability of alarming when l(x) == alpha exactly, with l > alpha
        always alarming; calibration sets this so the per-sample alarm
        probability is exactly 1/eta.
    """

    pair: DistributionPair
    alpha: float
    eta: float
    initial_stop_prob: float = 0.0
    randomize_boundary: float | None = None

    memoryless: ClassVar[bool] = True

    def __post_init__(self):
        # written so that NaN fails; eta = inf (a threshold with zero F0 tail) passes
        if not self.eta >= 1.0:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 <= self.initial_stop_prob <= 1.0:
            raise ValueError(f"initial_stop_prob must be in [0, 1], got {self.initial_stop_prob}")
        if self.randomize_boundary is not None and not 0.0 <= self.randomize_boundary <= 1.0:
            raise ValueError(f"randomize_boundary must be in [0, 1], got {self.randomize_boundary}")

    @cached_property
    def log_alpha(self) -> float:
        """``log(alpha)``, derived once; not a field, so ``==``, hash and repr ignore it."""
        return math.log(self.alpha) if self.alpha > 0.0 else -math.inf

    def per_sample_alarm_prob(self) -> float:
        """Alarm probability of a single nominal sample (the calibrated 1/eta)."""
        closed = self.pair.lr_tail_prob_f0(self.alpha)
        if self.randomize_boundary is None:
            return closed
        strict = self.pair.lr_tail_prob_f0(self.alpha, strict=True)
        return strict + self.randomize_boundary * (closed - strict)

    def step(self, x: float, rng: np.random.Generator | None = None) -> tuple[bool, float]:
        """``(alarmed, l(x))`` for one sample; stateless, so history never matters.

        ``rng`` is consulted only when the ratio lands exactly on a
        configured boundary atom.
        """
        # np.exp as in alarm_mask's atom branch: math.exp differs in the last
        # bit on some inputs, and the two must agree on every verdict
        llr = self.pair.log_likelihood_ratio(x)
        if llr <= 709.0:
            lr = float(np.exp(llr))
        else:  # exp overflows to inf past about 709.78; the verdict reads the log
            with np.errstate(over="ignore"):
                lr = float(np.exp(llr))
        if self.randomize_boundary is None:
            return llr >= self.log_alpha, lr
        if lr == self.alpha:
            if rng is None:
                raise ValueError("boundary randomization requires an rng")
            return rng.random() < self.randomize_boundary, lr
        return lr > self.alpha, lr

    def alarm_mask(
        self, times: np.ndarray, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized step verdicts; agrees with :meth:`step` sample by sample."""
        llr = np.atleast_1d(self.pair.log_likelihood_ratio(np.asarray(x, dtype=float)))
        if self.randomize_boundary is None:
            return llr >= self.log_alpha
        lr = np.exp(llr)
        mask = lr > self.alpha
        at_atom = lr == self.alpha
        k = int(at_atom.sum())
        if k:
            mask[at_atom] = rng.random(k) < self.randomize_boundary
        return mask

    def run_stream(
        self,
        observations: Iterable[float],
        rng: np.random.Generator | None = None,
    ) -> int | None:
        """First 1-based index whose sample alarms, 0 for an initial stop,
        or None when the source is exhausted without an alarm.

        With probability ``initial_stop_prob`` the rule stops before
        consuming anything (one uniform is drawn up front in that case).
        """
        if self.initial_stop_prob > 0.0:
            if rng is None:
                raise ValueError("initial_stop_prob > 0 requires an rng")
            if rng.random() < self.initial_stop_prob:
                return 0
        step = self.step
        for t, x in enumerate(observations, start=1):
            if step(x, rng)[0]:
                return t
        return None


def calibrate(
    pair: DistributionPair, eta: float, *, initial_stop_prob: float = 0.0
) -> ShewhartDetector:
    """Solve the threshold equation P0(l >= alpha) = 1/eta.

    ``eta = 1`` returns the always-alarm boundary (alpha = 0).  Continuous
    families solve the equation exactly; when the ratio has an atom
    straddling 1/eta the threshold is placed on the atom and
    ``randomize_boundary`` is set so the per-sample alarm probability is
    exactly 1/eta anyway.
    """
    if not eta >= 1.0:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if eta == 1.0:
        return ShewhartDetector(
            pair=pair, alpha=0.0, eta=1.0, initial_stop_prob=initial_stop_prob
        )
    p = 1.0 / eta
    alpha = pair.lr_quantile_f0(p)
    closed = pair.lr_tail_prob_f0(alpha)
    if abs(closed - p) <= CALIBRATION_TOL:
        boundary = None
    else:
        strict = pair.lr_tail_prob_f0(alpha, strict=True)
        if not strict <= p <= closed:
            raise CalibrationError(
                f"threshold {alpha} does not straddle the target tail {p}: "
                f"P(l > alpha) = {strict}, P(l >= alpha) = {closed}"
            )
        mass = closed - strict
        boundary = min(max((p - strict) / mass, 0.0), 1.0) if mass > 0.0 else 0.0
    return ShewhartDetector(
        pair=pair,
        alpha=alpha,
        eta=eta,
        initial_stop_prob=initial_stop_prob,
        randomize_boundary=boundary,
    )


def equalizing_initial_stop(eta: float, mean_run_length: float) -> float:
    """Initial stop probability that brings an overshooting rule's mean run
    length down to eta: solves (1 - pi0) * mean_run_length = eta."""
    if mean_run_length < eta:
        raise ValueError(
            f"mean run length {mean_run_length} is below the target {eta}; "
            "nothing to equalize"
        )
    return 1.0 - eta / mean_run_length


@dataclass(frozen=True)
class AlwaysStopRule:
    """Alarms on every sample (run length 1)."""

    memoryless: ClassVar[bool] = True
    initial_stop_prob: ClassVar[float] = 0.0

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        return np.ones(np.shape(times), dtype=bool)


@dataclass(frozen=True)
class FixedTimeRule:
    """Alarms exactly at a predetermined time, ignoring the data."""

    stop_at: int
    memoryless: ClassVar[bool] = False
    initial_stop_prob: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.stop_at < 1:
            raise ValueError(f"stop_at must be >= 1, got {self.stop_at}")

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        return np.asarray(times) == self.stop_at


@dataclass(frozen=True)
class BernoulliStopRule:
    """Alarms with a fixed probability at every sample, independent of the data."""

    stop_prob: float
    memoryless: ClassVar[bool] = True
    initial_stop_prob: ClassVar[float] = 0.0

    def __post_init__(self):
        if not 0.0 < self.stop_prob <= 1.0:
            raise ValueError(f"stop_prob must be in (0, 1], got {self.stop_prob}")

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        return rng.random(np.shape(times)) < self.stop_prob
