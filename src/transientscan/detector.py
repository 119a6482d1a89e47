"""The one-sample likelihood-ratio (Shewhart) stopping rule and its calibration.

The rule alarms the first time the likelihood ratio of the current sample
reaches a threshold ``alpha``.  The threshold is calibrated so the
per-sample alarm probability under the nominal law equals ``1 / eta``,
which makes the run length to a false alarm geometric with mean exactly
``eta``.

The decision is ``log l(x) >= log alpha`` on the log ratio, computed in
place.  Where the pair gives the sample-space edge of that decision (a
Gaussian pair does), a block of samples is decided by one comparison with
the edge, which passes exactly the floats the log decision passes.  Only
the randomized-boundary (atom) branch compares on the ratio scale, formed
by the pair's ``likelihood_ratio`` as the atoms are, so equality with the
atom is exact on every host.

The decision at each step is a pure function of the current sample, so the
rule is measurable with respect to the coarse filtration that forgets
everything before the most recent transient window; that property is what
the plug-in rule interface below assumes (verdicts may depend on the time
index, the current sample, and independent randomization, never on earlier
samples).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, ClassVar, Protocol, runtime_checkable

from .distributions import DistributionPair, Which, _check_which

if TYPE_CHECKING:  # numpy loads only in the array paths, so detect and calibrate run without it
    import numpy as np

#: tolerance at which calibration is considered exact (continuous families)
CALIBRATION_TOL = 1e-9


class CalibrationError(ValueError):
    """The threshold equation cannot be satisfied for the given pair."""


class _built_method(cached_property):
    """A ``cached_property`` whose value is the method, built once per instance.

    ``obj.name`` is the built function itself, so a call skips the bound
    method and the attribute lookups the builder folded in.  The class
    attribute stays callable like a plain method: ``Cls.name(obj, ...)``,
    and so a wrapper installed around it, calls ``obj``'s built function.
    """

    def __call__(self, instance, *args, **kwargs):
        return self.__get__(instance, type(instance))(*args, **kwargs)


@runtime_checkable
class StoppingRule(Protocol):
    """Per-sample stopping rule usable by the Monte Carlo estimators.

    ``alarm_mask`` returns the alarm verdicts, shaped like ``x``, for the
    samples ``x`` observed at 1-based ``times``; it may consume ``rng`` for
    independent randomization.  The estimators pass 2-D blocks (one row per
    trial, one column per time drawn) with ``times`` broadcast to ``x``'s
    shape, so verdicts must be elementwise.  ``memoryless`` declares that
    the verdict distribution does not depend on the time index (fixed-time
    rules are per-sample but not memoryless), and a memoryless rule's
    verdicts must not depend on ``times`` at all: F0 runs of a memoryless
    rule and every restart run cut all of a chunk's runs from one flat 1-D
    stream and pass ``times`` as read-only zeros shaped like ``x``.  Restart
    mode relies on both contracts: it draws and decides the onset samples
    only, and refuses a rule that is not memoryless.  Single-shot runs with
    onsets and F0 runs of a time-dependent rule take blocks of consecutive
    time steps.  ``alarm_mask`` returns a bool array: the estimators count
    its True verdicts.

    A rule may also state its per-time alarm laws through the optional
    ``alarm_probs(times, law)``: a float array shaped like ``times``, the
    probability of an alarm at each 1-based time on one sample drawn from
    ``law`` (``"nominal"`` for ``c0(t)``, ``"alternative"`` for ``c1(t)``).
    It covers the per-sample verdicts only; an initial stop is drawn
    separately.  The estimators size their buffers and blocks from these
    laws (a rule without them from 16 columns) and decide nothing by them.
    The flat buffers of a rule whose ``alarm_mask`` draws nothing cut the
    same samples for each trial, and so give the same outputs, whatever
    their sizes.

    A rule whose verdicts read only the time and ``rng`` may declare
    ``reads_samples = False`` (a rule without the attribute reads its
    samples).  The estimators then draw no sample for its verdicts and
    pass ``x=None`` to ``alarm_mask``; uniforms that ``alarm_mask`` draws
    are still drawn.  Such a rule's stopping sample is drawn after its
    stop, from the law at its stop time.
    """

    memoryless: bool

    def alarm_mask(
        self, times: np.ndarray, x: np.ndarray | None, rng: np.random.Generator
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class ShewhartDetector:
    """Calibrated one-sample likelihood-ratio test.

    Fields:
      pair: the (F0, F1) model used to form likelihood ratios.
      alpha: threshold; alarm when l(x) >= alpha, decided as ``log l(x) >=
        log alpha`` (:attr:`log_alpha`) on the log ratio computed in place,
        as one comparison of the samples with :attr:`sample_edge` where the
        pair gives one, or on the ratio scale with randomize_boundary set.
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

    @cached_property
    def sample_edge(self) -> tuple[float, bool] | None:
        """``pair.log_ratio_edge(log_alpha)``: the sample-space edge of the
        log decision, derived once like :attr:`log_alpha` (None where the
        pair has none)."""
        return self.pair.log_ratio_edge(self.log_alpha)

    def per_sample_alarm_prob(self) -> float:
        """Alarm probability of a single nominal sample (the calibrated 1/eta)."""
        closed = self.pair.lr_tail_prob_f0(self.alpha)
        if self.randomize_boundary is None:
            return closed
        strict = self.pair.lr_tail_prob_f0(self.alpha, strict=True)
        return strict + self.randomize_boundary * (closed - strict)

    def alarm_probs(self, times: np.ndarray, law: Which) -> np.ndarray:
        """Per-sample alarm probability at each of ``times``, the same at
        every time: ``c0`` is :meth:`per_sample_alarm_prob`; ``c1`` is
        ``P1(l >= alpha)``, or ``P1(l > alpha) + r * alpha * P0(l = alpha)``
        with the boundary randomized at rate ``r`` (an atom's F1 mass is
        ``alpha`` times its F0 mass)."""
        import numpy as np

        _check_which(law)
        if law == "nominal":
            c = self.per_sample_alarm_prob()
        elif self.randomize_boundary is None:
            c = self.pair.lr_tail_prob_f1(self.alpha)
        else:
            atom = self.pair.lr_tail_prob_f0(self.alpha) - self.pair.lr_tail_prob_f0(
                self.alpha, strict=True
            )
            above = self.pair.lr_tail_prob_f1(math.nextafter(self.alpha, math.inf))
            c = above + self.randomize_boundary * self.alpha * atom
        return np.full(np.shape(times), c)

    def __getstate__(self) -> dict:
        # the built step is a closure, which does not pickle: a copy builds
        # its own, and keeps the cached log_alpha
        state = dict(vars(self))
        state.pop("step", None)
        return state

    @_built_method
    def step(self) -> Callable[..., tuple[bool, float]]:
        """``step(x, rng=None)``: ``(alarmed, l(x))`` for one sample;
        stateless, so history never matters.

        Built once per detector, like :attr:`log_alpha`: a closure over the
        pair's :attr:`~DistributionPair.float_log_ratio` and the threshold.
        Without boundary randomization ``l(x)`` is ``math.exp`` of the log
        ratio (``inf`` past the float range), the same double on every host;
        with it, the pair's :meth:`~DistributionPair.likelihood_ratio`, which
        forms the atoms, and ``rng`` is consulted only on the atom.
        """
        llr = self.pair.float_log_ratio
        log_alpha = self.log_alpha
        if self.randomize_boundary is None:
            exp = math.exp

            def step(x: float, rng: np.random.Generator | None = None) -> tuple[bool, float]:
                v = llr(x)
                # the verdict reads the log; the ratio is only reported
                try:
                    return v >= log_alpha, exp(v)
                except OverflowError:  # exp overflows past about 709.78
                    return v >= log_alpha, math.inf

            return step
        # on the ratio scale, formed as the pair forms its atoms
        import numpy as np

        ratio, alpha, boundary = self.pair.likelihood_ratio, self.alpha, self.randomize_boundary

        def step(x: float, rng: np.random.Generator | None = None) -> tuple[bool, float]:
            with np.errstate(over="ignore"):
                lr = ratio(x)
            if lr == alpha:
                if rng is None:
                    raise ValueError("boundary randomization requires an rng")
                return rng.random() < boundary, lr
            return lr > alpha, lr

        return step

    def alarm_mask(
        self, times: np.ndarray, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized step verdicts; agrees with :meth:`step` sample by sample."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        if self.randomize_boundary is None:
            edge = self.sample_edge
            if edge is not None:
                at, upper = edge
                return np.atleast_1d(x >= at if upper else x <= at)
            return np.atleast_1d(self.pair.log_likelihood_ratio(x)) >= self.log_alpha
        lr = np.atleast_1d(self.pair.likelihood_ratio(x))
        mask = lr > self.alpha
        at_atom = lr == self.alpha
        k = int(at_atom.sum())
        if k:
            mask[at_atom] = rng.random(k) < self.randomize_boundary
        return mask


def calibrate(
    pair: DistributionPair, eta: float, *, initial_stop_prob: float = 0.0
) -> ShewhartDetector:
    """Solve the threshold equation P0(l >= alpha) = 1/eta.

    ``eta = 1`` returns the always-alarm boundary (alpha = 0).  Continuous
    families solve the equation exactly; when the ratio has an atom
    straddling 1/eta the threshold is placed on the atom and
    ``randomize_boundary`` is set so the per-sample alarm probability is
    exactly 1/eta anyway.  ``eta`` must be finite.
    """
    if not 1.0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 1 and finite, got {eta}")
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
        if alpha == 0.0 and strict > p:  # a true 0 quantile has P(l > 0) <= p
            raise CalibrationError(
                f"threshold for the target tail {p} underflows below the smallest "
                f"positive float: P(l > 0.0) = {strict}"
            )
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


@dataclass(frozen=True)
class AlwaysStopRule:
    """Alarms on every sample (run length 1)."""

    memoryless: ClassVar[bool] = True
    reads_samples: ClassVar[bool] = False
    initial_stop_prob: ClassVar[float] = 0.0

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        import numpy as np

        return np.ones(np.shape(times), dtype=bool)

    def alarm_probs(self, times, law) -> np.ndarray:
        import numpy as np

        _check_which(law)
        return np.ones(np.shape(times))


@dataclass(frozen=True)
class FixedTimeRule:
    """Alarms exactly at a predetermined time, ignoring the data."""

    stop_at: int
    memoryless: ClassVar[bool] = False
    reads_samples: ClassVar[bool] = False
    initial_stop_prob: ClassVar[float] = 0.0

    def __post_init__(self):
        if isinstance(self.stop_at, bool) or not isinstance(self.stop_at, numbers.Integral):
            raise ValueError(f"stop_at must be an integer, got {self.stop_at!r}")
        object.__setattr__(self, "stop_at", int(self.stop_at))
        if self.stop_at < 1:
            raise ValueError(f"stop_at must be >= 1, got {self.stop_at}")

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        import numpy as np

        return np.asarray(times) == self.stop_at

    def alarm_probs(self, times, law) -> np.ndarray:
        import numpy as np

        _check_which(law)
        return (np.asarray(times) == self.stop_at).astype(float)


@dataclass(frozen=True)
class BernoulliStopRule:
    """Alarms with a fixed probability at every sample, independent of the data."""

    stop_prob: float
    memoryless: ClassVar[bool] = True
    reads_samples: ClassVar[bool] = False
    initial_stop_prob: ClassVar[float] = 0.0

    def __post_init__(self):
        if not 0.0 < self.stop_prob <= 1.0:
            raise ValueError(f"stop_prob must be in (0, 1], got {self.stop_prob}")

    def alarm_mask(self, times, x, rng) -> np.ndarray:
        import numpy as np

        return rng.random(np.shape(times)) < self.stop_prob

    def alarm_probs(self, times, law) -> np.ndarray:
        import numpy as np

        _check_which(law)
        return np.full(np.shape(times), self.stop_prob)
