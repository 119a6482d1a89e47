"""Monte Carlo estimation of every monitored-run performance quantity.

Estimated quantities, each with a standard error:

  * run length to a false alarm on a pure-nominal stream (its mean is the
    calibration target ``eta``),
  * the per-onset conditional detection probability
    ``P(tau = onset | tau >= onset)`` and its sum over a schedule (the
    probability-maximizing objective; the sum of conditional probabilities
    may exceed 1 and is reported raw),
  * the worst-case-over-history variant of that sum, which for memoryless
    rules equals the plain sum by construction,
  * the optimality ceiling ``s * E0[l_tau] / E0[tau]`` that no rule with
    the same run-length budget can beat, usable as an oracle against any
    plug-in stopping rule,
  * detect-first / detect-any probabilities and missed-onset counts from
    monitored runs.

Reproducibility contract: the trial range is cut into fixed chunks of
``_CHUNK`` trials, and each chunk draws from one generator keyed by
``(seed, stream tag, chunk index)``.  Aggregation reduces per-trial records
in trial order.  Results are therefore bit-identical for any worker count;
workers only split the fixed chunking of the trial range.

Standard errors: exact binomial for probabilities, sample standard
deviation for means, delta method for the bound ratio.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Literal, NamedTuple

import numpy as np

from .detector import ShewhartDetector, StoppingRule, calibrate
from .distributions import DistributionPair
from .sequence_model import ChangeSchedule, generate_sequence

Mode = Literal["single_shot", "restart"]

#: stream tags keying independent substreams under one master seed
STREAM_RUN_LENGTH = 0
STREAM_MONITOR = 1
STREAM_ONSET = 2
STREAM_HISTORY = 3
STREAM_SCHEDULE = 4

#: trials per generator: chunk boundaries are a fixed function of the trial
#: count only, so outputs can never depend on the worker count
_CHUNK = 256
#: columns of a chunk's first block for rules without a run-length budget;
#: calibrated rules start at ``eta`` columns, their mean run length
_MIN_BLOCK = 16
#: most samples one block draws (1 MiB of float64), whatever the block width
_MAX_BLOCK_SAMPLES = 1 << 17

_CENSORED = -1
#: quantile bins of the last pre-onset sample in the history-conditioned
#: estimators (:func:`estimate_lorden`, :func:`history_independence_pvalue`)
_HISTORY_BINS = 4


class DegenerateEstimateError(RuntimeError):
    """Too few surviving trials to estimate a conditional probability."""


class Estimate(NamedTuple):
    value: float
    std_error: float


class ArlEstimate(NamedTuple):
    mean: float
    std_error: float
    censored: int


@dataclass(frozen=True)
class RunLengthSample:
    """Uncensored stopping times and the ratio value at each stop, under F0.

    Initial stops (time 0, no sample consumed) carry a ratio value of 0, so
    expectations pick up the ``(1 - initial_stop_prob)`` factor they should.
    """

    taus: np.ndarray
    lrs: np.ndarray
    censored: int

    @property
    def n(self) -> int:
        return int(self.taus.size)


@dataclass(frozen=True)
class PollakEstimate:
    """Sum over onsets of the conditional detection probability.

    ``per_onset`` holds the per-onset estimates, ``survivors`` how many
    trials reached each onset.  Onsets with fewer than the configured
    minimum of survivors are excluded from the sum and listed in
    ``degenerate_onsets`` (their conditional probability is not estimable
    from the run).
    """

    value: float
    std_error: float
    per_onset: tuple[Estimate, ...]
    survivors: tuple[int, ...]
    degenerate_onsets: tuple[int, ...]


@dataclass(frozen=True)
class TrialOutcome:
    """One monitored run.

    ``tau`` is the run's stopping time: the first alarm in single-shot
    mode, the first alarm coinciding with an onset in restart mode, 0 for
    an initial stop, None when the horizon ran out first.  ``alarms``
    classifies every alarm raised before (and including) the stop; an alarm
    inside a transient window but not exactly at its onset is a false
    alarm.  ``missed_onsets_before_detection`` counts onsets passed with no
    alarm at them before the first detection (or before the run ended).
    """

    tau: int | None
    alarms: tuple[tuple[int, str], ...]
    first_detection_time: int | None
    missed_onsets_before_detection: int


@dataclass(frozen=True)
class CriteriaReport:
    """All criteria estimates for one detector on one schedule."""

    pollak_estimate: Estimate
    arl_to_false_alarm: Estimate
    optimality_ceiling: Estimate
    detect_first_prob: Estimate
    detect_any_prob: Estimate
    avg_missed: Estimate
    n_trials: int
    mode: Mode
    arl_censored: int
    degenerate_onsets: tuple[int, ...]

    def __post_init__(self):
        for name in ("detect_first_prob", "detect_any_prob"):
            est = getattr(self, name)
            if not 0.0 <= est.value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {est.value}")
        for f in fields(self):
            est = getattr(self, f.name)
            if isinstance(est, Estimate) and est.std_error < 0.0:
                raise ValueError(f"{f.name} has a negative standard error")


def _seed_sequence(seed, *key) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *key))
    return np.random.SeedSequence(seed, spawn_key=key)


def trial_rng(seed, *key) -> np.random.Generator:
    """Generator keyed by ``key`` under ``seed`` (an int or a SeedSequence).

    The estimators draw chunk ``c`` of a stream from ``trial_rng(seed,
    stream, c)``.
    """
    return np.random.default_rng(_seed_sequence(seed, *key))


def _chunk_ranges(n_trials: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, n_trials)) for lo in range(0, n_trials, _CHUNK)]


def _map_chunks(fn, n_trials: int, n_workers: int) -> list:
    """Run fn(lo, hi) over the fixed chunking, in chunk order."""
    ranges = _chunk_ranges(n_trials)
    if n_workers <= 1 or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=min(n_workers, len(ranges))) as pool:
        return list(pool.map(fn, *zip(*ranges)))


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0


def _mean_se(values: np.ndarray) -> Estimate:
    n = values.size
    if n == 0:
        return Estimate(math.nan, math.nan)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean, se)


# ---------------------------------------------------------------------------
# The simulate-and-score kernel


def _first_stops(mask: np.ndarray, ends_run: np.ndarray) -> np.ndarray:
    """Column of each row's first stop in a block of alarm verdicts, -1 for none.

    ``ends_run`` marks the block's columns where an alarm ends the run:
    every column in single-shot mode, the onset columns in restart mode.
    """
    stops = mask & ends_run
    return np.where(stops.any(axis=1), stops.argmax(axis=1), -1)


def _simulate_chunk(
    lo: int,
    hi: int,
    *,
    rule: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    mode: Mode,
    seed,
    stream: int,
    record_at: np.ndarray | None,
):
    """Stop times of trials lo..hi-1, and the samples recorded per trial.

    A stop is 0 for an initial stop, the stopping time, or ``_CENSORED``
    when the horizon ran out first.  With ``record_at`` None the recorded
    sample is the stopping one; otherwise ``record_at`` holds increasing
    1-based times and each gets one column.  NaN marks a sample the trial
    never drew.  Blocks of ``(active trials x columns)`` samples are drawn
    until every trial has ended.
    """
    rng = trial_rng(seed, stream, lo // _CHUNK)
    n = hi - lo
    horizon = schedule.horizon
    stop = np.full(n, _CENSORED, dtype=np.int64)
    recorded = np.full(n if record_at is None else (n, record_at.size), np.nan)
    pi0 = getattr(rule, "initial_stop_prob", 0.0)
    if pi0 > 0.0:
        stop[rng.random(n) < pi0] = 0
    is_f1 = np.zeros(horizon, dtype=bool)
    is_f1[schedule.affected_times() - 1] = True
    if mode == "restart":
        ends_run = np.zeros(horizon, dtype=bool)
        ends_run[np.asarray(schedule.onsets, dtype=np.int64) - 1] = True
    else:
        ends_run = np.ones(horizon, dtype=bool)
    eta = getattr(rule, "eta", None)
    block = _MIN_BLOCK if eta is None else max(_MIN_BLOCK, math.ceil(eta))
    active = np.flatnonzero(stop == _CENSORED)
    t0 = 0
    while active.size and t0 < horizon:
        nb = min(block, horizon - t0, max(1, _MAX_BLOCK_SAMPLES // active.size))
        x = np.asarray(pair.sample("nominal", rng, (active.size, nb)), dtype=float)
        f1_cols = np.flatnonzero(is_f1[t0 : t0 + nb])
        if f1_cols.size:
            x[:, f1_cols] = pair.sample("alternative", rng, (active.size, f1_cols.size))
        times = np.broadcast_to(np.arange(t0 + 1, t0 + nb + 1, dtype=np.int64), x.shape)
        first = _first_stops(rule.alarm_mask(times, x, rng), ends_run[t0 : t0 + nb])
        done = first >= 0
        if record_at is None:
            recorded[active[done]] = x[done, first[done]]
        else:
            a, b = np.searchsorted(record_at, (t0, t0 + nb), side="right")
            recorded[active, a:b] = x[:, record_at[a:b] - t0 - 1]
        stop[active[done]] = t0 + 1 + first[done]
        active = active[~done]
        t0 += nb
        block *= 2
    return stop, recorded


def _simulate(
    rule: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    mode: Mode,
    n_trials: int,
    seed,
    stream: int,
    *,
    n_workers: int = 1,
    record_at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial stops and recorded samples (see :func:`_simulate_chunk`)."""
    if mode not in ("single_shot", "restart"):
        raise ValueError(f"unknown mode {mode!r}")
    fn = partial(
        _simulate_chunk,
        rule=rule,
        pair=pair,
        schedule=schedule,
        mode=mode,
        seed=seed,
        stream=stream,
        record_at=record_at,
    )
    parts = _map_chunks(fn, n_trials, n_workers)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


class _Scores(NamedTuple):
    """Monitored runs scored from their stops.

    ``hits[i]`` counts runs that stopped exactly on onset i and
    ``survivors[i]`` runs still going, undetected, when it arrived.
    ``detected_at`` is per trial the index of the onset the run stopped on
    (-1 for none), ``missed`` the onsets it passed before its end.
    """

    hits: np.ndarray
    survivors: np.ndarray
    detected_at: np.ndarray
    missed: np.ndarray


def _score(stop: np.ndarray, schedule: ChangeSchedule) -> _Scores:
    # A restart run stops only on an onset, so every onset before its end
    # passed with no alarm at it; a single-shot run ends at its first alarm.
    # Either way the onsets before the end are the missed ones.
    onsets = np.asarray(schedule.onsets, dtype=np.int64)
    end = np.where(stop == _CENSORED, schedule.horizon + 1, stop)
    missed = np.searchsorted(onsets, end)
    reached = np.searchsorted(onsets, end, side="right")
    detected = reached > missed
    survivors = np.cumsum(np.bincount(reached, minlength=onsets.size + 1)[::-1])[::-1][1:]
    hits = np.bincount(missed[detected], minlength=onsets.size)
    return _Scores(hits, survivors, np.where(detected, missed, -1), missed)


# ---------------------------------------------------------------------------
# Pure-nominal run-length simulation (false-alarm side)


def simulate_run_lengths(
    rule: StoppingRule,
    pair: DistributionPair,
    n_trials: int,
    max_horizon: int,
    seed,
    *,
    n_workers: int = 1,
) -> RunLengthSample:
    """Run the rule on pure-F0 streams; collect stopping times and the
    likelihood ratio of the stopping sample.  Runs that reach the horizon
    without alarming are censored: counted, excluded from the arrays."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if max_horizon < 1:
        raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
    stop, x_stop = _simulate(
        rule,
        pair,
        ChangeSchedule(onsets=(), duration=1, horizon=max_horizon),
        "single_shot",
        n_trials,
        seed,
        STREAM_RUN_LENGTH,
        n_workers=n_workers,
    )
    keep = stop != _CENSORED
    taus = stop[keep]
    lrs = np.zeros(taus.size)
    moved = taus > 0
    lrs[moved] = np.exp(pair.log_likelihood_ratio(x_stop[keep][moved]))
    return RunLengthSample(taus=taus.astype(float), lrs=lrs, censored=int((~keep).sum()))


def estimate_arl(
    detector: StoppingRule,
    pair: DistributionPair,
    n_trials: int,
    max_horizon: int,
    seed,
    *,
    n_workers: int = 1,
    sample: RunLengthSample | None = None,
) -> ArlEstimate:
    """Mean run length to a false alarm over pure-F0 trials.

    For a calibrated detector the horizon must be at least 10x eta, keeping
    the censoring probability (and hence the exclusion bias) below ~e^-10.
    Pass a precomputed ``sample`` to reuse one simulation for several
    estimators.
    """
    eta = getattr(detector, "eta", None)
    if eta is not None and max_horizon < 10 * eta:
        raise ValueError(
            f"max_horizon {max_horizon} is below 10 * eta = {10 * eta:g}; "
            "censoring would bias the run-length mean"
        )
    if sample is None:
        sample = simulate_run_lengths(
            detector, pair, n_trials, max_horizon, seed, n_workers=n_workers
        )
    mean, se = _mean_se(sample.taus)
    return ArlEstimate(mean, se, sample.censored)


def estimate_optimality_ceiling(
    stopping_rule: StoppingRule,
    pair: DistributionPair,
    s: int,
    n_trials: int,
    max_horizon: int,
    seed,
    *,
    n_workers: int = 1,
    sample: RunLengthSample | None = None,
) -> Estimate:
    """The optimality ceiling s * E0[l_tau] / E0[tau] for any plug-in rule.

    Both expectations are estimated under pure F0 from the same runs;
    censored runs are excluded from both means.  The standard error of the
    ratio comes from the delta method with the empirical covariance of
    (l_tau, tau).
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if sample is None:
        sample = simulate_run_lengths(
            stopping_rule, pair, n_trials, max_horizon, seed, n_workers=n_workers
        )
    n = sample.n
    if n == 0:
        raise DegenerateEstimateError("all runs were censored; cannot form the bound")
    mean_lr = float(sample.lrs.mean())
    mean_tau = float(sample.taus.mean())
    value = s * mean_lr / mean_tau
    if n < 2 or value == 0.0:
        return Estimate(value, 0.0)
    var_lr = float(sample.lrs.var(ddof=1))
    var_tau = float(sample.taus.var(ddof=1))
    cov = float(np.cov(sample.lrs, sample.taus, ddof=1)[0, 1])
    rel_var = (
        var_lr / mean_lr**2 + var_tau / mean_tau**2 - 2.0 * cov / (mean_lr * mean_tau)
    ) / n
    se = abs(value) * math.sqrt(max(rel_var, 0.0))
    return Estimate(value, se)


def geometric_gof_pvalue(taus: np.ndarray, p: float) -> float:
    """Chi-square goodness of fit of positive run lengths against a
    geometric law with success probability p (known, not fitted).

    Bins 1, 2, ... are merged from the right into a single tail bin so
    every expected count is at least 5.
    """
    min_expected = 5.0
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    taus = np.asarray(taus)
    if taus.size == 0 or (taus < 1).any():
        raise ValueError("taus must be a nonempty array of positive run lengths")
    if p == 1.0:
        return 1.0 if (taus == 1).all() else 0.0
    n = taus.size
    k_max = 1
    while n * p * (1.0 - p) ** k_max >= min_expected:
        k_max += 1
    # bins: {1}, {2}, ..., {k_max}, then the tail {k_max+1, ...}
    observed = np.bincount(np.minimum(taus.astype(np.int64), k_max + 1), minlength=k_max + 2)[1:]
    expected = np.array(
        [n * p * (1.0 - p) ** (k - 1) for k in range(1, k_max + 1)]
        + [n * (1.0 - p) ** k_max]
    )
    if expected[-1] < min_expected:
        observed = np.concatenate([observed[:-2], [observed[-2] + observed[-1]]])
        expected = np.concatenate([expected[:-2], [expected[-2] + expected[-1]]])
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = len(expected) - 1
    from scipy import stats as scipy_stats  # deferred: scipy.stats dominates the import time

    return float(scipy_stats.chi2.sf(stat, df))


# ---------------------------------------------------------------------------
# Monitored runs over schedules


def monitor_sequence(
    rule: StoppingRule,
    x: np.ndarray,
    schedule: ChangeSchedule,
    mode: Mode = "single_shot",
    rng: np.random.Generator | None = None,
) -> TrialOutcome:
    """Score one concrete realization against its ground-truth schedule.

    ``single_shot`` stops at the first alarm of any kind.  ``restart``
    logs a false alarm and keeps monitoring from the next sample (the rule
    is per-sample, so nothing carries over), terminating at the first alarm
    that lands exactly on an onset, or at the end of the data.
    """
    if mode not in ("single_shot", "restart"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    if x.size != schedule.horizon:
        raise ValueError(
            f"sequence length {x.size} does not match schedule horizon {schedule.horizon}"
        )
    if rng is None:
        rng = np.random.default_rng()
    onsets = set(schedule.onsets)
    times = np.arange(1, schedule.horizon + 1, dtype=np.int64)
    mask = rule.alarm_mask(times, x, rng)
    alarm_times = [int(t) for t in times[mask]]
    alarms: list[tuple[int, str]] = []
    first_detection = None
    tau: int | None = None
    for t in alarm_times:
        kind = "true_onset" if t in onsets else "false_alarm"
        alarms.append((t, kind))
        if mode == "single_shot":
            tau = t
            if kind == "true_onset":
                first_detection = t
            break
        if kind == "true_onset":
            first_detection = t
            tau = t
            break
    end = first_detection if first_detection is not None else (
        tau if tau is not None else schedule.horizon + 1
    )
    if mode == "restart":
        alarmed = set(alarm_times)
        missed = sum(1 for g in schedule.onsets if g < end and g not in alarmed)
    else:
        missed = sum(1 for g in schedule.onsets if g < end)
    return TrialOutcome(
        tau=tau,
        alarms=tuple(alarms),
        first_detection_time=first_detection,
        missed_onsets_before_detection=missed,
    )


def run_monitoring(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    mode: Mode,
    seed,
) -> TrialOutcome:
    """Generate one stream for the schedule and score a monitored run on it.

    The stream is a standalone draw from ``trial_rng(seed, STREAM_MONITOR,
    0)``; it does not replay a trial of an estimator, whose trials share
    one generator per chunk.
    """
    rng = trial_rng(seed, STREAM_MONITOR, 0)
    pi0 = getattr(detector, "initial_stop_prob", 0.0)
    if pi0 > 0.0 and rng.random() < pi0:
        return TrialOutcome(
            tau=0, alarms=(), first_detection_time=None, missed_onsets_before_detection=0
        )
    x = generate_sequence(pair, schedule, rng)
    return monitor_sequence(detector, x, schedule, mode, rng)


# ---------------------------------------------------------------------------
# Criteria estimators


def _check_on_degenerate(on_degenerate: str) -> None:
    if on_degenerate not in ("raise", "exclude"):
        raise ValueError(f"on_degenerate must be 'raise' or 'exclude', got {on_degenerate!r}")


def _pollak_from_counts(
    hits: np.ndarray,
    trials: np.ndarray,
    survivors: np.ndarray,
    onsets: tuple[int, ...],
    min_survivors: int,
    on_degenerate: str,
) -> PollakEstimate:
    """Sum the per-onset terms ``hits / trials`` (binomial standard errors)
    over the onsets reached by at least ``min_survivors`` trials."""
    per_onset = []
    degenerate = []
    total = 0.0
    var = 0.0
    for i, onset in enumerate(onsets):
        if int(survivors[i]) < min_survivors:
            degenerate.append(onset)
            per_onset.append(Estimate(math.nan, math.nan))
            continue
        m = int(trials[i])
        p = float(hits[i]) / m
        se = _binomial_se(p, m)
        per_onset.append(Estimate(p, se))
        total += p
        var += se * se
    if degenerate and on_degenerate == "raise":
        raise DegenerateEstimateError(
            f"onsets {degenerate} were reached by fewer than {min_survivors} trials; "
            "their conditional detection probability is not estimable "
            "(pass on_degenerate='exclude' to drop them from the sum)"
        )
    return PollakEstimate(
        value=total,
        std_error=math.sqrt(var),
        per_onset=tuple(per_onset),
        survivors=tuple(int(v) for v in survivors),
        degenerate_onsets=tuple(degenerate),
    )


def estimate_pollak(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    n_trials: int,
    seed,
    *,
    mode: Mode = "single_shot",
    min_survivors: int = 100,
    on_degenerate: str = "raise",
    n_workers: int = 1,
) -> PollakEstimate:
    """Sum over onsets of P(stop exactly at the onset | still running there).

    Direct conditioning: each onset's term is the detected fraction among
    the trials that reached it.  For memoryless rules consecutive terms are
    uncorrelated (the conditional law after surviving an onset does not
    depend on how), so the summed variance is the sum of the per-term
    binomial variances.

    The worst case over schedules is not searched: for a memoryless rule
    on unit-duration changes every term is schedule-invariant, so any
    schedule attains it (property-tested, not assumed silently).
    """
    _check_on_degenerate(on_degenerate)
    if schedule.s == 0:
        return PollakEstimate(0.0, 0.0, (), (), ())
    stop, _ = _simulate(
        detector, pair, schedule, mode, n_trials, seed, STREAM_MONITOR, n_workers=n_workers
    )
    scores = _score(stop, schedule)
    return _pollak_from_counts(
        scores.hits, scores.survivors, scores.survivors, schedule.onsets, min_survivors,
        on_degenerate,
    )


def estimate_conditional_detection(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    index: int,
    n_trials: int,
    seed,
    *,
    method: Literal["direct", "onset_sample"] = "direct",
    min_survivors: int = 100,
    n_workers: int = 1,
) -> Estimate:
    """P(stop exactly at onset #index | the run reaches it); index is 1-based.

    ``direct`` simulates single-shot runs and conditions on survival.
    ``onset_sample`` exploits memorylessness (valid for memoryless rules
    only, any positive duration): survival carries no information, so the
    conditional probability is the alarm probability of one transient
    sample; it draws that sample directly.
    """
    if not 1 <= index <= schedule.s:
        raise ValueError(f"index must be in 1..{schedule.s}, got {index}")
    onset = schedule.onsets[index - 1]
    if method == "onset_sample":
        if not getattr(detector, "memoryless", False):
            raise ValueError("onset_sample shortcut requires a memoryless rule")
        rng = trial_rng(seed, STREAM_ONSET, index)
        x = pair.sample("alternative", rng, n_trials)
        times = np.full(n_trials, onset, dtype=np.int64)
        p = float(detector.alarm_mask(times, x, rng).mean())
        return Estimate(p, _binomial_se(p, n_trials))
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    est = estimate_pollak(
        detector,
        pair,
        schedule,
        n_trials,
        seed,
        mode="single_shot",
        min_survivors=min_survivors,
        on_degenerate="raise",
        n_workers=n_workers,
    )
    return est.per_onset[index - 1]


def estimate_lorden(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    n_trials: int,
    seed,
    *,
    min_survivors: int = 100,
    on_degenerate: str = "raise",
    n_workers: int = 1,
) -> PollakEstimate:
    """The history-worst-case variant of the conditional-detection sum.

    For a memoryless rule the conditional probability is constant over
    pre-onset histories, so the worst case equals the plain conditional and
    this returns exactly :func:`estimate_pollak`'s result, by construction.

    For non-memoryless rules the essential infimum over histories is not
    directly simulable; it is approximated by the minimum over
    ``_HISTORY_BINS`` (4) quantile bins of the last pre-onset sample.  That
    is a labeled approximation, not an exact worst case.  One simulation
    serves every onset; ``survivors`` counts the trials that reached each,
    and an onset needs at least ``max(min_survivors, 2 * _HISTORY_BINS)``.
    """
    _check_on_degenerate(on_degenerate)
    if getattr(detector, "memoryless", False):
        return estimate_pollak(
            detector,
            pair,
            schedule,
            n_trials,
            seed,
            mode="single_shot",
            min_survivors=min_survivors,
            on_degenerate=on_degenerate,
            n_workers=n_workers,
        )
    trials, hits = _history_bins(
        detector, pair, schedule, schedule.onsets, n_trials, seed, n_workers
    )
    # empty bins never win; argmin takes the first of equally bad bins
    p = np.divide(hits, trials, out=np.full(trials.shape, np.inf), where=trials > 0)
    worst = (np.arange(schedule.s), p.argmin(axis=1))
    return _pollak_from_counts(
        hits[worst], trials[worst], trials.sum(axis=1), schedule.onsets,
        max(min_survivors, 2 * _HISTORY_BINS), on_degenerate,
    )


def _history_bins(detector, pair, schedule, onsets, n_trials, seed, n_workers=1):
    """Trials that reached each of ``onsets`` and the detections at it, in
    each of ``_HISTORY_BINS`` (4) quantile bins of the last pre-onset sample:
    two ``(len(onsets), 4)`` count arrays from one simulation for all onsets."""
    onsets = np.asarray(onsets, dtype=np.int64)
    trials = np.zeros((onsets.size, _HISTORY_BINS), dtype=np.int64)
    hits = np.zeros_like(trials)
    if onsets.size == 0:
        return trials, hits
    if onsets.min() < 2:
        raise ValueError("history conditioning needs at least one pre-onset sample")
    stop, feats = _simulate(
        detector,
        pair,
        schedule,
        "single_shot",
        n_trials,
        seed,
        STREAM_HISTORY,
        n_workers=n_workers,
        record_at=onsets - 1,
    )
    edges = np.linspace(0, 1, _HISTORY_BINS + 1)[1:-1]
    for k, onset in enumerate(onsets):
        survived = (stop == _CENSORED) | (stop >= onset)
        f = feats[survived, k]
        if f.size:
            bins = np.searchsorted(np.quantile(f, edges), f)
            trials[k] = np.bincount(bins, minlength=_HISTORY_BINS)
            hits[k] = np.bincount(bins[stop[survived] == onset], minlength=_HISTORY_BINS)
    return trials, hits


def history_independence_pvalue(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    index: int,
    n_trials: int,
    seed,
) -> float:
    """Chi-square p-value for dependence of detection-at-onset on the last
    pre-onset sample, among trials that reached the onset, over
    ``_HISTORY_BINS`` (4) quantile bins of that sample.

    For a memoryless rule detection is independent of any pre-onset
    feature, so small p-values indicate a broken memorylessness contract.
    """
    onset = schedule.onsets[index - 1]
    (trials,), (hits,) = _history_bins(detector, pair, schedule, (onset,), n_trials, seed)
    if not trials.any():
        raise DegenerateEstimateError(f"no trial reached onset {onset}")
    table = np.stack([hits, trials - hits])[:, trials > 0]
    if table.shape[1] < 2 or table.sum(axis=1).min() == 0:
        return 1.0
    from scipy import stats as scipy_stats  # deferred, as in geometric_gof_pvalue

    return float(scipy_stats.chi2_contingency(table)[1])


def evaluate_criteria(
    detector: ShewhartDetector,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    *,
    n_trials: int,
    seed,
    mode: Mode = "restart",
    min_survivors: int = 20,
    on_degenerate: str = "exclude",
    n_workers: int = 1,
) -> CriteriaReport:
    """Full criteria report for one calibrated detector on one schedule.

    Monitored-run quantities come from ``n_trials`` runs in the requested
    mode; the run-length mean and the optimality ceiling come from a
    separate pure-F0 simulation of ``n_trials`` runs over a horizon of
    ``max(int(20 * eta), 1000)``.

    In restart mode the conditional-detection terms condition on "no
    detection before the onset" (false alarms do not end a restart run),
    which for a memoryless rule estimates the same conditional as the
    single-shot run.
    """
    _check_on_degenerate(on_degenerate)
    stop, _ = _simulate(
        detector, pair, schedule, mode, n_trials, seed, STREAM_MONITOR, n_workers=n_workers
    )
    scores = _score(stop, schedule)
    detect_any = float((scores.detected_at >= 0).mean())
    detect_first = float((scores.detected_at == 0).mean())
    pollak = _pollak_from_counts(
        scores.hits, scores.survivors, scores.survivors, schedule.onsets, min_survivors,
        on_degenerate,
    )
    avg_missed = _mean_se(scores.missed.astype(float))
    horizon = max(int(20 * detector.eta), 1000)
    sample = simulate_run_lengths(detector, pair, n_trials, horizon, seed, n_workers=n_workers)
    bound = estimate_optimality_ceiling(
        detector, pair, schedule.s, sample.n, horizon, seed, sample=sample
    )
    return CriteriaReport(
        pollak_estimate=Estimate(pollak.value, pollak.std_error),
        arl_to_false_alarm=_mean_se(sample.taus),
        optimality_ceiling=bound,
        detect_first_prob=Estimate(detect_first, _binomial_se(detect_first, n_trials)),
        detect_any_prob=Estimate(detect_any, _binomial_se(detect_any, n_trials)),
        avg_missed=avg_missed,
        n_trials=n_trials,
        mode=mode,
        arl_censored=sample.censored,
        degenerate_onsets=pollak.degenerate_onsets,
    )


# ---------------------------------------------------------------------------
# Sweep rows (the report schema shared with the experiment harness)


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.17g}"


@dataclass(frozen=True)
class CurveRow:
    """One report row; its fields, in order, are the CSV columns."""

    eta: float
    mu1: float
    s: int
    T: int
    mode: str
    detect_first: float
    detect_first_se: float
    detect_any: float
    detect_any_se: float
    avg_missed: float
    avg_missed_se: float
    arl: float
    arl_se: float
    pollak: float
    pollak_se: float
    bound: float
    bound_se: float
    n_trials: int
    seed: int

    def to_csv_line(self) -> str:
        return ",".join(_csv_cell(getattr(self, f.name)) for f in fields(self))


CSV_COLUMNS = ",".join(f.name for f in fields(CurveRow))


def detect_first_any_curves(
    pair: DistributionPair,
    schedule: ChangeSchedule,
    eta_list,
    n_trials: int,
    mode: Mode,
    seed,
    *,
    n_workers: int = 1,
) -> list[CurveRow]:
    """One report row per eta: detect-first / detect-any probabilities,
    missed-onset averages, the run-length mean, the conditional-detection
    sum, and the optimality ceiling, all from independent trials.  A row's
    ``seed`` is the entropy of ``seed`` (0 when that is not an int)."""
    eta_list = list(eta_list)
    if not eta_list:
        raise ValueError("eta_list must be nonempty")
    entropy = _seed_sequence(seed).entropy
    label = entropy if isinstance(entropy, int) else 0
    mu1 = float(getattr(pair, "mean1", math.nan))
    rows = []
    for gi, eta in enumerate(eta_list):
        det = calibrate(pair, float(eta))
        rep = evaluate_criteria(
            det, pair, schedule, n_trials=n_trials, seed=_seed_sequence(seed, gi), mode=mode,
            n_workers=n_workers,
        )
        rows.append(
            CurveRow(
                float(eta), mu1, schedule.s, schedule.duration, mode,
                # each estimate fills its (value, value_se) column pair
                *rep.detect_first_prob, *rep.detect_any_prob, *rep.avg_missed,
                *rep.arl_to_false_alarm, *rep.pollak_estimate, *rep.optimality_ceiling,
                n_trials, label,
            )
        )
    return rows
