"""Reference computations the tests check the library against.

None of this is part of ``transientscan``: the library needs numpy only.

  * The scalar scoring path (:class:`TrialOutcome`, :func:`monitor_sequence`,
    :func:`run_monitoring`) scores one concrete realization alarm by alarm;
    the vectorized kernel in ``transientscan.metrics`` must agree with it
    run by run.
  * Two chi-square checks (scipy): :func:`geometric_gof_pvalue` fits run
    lengths against the geometric law, and
    :func:`history_independence_pvalue` tests a rule's verdict at an onset
    against the sample before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from transientscan import ChangeSchedule, DegenerateEstimateError, generate_sequence
from transientscan.metrics import STREAM_MONITOR, _chunk_ranges, _first_stops, trial_rng

#: stream tag of :func:`history_independence_pvalue` (the library's
#: estimators do not use it)
STREAM_HISTORY = 3
#: quantile bins of the last pre-onset sample in :func:`history_independence_pvalue`
HISTORY_BINS = 4


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


def monitor_sequence(
    rule, x, schedule: ChangeSchedule, mode="single_shot", rng=None
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
    alarms: list[tuple[int, str]] = []
    first_detection = None
    tau: int | None = None
    for t in times[mask].tolist():
        kind = "true_onset" if t in onsets else "false_alarm"
        alarms.append((t, kind))
        if kind == "true_onset":
            first_detection = t
        if mode == "single_shot" or kind == "true_onset":
            tau = t
            break
    # every onset before the run's end passed with no alarm at it (a restart
    # run ends on the first onset it alarms at)
    end = tau if tau is not None else schedule.horizon + 1
    return TrialOutcome(
        tau=tau,
        alarms=tuple(alarms),
        first_detection_time=first_detection,
        missed_onsets_before_detection=sum(1 for g in schedule.onsets if g < end),
    )


def run_monitoring(rule, pair, schedule: ChangeSchedule, mode, seed) -> TrialOutcome:
    """Generate one stream for the schedule and score a monitored run on it.

    The stream is a standalone draw from ``trial_rng(seed, STREAM_MONITOR,
    0)``; it does not replay a trial of an estimator, whose trials share
    one generator per chunk.
    """
    rng = trial_rng(seed, STREAM_MONITOR, 0)
    pi0 = getattr(rule, "initial_stop_prob", 0.0)
    if pi0 > 0.0 and rng.random() < pi0:
        return TrialOutcome(
            tau=0, alarms=(), first_detection_time=None, missed_onsets_before_detection=0
        )
    x = generate_sequence(pair, schedule, rng)
    return monitor_sequence(rule, x, schedule, mode, rng)


def geometric_gof_pvalue(taus, p: float) -> float:
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
    return float(scipy_stats.chi2.sf(stat, len(expected) - 1))


def history_independence_pvalue(
    rule, pair, schedule: ChangeSchedule, index: int, n_trials: int, seed
) -> float:
    """Chi-square p-value for dependence of detection-at-onset on the last
    pre-onset sample, among single-shot trials that reached the onset, over
    ``HISTORY_BINS`` (4) quantile bins of that sample.

    Independence holds for every rule that keeps the ``StoppingRule``
    protocol's elementwise contract, memoryless or not: a verdict reads
    only its time, its own sample and independent randomness.  A small
    p-value flags a rule whose verdicts read beyond their own sample.

    Trials run in chunks as the estimators' do: chunk ``c`` draws from
    ``trial_rng(seed, STREAM_HISTORY, c)`` its initial-stop uniforms, then
    one ``(trials x horizon)`` F0 matrix for the trials still running,
    whose affected columns are redrawn from F1, and the rule decides the
    whole matrix in one ``alarm_mask`` call.
    """
    if not 1 <= index <= schedule.s:
        raise ValueError(f"index must be in 1..{schedule.s}, got {index}")
    onset = schedule.onsets[index - 1]
    if onset < 2:
        raise ValueError("history conditioning needs at least one pre-onset sample")
    stops, lasts = [], []
    pi0 = getattr(rule, "initial_stop_prob", 0.0)
    f1_cols = schedule.f1_columns.nonzero()[0]
    times = np.arange(1, schedule.horizon + 1)
    for c, (lo, hi) in enumerate(_chunk_ranges(n_trials)):
        rng = trial_rng(seed, STREAM_HISTORY, c)
        stop = np.full(hi - lo, -1)  # -1: no alarm within the horizon
        last = np.full(hi - lo, np.nan)
        if pi0 > 0.0:
            stop[rng.random(hi - lo) < pi0] = 0
        active = (stop == -1).nonzero()[0]
        x = np.asarray(pair.sample("nominal", rng, (active.size, schedule.horizon)), dtype=float)
        if f1_cols.size:
            x[:, f1_cols] = pair.sample("alternative", rng, (active.size, f1_cols.size))
        first = _first_stops(rule.alarm_mask(np.broadcast_to(times, x.shape), x, rng))
        stop[active] = np.where(first >= 0, first + 1, -1)
        last[active] = x[:, onset - 2]
        stops.append(stop)
        lasts.append(last)
    stop, last = np.concatenate(stops), np.concatenate(lasts)
    survived = (stop == -1) | (stop >= onset)
    if not survived.any():
        raise DegenerateEstimateError(f"no trial reached onset {onset}")
    f = last[survived]
    bins = np.searchsorted(np.quantile(f, np.linspace(0, 1, HISTORY_BINS + 1)[1:-1]), f)
    trials = np.bincount(bins, minlength=HISTORY_BINS)
    hits = np.bincount(bins[stop[survived] == onset], minlength=HISTORY_BINS)
    table = np.stack([hits, trials - hits])[:, trials > 0]
    if table.shape[1] < 2 or table.sum(axis=1).min() == 0:
        return 1.0
    return float(scipy_stats.chi2_contingency(table)[1])
