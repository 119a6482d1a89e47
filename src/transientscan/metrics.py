"""Monte Carlo estimation of every monitored-run performance quantity.

Estimated quantities, each with a standard error:

  * run length to a false alarm on a pure-nominal stream (its mean is the
    calibration target ``eta``),
  * the per-onset conditional detection probability
    ``P(tau = onset | tau >= onset)`` and its sum over a schedule (the
    probability-maximizing objective; the sum of conditional probabilities
    may exceed 1 and is reported raw); it is also the worst case over
    pre-onset histories (Lorden), because a protocol rule's verdict reads
    only its time, its own sample and independent randomness,
  * the optimality ceiling ``s * E0[l_tau] / E0[tau]`` that no rule with
    the same run-length budget can beat, usable as an oracle against any
    plug-in stopping rule,
  * detect-first / detect-any probabilities and missed-onset counts from
    monitored runs.

The module needs numpy only.  The chi-square checks and the alarm-by-alarm
scorer of one realization, which the tests hold these estimators to, live
in ``tests/oracles.py``.

Reproducibility contract: the trial range is cut into fixed chunks of
``_CHUNK`` trials, and each chunk draws from one generator keyed by
``(seed, stream tag, chunk index)``.  A chunk draws the initial-stop
uniforms first.  A memoryless rule on columns of one law (pure-F0 runs, and
restart runs, which see only F1 onset samples) takes the flat layout: the
chunk's trials cut consecutive segments, in trial order, from one stream
drawn a buffer at a time, each buffer followed by whatever ``alarm_mask``
consumes.  Every other run takes the block layout: one block of samples
per step for the trials still running (consecutive time steps, or in
restart mode the onset samples), then whatever ``alarm_mask`` consumes.
Aggregation reduces per-trial records in trial order, and one call runs
its chunks in order in one process.  Parallel work is split by the rows of
a sweep (:func:`detect_first_any_curves`), each row whole in one process,
so a report is bit-identical for any worker count.

Standard errors: exact binomial for probabilities, sample standard
deviation for means, delta method for the bound ratio.  Each run-length
sample takes its moments once; they serve its ARL and the ceiling of every
schedule, which is linear in ``s``.

Fixed costs per call: a schedule derives its onset array and F1 column
mask once (read-only cached properties of :class:`ChangeSchedule`), and
every chunk and scoring pass reads them.  A call of one chunk returns that
chunk's arrays as they are.  Scoring is one pass over the stops: the
per-onset hits and survivors, each run's missed onsets, and from those
counts the conditional-detection sum; only :func:`estimate_pollak` also
builds the per-onset terms, which the criteria report does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial
from operator import attrgetter
from typing import Literal, NamedTuple

import numpy as np

from .detector import ShewhartDetector, StoppingRule, calibrate
from .distributions import DistributionPair
from .sequence_model import ChangeSchedule

Mode = Literal["single_shot", "restart"]

#: stream tags keying independent substreams under one master seed (tag 3
#: keys the history check that the tests run, so it is not reused here)
STREAM_RUN_LENGTH = 0
STREAM_MONITOR = 1
STREAM_SCHEDULE = 4

#: trials per generator: chunk boundaries are a fixed function of the trial
#: count only, and so are the streams each chunk draws
_CHUNK = 256
#: columns of a chunk's first block for rules without a run-length budget;
#: calibrated rules start at ``eta`` columns, their mean run length.  Also
#: the flat layout's first mean gap where ``eta`` does not give it
_MIN_BLOCK = 16
#: most samples one block draws (1 MiB of float64), whatever the block width
_MAX_BLOCK_SAMPLES = 1 << 17

_CENSORED = -1


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
    The estimators share :attr:`moments`, taken once per sample.
    """

    taus: np.ndarray
    lrs: np.ndarray
    censored: int

    @property
    def n(self) -> int:
        return int(self.taus.size)

    @cached_property
    def moments(self) -> tuple[float, float, float, float, float]:
        """``(mean_lr, mean_tau, var_lr, var_tau, cov)`` of ``(lrs, taus)``, with
        ``ddof=1`` spreads, bit-identical to the numpy reductions one by one.
        All NaN for an empty sample; the spreads are 0 for one run."""
        if self.n == 0:
            return (math.nan,) * 5
        x = np.stack((self.lrs, self.taus))
        mean = np.add.reduce(x, axis=1)
        mean /= self.n
        d = x - mean[:, None]
        dof = max(self.n - 1, 1)
        cov = np.dot(d, d.T)  # np.cov's own steps, so its last bit
        cov *= np.true_divide(1, dof)
        var = np.add.reduce(d * d, axis=1) / dof
        return (*mean.tolist(), *var.tolist(), float(cov[0, 1]))


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
class CriteriaReport:
    """All criteria estimates for one detector on one schedule."""

    pollak_estimate: Estimate
    arl_to_false_alarm: Estimate
    optimality_ceiling: Estimate
    detect_first_prob: Estimate
    detect_any_prob: Estimate
    avg_missed: Estimate
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


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0


def _mean_se(values: np.ndarray) -> Estimate:
    """Mean and its standard error from one mean: bit-identical to
    ``values.mean()`` and ``values.std(ddof=1) / sqrt(n)``, whose own steps
    these are (integer values sum exactly, as the float copy would)."""
    n = values.size
    mean = float(np.add.reduce(values, dtype=float)) / n
    if n < 2:
        return Estimate(mean, 0.0)
    d = values - mean
    return Estimate(mean, math.sqrt(float(np.add.reduce(d * d)) / (n - 1)) / math.sqrt(n))


# ---------------------------------------------------------------------------
# The simulate-and-score kernel


def _first_stops(mask: np.ndarray) -> np.ndarray:
    """Column of each row's first alarm in a block of verdicts, -1 for none."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), -1)


def _row_times(times: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The block's times, one row repeated over ``shape``: a read-only view,
    as ``np.broadcast_to`` gives, without its checks (half the cost)."""
    view = np.ndarray(shape, times.dtype, times, strides=(0, times.itemsize))
    view.flags.writeable = False
    return view


def _flat_stops(rule, pair, law: str, rng, n: int, limit: int, gap: float, keep_samples: bool):
    """Renewal runs of a memoryless rule on i.i.d. samples: ``n`` trials
    take consecutive segments of one flat stream, each ending at an alarm.

    Returns per trial the 0-based index within its segment of the stopping
    sample (-1 for a trial that saw ``limit`` samples without an alarm and
    consumed exactly those) and, with ``keep_samples``, that sample's value
    (else None).  Each buffer holds the remaining trials times the mean gap
    between alarms (``gap`` until an alarm is seen, then the observed
    samples per alarm), capped per trial at ``limit`` and in all at
    ``_MAX_BLOCK_SAMPLES``.
    """
    at = np.full(n, -1, dtype=np.int64)
    x_at = np.full(n, np.nan) if keep_samples else None
    zero = np.zeros(1, dtype=np.int64)
    zero.flags.writeable = False  # and so are the zero-stride times views of it
    done = carry = drawn = alarms = 0
    while done < n:
        if alarms:
            gap = drawn / alarms
        size = min(_MAX_BLOCK_SAMPLES, max(1, math.ceil((n - done) * min(gap, limit))))
        x = np.asarray(pair.sample(law, rng, size), dtype=float)
        times = np.ndarray(size, np.int64, zero, strides=(0,))  # as _row_times
        hit = rule.alarm_mask(times, x, rng).nonzero()[0]
        drawn += size
        alarms += hit.size
        # alarm-free samples before each alarm and after the last (the first
        # run continues the carry): a run of r holds r // limit censored
        # trials, then (before an alarm) one trial that stops on it after
        # r % limit samples
        runs = np.empty(hit.size + 1, dtype=np.int64)
        runs[:-1] = hit
        runs[-1] = size
        runs[1:] -= hit + 1
        runs[0] += carry
        censored, rest = np.divmod(runs, limit)
        ends = (censored + 1).cumsum()
        ends += done - 1  # trial of each stop, then the next trial
        k = ends[:-1].searchsorted(n)  # stops past the chunk's last trial are dropped
        at[ends[:k]] = rest[:k]
        if keep_samples:
            x_at[ends[:k]] = x[hit[:k]]
        done = int(ends[-1])
        carry = int(rest[-1])
    return at, x_at


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
    keep_samples: bool,
):
    """Stop times of trials lo..hi-1, and with ``keep_samples`` the stopping
    sample per trial (else None).

    A stop is 0 for an initial stop, the stopping time, or ``_CENSORED``
    when the horizon ran out first; the stopping sample of a run without
    one is NaN.  ``mode`` chooses the columns drawn, each able to end a
    run: every time step, or the onsets.  A chunk draws the initial-stop
    uniforms first.

    Flat layout: when every drawn column has one law (restart runs see only
    F1 onset samples, runs on an empty single-shot schedule only F0) and
    the rule is memoryless, a run is a renewal, so the chunk's trials take
    consecutive segments of one flat stream (see :func:`_flat_stops`); each
    buffer draws its samples, then whatever ``alarm_mask`` consumes.

    Block layout, otherwise: the trials still running are simulated
    together, one ``(trials x columns)`` block at a time; a block draws an
    F0 matrix whose affected columns are redrawn from F1 (restart: one F1
    matrix of onset samples), then whatever ``alarm_mask`` consumes.
    """
    rng = trial_rng(seed, stream, lo // _CHUNK)
    n = hi - lo
    stop = np.full(n, _CENSORED, dtype=np.int64)
    x_stop = np.full(n, np.nan) if keep_samples else None
    pi0 = getattr(rule, "initial_stop_prob", 0.0)
    if pi0 > 0.0:
        stop[rng.random(n) < pi0] = 0
    restart = mode == "restart"
    cols = schedule.onset_times - 1 if restart else np.arange(schedule.horizon)
    eta = getattr(rule, "eta", None)
    active = (stop == _CENSORED).nonzero()[0]
    one_law = restart or not schedule.onsets
    if one_law and getattr(rule, "memoryless", False):
        if cols.size:
            law = "alternative" if restart else "nominal"
            # eta is the mean gap of F0 runs; F1 alarms come sooner
            gap = _MIN_BLOCK if eta is None or restart else eta
            at, x_at = _flat_stops(
                rule, pair, law, rng, active.size, cols.size, gap, keep_samples
            )
            hit = (at >= 0).nonzero()[0]
            rows = active[hit]
            stop[rows] = cols[at[hit]] + 1
            if keep_samples:
                x_stop[rows] = x_at[hit]
        return stop, x_stop
    is_f1 = schedule.f1_columns
    block = _MIN_BLOCK if eta is None else max(_MIN_BLOCK, math.ceil(eta))
    c0 = 0
    while active.size and c0 < cols.size:
        nb = min(block, cols.size - c0, max(1, _MAX_BLOCK_SAMPLES // active.size))
        block_cols = cols[c0 : c0 + nb]
        if restart:
            x = np.asarray(pair.sample("alternative", rng, (active.size, nb)), dtype=float)
        else:
            x = np.asarray(pair.sample("nominal", rng, (active.size, nb)), dtype=float)
            f1_cols = is_f1[block_cols].nonzero()[0]
            if f1_cols.size:
                x[:, f1_cols] = pair.sample("alternative", rng, (active.size, f1_cols.size))
        first = _first_stops(rule.alarm_mask(_row_times(block_cols + 1, x.shape), x, rng))
        done = first >= 0
        hit = done.nonzero()[0]
        rows, at = active[hit], first[hit]
        if keep_samples:
            x_stop[rows] = x[hit, at]
        stop[rows] = block_cols[at] + 1
        active = active[~done]
        c0 += nb
        block *= 2
    return stop, x_stop


def _simulate(
    rule: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    mode: Mode,
    n_trials: int,
    seed,
    stream: int,
    keep_samples: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-trial stops and, with ``keep_samples``, stopping samples (see
    :func:`_simulate_chunk`).  A call of one chunk returns that chunk's
    arrays as they are."""
    if mode not in ("single_shot", "restart"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    kwargs = dict(
        rule=rule,
        pair=pair,
        schedule=schedule,
        mode=mode,
        seed=seed,
        stream=stream,
        keep_samples=keep_samples,
    )
    if n_trials <= _CHUNK:
        return _simulate_chunk(0, n_trials, **kwargs)
    parts = [_simulate_chunk(lo, hi, **kwargs) for lo, hi in _chunk_ranges(n_trials)]
    samples = np.concatenate([p[1] for p in parts]) if keep_samples else None
    return np.concatenate([p[0] for p in parts]), samples


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
    onsets = schedule.onset_times
    end = np.where(stop == _CENSORED, schedule.horizon + 1, stop)
    missed = onsets.searchsorted(end)
    reached = onsets.searchsorted(end, side="right")
    detected = reached > missed
    # runs that reached onset i: all but those that reached fewer than i + 1
    survivors = stop.size - np.bincount(reached, minlength=onsets.size + 1).cumsum()[:-1]
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
) -> RunLengthSample:
    """Run the rule on pure-F0 streams; collect stopping times and the
    likelihood ratio of the stopping sample.  Runs that reach the horizon
    without alarming are censored: counted, excluded from the arrays."""
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
        keep_samples=True,
    )
    keep = stop != _CENSORED
    censored = int(stop.size - np.count_nonzero(keep))
    if censored:
        stop, x_stop = stop[keep], x_stop[keep]
    lrs = np.zeros(stop.size)
    moved = stop > 0
    lrs[moved] = np.exp(pair.log_likelihood_ratio(x_stop[moved]))
    return RunLengthSample(taus=stop.astype(float), lrs=lrs, censored=censored)


def estimate_arl(
    detector: StoppingRule,
    pair: DistributionPair,
    n_trials: int,
    max_horizon: int,
    seed,
    *,
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
        sample = simulate_run_lengths(detector, pair, n_trials, max_horizon, seed)
    _, mean, _, var, _ = sample.moments
    se = math.sqrt(var) / math.sqrt(sample.n) if sample.n else math.nan
    return ArlEstimate(mean, se, sample.censored)


def estimate_optimality_ceiling(
    stopping_rule: StoppingRule,
    pair: DistributionPair,
    s: int,
    n_trials: int,
    max_horizon: int,
    seed,
    *,
    sample: RunLengthSample | None = None,
) -> Estimate:
    """The optimality ceiling s * E0[l_tau] / E0[tau] for any plug-in rule.

    Both expectations are estimated under pure F0 from the same runs;
    censored runs are excluded from both means.  The standard error of the
    ratio comes from the delta method with the empirical covariance of
    (l_tau, tau), both read from ``sample.moments``, taken once per sample.
    The ceiling is linear in ``s``: so is its standard error.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if sample is None:
        sample = simulate_run_lengths(stopping_rule, pair, n_trials, max_horizon, seed)
    n = sample.n
    if n == 0:
        raise DegenerateEstimateError("all runs were censored; cannot form the bound")
    mean_lr, mean_tau, var_lr, var_tau, cov = sample.moments
    if mean_tau == 0.0:
        raise DegenerateEstimateError(
            "every uncensored run was an initial stop (mean run length 0); "
            "cannot form the bound"
        )
    value = s * mean_lr / mean_tau
    if n < 2 or value == 0.0:
        return Estimate(value, 0.0)
    rel_var = (
        var_lr / mean_lr**2 + var_tau / mean_tau**2 - 2.0 * cov / (mean_lr * mean_tau)
    ) / n
    se = abs(value) * math.sqrt(max(rel_var, 0.0))
    return Estimate(value, se)


# ---------------------------------------------------------------------------
# Criteria estimators


def _check_degenerate_policy(on_degenerate: str, min_survivors: int) -> None:
    if on_degenerate not in ("raise", "exclude"):
        raise ValueError(f"on_degenerate must be 'raise' or 'exclude', got {on_degenerate!r}")
    if min_survivors < 1:
        # an onset no trial reached has no conditional detection to estimate
        raise ValueError(f"min_survivors must be >= 1, got {min_survivors}")


class _PollakSum(NamedTuple):
    """The conditional-detection sum and the per-onset terms it adds up:
    ``p`` and ``se`` hold the terms of the onsets where ``estimable``."""

    value: float
    std_error: float
    degenerate_onsets: tuple[int, ...]
    estimable: np.ndarray
    p: np.ndarray
    se: np.ndarray


def _pollak_sum(
    hits: np.ndarray,
    survivors: np.ndarray,
    onsets: np.ndarray | tuple[int, ...],
    min_survivors: int,
    on_degenerate: str,
) -> _PollakSum:
    """Sum the per-onset terms ``hits / survivors`` (binomial standard
    errors) over the onsets reached by at least ``min_survivors`` trials.

    The sums run in onset order (``cumsum``, not the pairwise ``sum``), so
    the last bit of the value and its standard error is fixed.
    """
    survivors = np.asarray(survivors)
    ok = survivors >= min_survivors
    m = survivors[ok]
    p = np.asarray(hits)[ok] / m
    se = np.sqrt(p * (1.0 - p) / m)
    total = float(p.cumsum()[-1]) if p.size else 0.0
    var = float((se * se).cumsum()[-1]) if p.size else 0.0
    degenerate = tuple(np.asarray(onsets)[~ok].tolist())
    if degenerate and on_degenerate == "raise":
        raise DegenerateEstimateError(
            f"onsets {list(degenerate)} were reached by fewer than {min_survivors} trials; "
            "their conditional detection probability is not estimable "
            "(pass on_degenerate='exclude' to drop them from the sum)"
        )
    return _PollakSum(total, math.sqrt(var), degenerate, ok, p, se)


def _pollak_from_counts(
    hits: np.ndarray,
    survivors: np.ndarray,
    onsets: np.ndarray | tuple[int, ...],
    min_survivors: int,
    on_degenerate: str,
) -> PollakEstimate:
    """:func:`_pollak_sum` with its per-onset terms, NaN where excluded."""
    total = _pollak_sum(hits, survivors, onsets, min_survivors, on_degenerate)
    terms = iter(map(Estimate, total.p.tolist(), total.se.tolist()))
    nan = Estimate(math.nan, math.nan)
    return PollakEstimate(
        value=total.value,
        std_error=total.std_error,
        per_onset=tuple(next(terms) if k else nan for k in total.estimable.tolist()),
        survivors=tuple(np.asarray(survivors).tolist()),
        degenerate_onsets=total.degenerate_onsets,
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
) -> PollakEstimate:
    """Sum over onsets of P(stop exactly at the onset | still running there).

    Direct conditioning: each onset's term is the detected fraction among
    the trials that reached it.  For memoryless rules consecutive terms are
    uncorrelated (the conditional law after surviving an onset does not
    depend on how), so the summed variance is the sum of the per-term
    binomial variances.

    The sum is also the worst case over pre-onset histories (Lorden 1971)
    for every rule the :class:`StoppingRule` protocol admits, memoryless or
    not: a verdict reads only its time, its own sample and independent
    randomness, so an onset's detection probability is the same whatever
    history reached it.  One onset's term is ``per_onset[index - 1]``; the
    conditional ``c(t)`` at one time ``t`` is the one-onset restart run
    ``estimate_pollak(rule, pair, ChangeSchedule((t,), 1, t), n, seed,
    mode="restart")``, which decides one F1 sample per trial at ``t``.

    The worst case over schedules is not searched: for a memoryless rule
    on unit-duration changes every term is schedule-invariant, so any
    schedule attains it (property-tested, not assumed silently).
    """
    _check_degenerate_policy(on_degenerate, min_survivors)
    if schedule.s == 0:
        return PollakEstimate(0.0, 0.0, (), (), ())
    stop, _ = _simulate(detector, pair, schedule, mode, n_trials, seed, STREAM_MONITOR)
    scores = _score(stop, schedule)
    return _pollak_from_counts(
        scores.hits, scores.survivors, schedule.onset_times, min_survivors, on_degenerate
    )


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
    _check_degenerate_policy(on_degenerate, min_survivors)
    stop, _ = _simulate(detector, pair, schedule, mode, n_trials, seed, STREAM_MONITOR)
    scores = _score(stop, schedule)
    # every detected run stopped on exactly one onset, counted in its hits
    detect_any = int(scores.hits.sum()) / n_trials
    detect_first = int(scores.hits[0]) / n_trials if scores.hits.size else 0.0
    pollak = _pollak_sum(
        scores.hits, scores.survivors, schedule.onset_times, min_survivors, on_degenerate
    )
    avg_missed = _mean_se(scores.missed)
    horizon = max(int(20 * detector.eta), 1000)
    sample = simulate_run_lengths(detector, pair, n_trials, horizon, seed)
    arl = estimate_arl(detector, pair, sample.n, horizon, seed, sample=sample)
    bound = estimate_optimality_ceiling(
        detector, pair, schedule.s, sample.n, horizon, seed, sample=sample
    )
    return CriteriaReport(
        pollak_estimate=Estimate(pollak.value, pollak.std_error),
        arl_to_false_alarm=Estimate(arl.mean, arl.std_error),
        optimality_ceiling=bound,
        detect_first_prob=Estimate(detect_first, _binomial_se(detect_first, n_trials)),
        detect_any_prob=Estimate(detect_any, _binomial_se(detect_any, n_trials)),
        avg_missed=avg_missed,
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
        return ",".join(map(_csv_cell, _row_cells(self)))


_COLUMNS = tuple(f.name for f in fields(CurveRow))
CSV_COLUMNS = ",".join(_COLUMNS)
#: a row's field values in column order
_row_cells = attrgetter(*_COLUMNS)


def _curve_row(schedule: ChangeSchedule, n_trials: int, mode: Mode, cell) -> CurveRow:
    """The row of :func:`detect_first_any_curves` for one ``(pair, seed, eta)`` cell."""
    pair, seed, eta = cell
    det = calibrate(pair, float(eta))
    rep = evaluate_criteria(det, pair, schedule, n_trials=n_trials, seed=seed, mode=mode)
    entropy = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
    mu1 = float(getattr(pair, "mean1", math.nan))
    return CurveRow(
        float(eta), mu1, schedule.s, schedule.duration, mode,
        # each estimate fills its (value, value_se) column pair
        *rep.detect_first_prob, *rep.detect_any_prob, *rep.avg_missed,
        *rep.arl_to_false_alarm, *rep.pollak_estimate, *rep.optimality_ceiling,
        n_trials, entropy if isinstance(entropy, int) else 0,
    )


def detect_first_any_curves(
    cells,
    schedule: ChangeSchedule,
    n_trials: int,
    mode: Mode,
    *,
    n_workers: int = 1,
) -> list[CurveRow]:
    """One report row per ``(pair, seed, eta)`` cell, in cell order:
    detect-first / detect-any probabilities, missed-onset averages, the
    run-length mean, the conditional-detection sum, and the optimality
    ceiling, all from independent trials under the cell's seed.  A row's
    ``seed`` is that seed's entropy (0 when that is not an int).

    With ``n_workers > 1`` the rows are split over one process pool; each
    row runs whole in one process, so the rows are the same for any worker
    count."""
    cells = list(cells)
    row = partial(_curve_row, schedule, n_trials, mode)
    if n_workers <= 1 or len(cells) < 2:
        return list(map(row, cells))
    from concurrent.futures import ProcessPoolExecutor  # deferred: it loads multiprocessing
    with ProcessPoolExecutor(max_workers=min(n_workers, len(cells))) as pool:
        return list(pool.map(row, cells))
