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
``(seed, stream tag, chunk index)``.  A chunk of a rule with an initial
stop draws its initial-stop uniforms first; a rule without one draws none.
F0 runs of a memoryless rule and every restart run take the flat layout,
the trials' consecutive segments of one stream; single-shot runs with
onsets and F0 runs of a time-dependent rule take the block layout, time
steps in blocks (both in :func:`_runs`; a call sizes the first buffer or
block once, from the rule's alarm laws).  The flat samples of a rule whose
``alarm_mask`` draws nothing do not depend on the buffer sizes: each trial
cuts the same samples from its chunk's stream whatever the buffer ends.
Block widths do decide which trial takes which sample.  A rule that
declares ``reads_samples = False`` draws no sample in either layout, only
what its ``alarm_mask`` consumes; once the chunk's stops are known, its
stopped runs draw their stopping samples, one F0 draw for those stopped
at unaffected times and then one F1 draw for those stopped at affected
times, each in trial order.
The terms of :func:`estimate_pollak` take no runs: a chunk draws one F1
matrix of its trials at the onset times (at most ``_MAX_BLOCK_SAMPLES`` per
draw; none for a rule that reads no sample), each draw followed by
whatever ``alarm_mask`` consumes.
Aggregation reduces per-trial records in trial order, and one call runs
its chunks in order in one process.

Standard errors: exact binomial for probabilities, sample standard
deviation for means, delta method for the bound ratio.  Each run-length
sample takes its moments once for its ARL and the ceiling of every schedule
(linear in ``s``); both refuse a sample whose censored count does not fit a
censoring probability of at most e^-10 (exact binomial tail at level 1e-3),
which ``horizon >= 10 * eta`` meets for a calibrated rule.

Fixed costs per call: a schedule derives its onset array, scoring edges,
restart stop table and F1 column mask once (read-only cached properties of
:class:`ChangeSchedule`); a sweep's rows share what they can: F0 runs at
one horizon share one schedule, and a cell's seed is its entropy and spawn
key (``_SpawnKey``), no SeedSequence; for int entropy a chunk's generator
is seeded from cached seed words (:func:`trial_rng`); a rule with no
initial stop keeps no initial-stop bookkeeping; scoring is one search of
the stops among the scoring edges (:func:`_rank_counts`); and
:func:`estimate_pollak` counts each onset's alarms along one contiguous
row of the transposed verdicts (half the cost of a strided column sum at
s = 3), takes those counts as its hits when the call is one chunk and one
block (no accumulator), walks them once in Python floats (on the few
onsets of a criterion-3 call that is cheaper than numpy calls on
three-element arrays) and returns a :class:`PollakEstimate` built as a
plain tuple.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Iterator, Literal, NamedTuple, get_args

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .detector import ShewhartDetector, StoppingRule, calibrate
from .distributions import DistributionPair, _count
from .sequence_model import ChangeSchedule

Mode = Literal["single_shot", "restart"]
_MODES = get_args(Mode)

#: stream tags keying independent substreams under one master seed (tag 3
#: keys the history check that the tests run, so it is not reused here)
STREAM_RUN_LENGTH = 0
STREAM_MONITOR = 1
STREAM_SCHEDULE = 4

#: trials per generator: chunk boundaries are a fixed function of the trial
#: count only, and so are the streams each chunk draws
_CHUNK = 256
#: columns of a chunk's first block, and the flat layout's first mean gap,
#: for a rule that states no alarm laws (``alarm_probs``)
_MIN_BLOCK = 16
#: most samples one block draws (1 MiB of float64), whatever the block width
_MAX_BLOCK_SAMPLES = 1 << 17
#: chunk keys whose seed words stay cached (:func:`trial_rng`): criterion 3's
#: 782 at 100,000 trials fit
_SEED_CACHE = 1024

_ZERO = np.zeros(1, dtype=np.int64)
_ZERO.flags.writeable = False  # and so is every zero-stride view of it
#: the times a flat buffer passes to ``alarm_mask``: read-only zeros, sliced
#: to the buffer's size
_NO_TIMES = np.ndarray(_MAX_BLOCK_SAMPLES, np.int64, _ZERO, strides=(0,))

_CENSORED = -1
#: the censoring probability a run-length sample may show (the bias bound of
#: dropping its censored runs), and the level at which its count refutes it
_MAX_CENSORING = math.exp(-10)
_CENSORING_LEVEL = 1e-3


class DegenerateEstimateError(RuntimeError):
    """No run that an estimate needs, as when no run stopped after a sample
    for :meth:`RunLengthSample.ceiling`; :func:`estimate_pollak` never raises it."""


class Estimate(NamedTuple):
    value: float
    std_error: float


@dataclass(frozen=True)
class RunLengthSample:
    """Uncensored stopping times and the ratio value at each stop, under F0,
    of runs simulated to ``horizon``; ``censored`` runs reached it first.

    Initial stops (time 0, no sample consumed) carry a ratio value of 0, so
    expectations pick up the ``(1 - initial_stop_prob)`` factor they should.
    :meth:`arl` and :meth:`ceiling` share :attr:`moments`, taken once per
    sample.  Censored runs are the long ones, and dropping them biases both
    means low, so both refuse a sample whose censored count does not fit a
    censoring probability of at most e^-10 (exact binomial tail at level
    1e-3); for a rule calibrated to ``eta``, ``horizon >= 10 * eta`` meets it.
    """

    taus: np.ndarray
    lrs: np.ndarray
    censored: int
    horizon: int

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
        d = np.array((self.lrs, self.taus))
        mean = np.add.reduce(d, axis=1)
        mean /= self.n
        d -= mean[:, None]  # in place, on the fresh copy: the deviations
        dof = max(self.n - 1, 1)
        # np.cov's own steps, so its last bit: the products' sum times 1 / dof
        cov = float(np.dot(d, d.T)[0, 1]) * (1.0 / dof)
        d *= d
        var = np.add.reduce(d, axis=1) / dof
        return (*mean.tolist(), *var.tolist(), cov)

    def _check_censoring(self) -> None:
        if not self.censored:  # the common case costs one integer test
            return
        runs = self.n + self.censored
        if _censoring_tail(self.censored, runs) < _CENSORING_LEVEL:
            raise ValueError(
                f"{self.censored} of {runs} runs were censored at horizon {self.horizon}, "
                "more than a censoring probability of e^-10 explains at level 1e-3, so the "
                "run-length means would be biased (a calibrated rule needs a horizon of 10 * eta)"
            )

    def arl(self) -> Estimate:
        """Mean run length to a false alarm, with its standard error."""
        self._check_censoring()
        _, mean, _, var, _ = self.moments
        return Estimate(mean, math.sqrt(var) / math.sqrt(self.n) if self.n else math.nan)

    def ceiling(self, s: int) -> Estimate:
        """The optimality ceiling ``s * E0[l_tau] / E0[tau]`` for any plug-in
        rule, from the uncensored runs, with the delta method's standard error
        over the empirical covariance of ``(l_tau, tau)``; both are linear in ``s``."""
        s = _count(s, "s")
        self._check_censoring()
        mean_lr, mean_tau, var_lr, var_tau, cov = self.moments
        if not mean_tau > 0.0:
            raise DegenerateEstimateError(
                "no run stopped after a sample (every uncensored run was an initial "
                "stop, or there was none); cannot form the bound"
            )
        value = s * mean_lr / mean_tau
        if self.n < 2 or value == 0.0:
            return Estimate(value, 0.0)
        rel_var = (
            var_lr / mean_lr**2 + var_tau / mean_tau**2 - 2.0 * cov / (mean_lr * mean_tau)
        ) / self.n
        return Estimate(value, abs(value) * math.sqrt(max(rel_var, 0.0)))


def _censoring_tail(c: int, n: int) -> float:
    """``P(X >= c)`` for ``X ~ Binomial(n, e^-10)``: the terms from ``X = 0``
    by their ratios in log space, summed from ``c`` until they are negligible
    past the mode (0.0 once they underflow before reaching ``c``)."""
    q = _MAX_CENSORING
    log_p, log_odds = n * math.log1p(-q), math.log(q) - math.log1p(-q)
    tail = 0.0
    for k in range(n + 1):
        if k:
            log_p += math.log((n - k + 1) / k) + log_odds
        p = math.exp(log_p)
        if k >= c:
            tail += p
        if k > n * q and p <= tail * 2**-60:
            break
    return tail


class PollakEstimate(NamedTuple):
    """Sum over onsets of the conditional detection probability.

    ``per_onset`` holds the per-onset estimates, ``survivors`` how many
    trials decided each onset: ``(n_trials,) * s``, kept for the benchmark
    (``bench/workloads.py``).  A tuple, like :class:`Estimate`:
    ``_replace`` and ``_asdict`` derive from it.
    """

    value: float
    std_error: float
    per_onset: tuple[Estimate, ...]
    survivors: tuple[int, ...]


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

    def __post_init__(self):
        for name in ("detect_first_prob", "detect_any_prob"):
            est = getattr(self, name)
            if not 0.0 <= est.value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {est.value}")
        for name in _ESTIMATE_FIELDS:
            if getattr(self, name).std_error < 0.0:
                raise ValueError(f"{name} has a negative standard error")


#: the :class:`Estimate` fields of a :class:`CriteriaReport`
_ESTIMATE_FIELDS = tuple(f.name for f in fields(CriteriaReport) if f.type == "Estimate")


class _SeedWords(ISeedSequence):
    """A SeedSequence's PCG64 seed words, generated once and kept read-only.

    ``generate_state(4, np.uint64)``, the one request ``PCG64`` makes, returns
    the kept words; any other request asks the SeedSequence itself.  The
    words view an immutable bytes object, so no caller can make them
    writable.
    """

    __slots__ = ("_seq", "_state")

    def __init__(self, seq: np.random.SeedSequence):
        self._seq = seq
        self._state = np.frombuffer(seq.generate_state(4, np.uint64).tobytes(), np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._state
        return self._seq.generate_state(n_words, dtype)


@lru_cache(maxsize=_SEED_CACHE, typed=True)
def _seed_words(seed: int, *key) -> _SeedWords:
    """The seed words of ``SeedSequence(seed, spawn_key=key)``; typed, so a key
    that only equals an int (``1.0``) reaches SeedSequence, which rejects it."""
    return _SeedWords(np.random.SeedSequence(seed, spawn_key=key))


class _SpawnKey(NamedTuple):
    """A SeedSequence's entropy and spawn key without the pool it mixes when built."""

    entropy: int
    spawn_key: tuple[int, ...]


def trial_rng(seed, *key) -> np.random.Generator:
    """Generator keyed by ``key`` under ``seed`` (an int or a SeedSequence).

    The estimators draw chunk ``c`` of a stream from ``trial_rng(seed,
    stream, c)``: the stream of ``SeedSequence(seed, spawn_key=key)``, where
    a SeedSequence seed lends its entropy and puts its spawn key first.  For
    int entropy, the generator is seeded from the sequence's cached seed
    words (the last ``_SEED_CACHE`` keys stay cached), so its
    ``bit_generator.seed_seq`` is not a SeedSequence and ``Generator.spawn``
    raises TypeError; draw children from ``trial_rng`` with a longer key
    instead.  A numpy integer seed is taken as its int, and a bool is
    refused; other entropy (``None``, which draws fresh entropy on every
    call, a list) is not cached.  A ``_SpawnKey`` reads as its SeedSequence.
    """
    if type(seed) is not int:  # an int costs this one type test
        if isinstance(seed, (np.random.SeedSequence, _SpawnKey)):
            seed, key = seed.entropy, (*seed.spawn_key, *key)
        elif isinstance(seed, numbers.Integral):
            seed = _count(seed, "seed")
        if type(seed) is not int:
            return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.default_rng(_seed_words(seed, *key))


def _chunk_ranges(n_trials: int) -> Iterator[tuple[int, int]]:
    """Each chunk's trial bounds ``(lo, hi)``, in order, made as they are taken."""
    for lo in range(0, n_trials, _CHUNK):
        yield lo, min(lo + _CHUNK, n_trials)


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


def _row_times(times: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``times``, one row repeated over ``shape``: a read-only view, as
    ``np.broadcast_to`` gives, without its checks (half the cost)."""
    view = np.ndarray(shape, times.dtype, times, strides=(0, times.itemsize))
    view.flags.writeable = False
    return view


def _flat_stops(rule, pair, law: str, rng, n: int, limit: int, gap: float, reads: bool):
    """Renewal runs of a memoryless rule on i.i.d. samples: ``n`` trials
    take consecutive segments of one flat stream, each ending at an alarm.

    Returns per trial the 0-based index within its segment of the stopping
    sample (-1 for a trial that saw ``limit`` samples without an alarm and
    consumed exactly those) and that sample's value (NaN for none, and for
    every trial of a rule that reads no sample: ``reads`` false draws no
    sample and passes ``x=None``).  Each buffer holds the remaining trials
    times the mean gap between alarms (``gap`` until an alarm is seen, then
    the observed samples per alarm), capped per trial at ``limit`` and in
    all at ``_MAX_BLOCK_SAMPLES``.
    """
    at, x_at = np.empty(n, np.int64), np.empty(n)  # np.full's Python layer costs more
    at.fill(-1)
    x_at.fill(np.nan)
    done = carry = drawn = alarms = 0
    x = None
    while done < n:
        if alarms:
            gap = drawn / alarms
        size = min(_MAX_BLOCK_SAMPLES, max(1, math.ceil((n - done) * min(gap, limit))))
        if reads:
            x = np.asarray(pair.sample(law, rng, size), dtype=float)
        hit = rule.alarm_mask(_NO_TIMES[:size], x, rng).nonzero()[0]
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
        if runs.max() < limit:
            # no trial censored: trials done, done + 1, ... stop on the
            # alarms in turn (those past the chunk's last trial are dropped)
            k = min(n - done, hit.size)
            at[done : done + k] = runs[:k]
            if reads:
                x_at[done : done + k] = x[hit[:k]]
            done += hit.size
            carry = int(runs[-1])
            continue
        censored, rest = np.divmod(runs, limit)
        censored += 1
        censored[0] += done - 1
        # ends: the trial of each stop, then the next trial
        ends = censored.cumsum()
        k = ends[:-1].searchsorted(n)  # stops past the chunk's last trial are dropped
        at[ends[:k]] = rest[:k]
        if reads:
            x_at[ends[:k]] = x[hit[:k]]
        done = int(ends[-1])
        carry = int(rest[-1])
    return at, x_at


def _block_stops(rule, pair, schedule: ChangeSchedule, block: int, reads: bool, rng, n: int):
    """The block layout of :func:`_runs`, from a first block of ``block`` columns."""
    stop = np.full(n, _CENSORED, dtype=np.int64)
    x_stop = np.full(n, np.nan)
    active = np.arange(n)
    horizon = schedule.horizon
    # each block's times are a slice
    row_times = _row_times(np.arange(1, horizon + 1), (n, horizon))
    is_f1 = schedule.f1_columns
    x = None
    c0 = 0
    while active.size and c0 < horizon:
        nb = min(block, horizon - c0, max(1, _MAX_BLOCK_SAMPLES // active.size))
        if reads:
            x = np.asarray(pair.sample("nominal", rng, (active.size, nb)), dtype=float)
            # the block's columns are the time steps c0..c0+nb-1
            f1_cols = is_f1[c0 : c0 + nb].nonzero()[0]
            if f1_cols.size:
                x[:, f1_cols] = pair.sample("alternative", rng, (active.size, f1_cols.size))
        mask = rule.alarm_mask(row_times[: active.size, c0 : c0 + nb], x, rng)
        # each row's first alarm, column 0 for a row without one
        first = mask.argmax(axis=1)
        alarmed = np.logical_or(first, mask[:, 0])
        hit = alarmed.nonzero()[0]
        if hit.size:
            rows, at = active[hit], first[hit]
            if reads:
                x_stop[rows] = x[hit, at]
            stop[rows] = c0 + 1 + at
            if c0 + nb < horizon:  # the runs still going take the next block
                active = active[~alarmed]
        c0 += nb
        block *= 2
    return stop, x_stop


def _stopping_samples(pair, rng, stop: np.ndarray, f1_columns: np.ndarray) -> np.ndarray:
    """The stopping sample of each run in ``stop`` (NaN for a censored run)
    of a rule that reads no sample, drawn once the runs are done: one F0
    draw for the runs stopped at unaffected times, then one F1 draw for
    those stopped at affected times (``f1_columns``), each in trial order.
    The rule's verdicts read no sample, so a run's stopping sample has the
    law of its stop time, as it would had it been drawn before the verdict."""
    x_stop = np.full(stop.size, np.nan)
    stopped = stop != _CENSORED
    # a censored run's index is clipped into range, then masked out
    f1 = f1_columns.take(stop - 1, mode="clip") & stopped
    for law, rows in (("nominal", stopped ^ f1), ("alternative", f1)):
        k = int(np.count_nonzero(rows))
        if k:
            x_stop[rows] = np.asarray(pair.sample(law, rng, k), dtype=float)
    return x_stop


def _first_draw(rule, schedule: ChangeSchedule, flat: bool, law: str) -> float:
    """The first buffer's mean gap (flat layout) or the first block's width
    (block layout) of every chunk of a call, from the rule's alarm laws
    (see :func:`_runs`); ``_MIN_BLOCK`` for a rule that states none."""
    probs = getattr(rule, "alarm_probs", None)
    if probs is None:
        return _MIN_BLOCK
    if flat:  # the mean gap 1 / c, or none for a rule that never alarms
        c = float(probs(_NO_TIMES[:1], law)[0])
        return 1.0 / c if c > 0.0 else math.inf
    # the columns a run draws in expectation: sum over k of P(no alarm before k)
    times = np.arange(1, schedule.horizon + 1)
    c = probs(times, "nominal")
    if schedule.onsets:
        c = np.where(schedule.f1_columns, probs(times, "alternative"), c)
    return math.ceil(1.0 + float(np.cumprod(1.0 - c)[:-1].sum()))


def _runs(
    rule, pair, schedule: ChangeSchedule, restart: bool, flat: bool, first: float, reads: bool,
    rng, n: int,
):
    """Stop times of ``n`` runs drawn from ``rng`` (each the stopping time or
    ``_CENSORED``) and each run's stopping sample (NaN for none).

    Flat layout (``flat``), for F0 runs of a memoryless rule (no onsets)
    and for every ``restart`` run (a memoryless rule on onsets, see
    :func:`_simulate`): every column a run draws has one law, F0 or F1
    onset samples, so a run is a renewal and the runs take consecutive
    segments of one flat stream (see :func:`_flat_stops`); each buffer
    draws its samples, then whatever ``alarm_mask`` consumes.  The first
    buffer's mean gap ``first`` is ``1 / c`` for the alarm probability
    ``c`` of the law drawn (none when ``c = 0``).

    Block layout, for single-shot runs with onsets and F0 runs of a
    time-dependent rule: the runs still going are simulated together, one
    ``(runs x time steps)`` block at a time; a block draws an F0 matrix
    whose affected columns are redrawn from F1, then whatever
    ``alarm_mask`` consumes.  The first block holds ``first`` columns, the
    columns a run draws in expectation, ``sum_k prod_{j<k} (1 - c_j)`` with
    ``c_j`` the alarm probability of time step ``j`` under the law it is
    drawn from; each later block doubles.

    ``first`` is :func:`_first_draw`'s, taken once per call.  A rule that
    reads no sample (``reads`` false) draws none in either layout and
    passes ``x=None`` to ``alarm_mask``; once the stops are known, its
    stopped runs draw their stopping samples (:func:`_stopping_samples`).
    """
    if flat:
        law = "alternative" if restart else "nominal"
        limit = schedule.s if restart else schedule.horizon
        at, x_stop = _flat_stops(rule, pair, law, rng, n, limit, first, reads)
        # segment index -> stop time; a censored run's -1 reads the table's
        # last entry, _CENSORED, in restart mode
        if restart:
            stop = schedule.restart_stops[at]
        else:
            stop = at
            stop += at >= 0  # a censored run keeps its -1
    else:
        stop, x_stop = _block_stops(rule, pair, schedule, first, reads, rng, n)
    if not reads:
        x_stop = _stopping_samples(pair, rng, stop, schedule.f1_columns)
    return stop, x_stop


def _simulate(
    rule: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    mode: Mode,
    n_trials: int,
    seed,
    stream: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial stops and stopping samples of ``n_trials`` runs.

    A stop is 0 for an initial stop, the stopping time, or ``_CENSORED``
    when the horizon ran out first; the stopping sample of a run without
    one is NaN.  Chunk ``c`` draws from ``trial_rng(seed, stream, c)``: a
    rule with an initial stop draws the chunk's initial-stop uniforms
    first, and only the trials that did not stop take the runs of
    :func:`_runs`; a rule without one draws no uniforms, and its runs are
    the chunk's stops as they come.  The layout and its first draw's size
    are taken once per call.  A call of one chunk returns that chunk's
    arrays as they are.

    A restart run ends only on an onset alarm, and a false alarm does not
    end it, so the rule must be memoryless: its runs are then renewals on
    the onset samples alone.  A time-dependent rule is refused before
    anything is drawn, and a restart run on no onsets draws nothing and is
    censored.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n_trials = _count(n_trials, "n_trials", 1)
    restart = mode == "restart"
    memoryless = getattr(rule, "memoryless", False)
    if restart:
        if not memoryless:
            raise ValueError(f"restart runs need a memoryless rule; {rule!r} is not memoryless")
        if not schedule.onsets:
            return np.full(n_trials, _CENSORED, dtype=np.int64), np.full(n_trials, np.nan)
    flat = restart or (memoryless and not schedule.onsets)
    first = _first_draw(rule, schedule, flat, "alternative" if restart else "nominal")
    layout = (rule, pair, schedule, restart, flat, first, getattr(rule, "reads_samples", True))
    pi0 = getattr(rule, "initial_stop_prob", 0.0)
    parts = []
    for lo, hi in _chunk_ranges(n_trials):
        rng = trial_rng(seed, stream, lo // _CHUNK)
        if pi0 > 0.0:
            stop = np.zeros(hi - lo, dtype=np.int64)
            x_stop = np.full(hi - lo, np.nan)
            running = (rng.random(hi - lo) >= pi0).nonzero()[0]
            stop[running], x_stop[running] = _runs(*layout, rng, running.size)
            parts.append((stop, x_stop))
        else:
            parts.append(_runs(*layout, rng, hi - lo))
    if len(parts) == 1:
        return parts[0]
    stops, samples = zip(*parts)
    return np.concatenate(stops), np.concatenate(samples)


def _rank_counts(stop: np.ndarray, schedule: ChangeSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Each run's rank ``2 * missed + detected``, and how many runs take
    each rank from 0 to ``2 * s``.

    A restart run stops only on an onset, so every onset before its end
    passed with no alarm at it; a single-shot run ends at its first alarm.
    Either way the onsets before the end are the missed ones: rank 2i + 1
    stopped on onset i, and ranks up to 2i did not reach it.  The int64
    stops are read as uint64, so a censored run's -1 reads 2**64 - 1, past
    every onset, as the end of a run that outlived the horizon should.
    """
    rank = schedule.onset_edges.searchsorted(stop.view(np.uint64), side="right")
    return rank, np.bincount(rank, minlength=2 * schedule.s + 1)


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
    max_horizon = _count(max_horizon, "max_horizon", 1)
    f0 = _f0_schedule(max_horizon)
    stop, x_stop = _simulate(rule, pair, f0, "single_shot", n_trials, seed, STREAM_RUN_LENGTH)
    keep = stop != _CENSORED
    censored = int(stop.size - np.count_nonzero(keep))
    if censored:
        stop, x_stop = stop[keep], x_stop[keep]
    lrs = pair.likelihood_ratio(x_stop)
    if getattr(rule, "initial_stop_prob", 0.0) > 0.0:  # only an initial stop has stop 0
        lrs[stop == 0] = 0.0  # it consumed no sample
    return RunLengthSample(stop.astype(float), lrs, censored, max_horizon)


@lru_cache(maxsize=8)
def _f0_schedule(horizon: int) -> ChangeSchedule:
    """The pure-F0 schedule of a horizon, shared by the calls at that horizon
    (a sweep's rows at eta up to 50 share 1000); frozen, its arrays read-only."""
    return ChangeSchedule(onsets=(), duration=1, horizon=horizon)


def estimate_optimality_ceiling(
    stopping_rule: StoppingRule, pair: DistributionPair, s: int, n_trials: int,
    max_horizon: int, seed, *, sample: RunLengthSample | None = None,
) -> Estimate:
    """``sample.ceiling(s)``, simulating the sample when none is passed; kept
    for the benchmark, which calls it (``bench/workloads.py``) and traces it
    by name (``bench/tracer.py``).  New code calls :meth:`RunLengthSample.ceiling`."""
    if sample is None:
        sample = simulate_run_lengths(stopping_rule, pair, n_trials, max_horizon, seed)
    return sample.ceiling(s)


# ---------------------------------------------------------------------------
# Criteria estimators


def estimate_pollak(
    detector: StoppingRule,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    n_trials: int,
    seed,
    *,
    on_degenerate: str = "raise",
) -> PollakEstimate:
    """Sum over onsets of P(stop exactly at the onset | still running there).

    A protocol rule's verdict reads only its time, its own sample and
    independent randomness, so an onset's term is ``c1(t) = P1(alarm at
    t)`` whatever history reached it, which makes the sum the worst case
    over pre-onset histories too (Lorden 1971).  So the terms are drawn
    directly: chunk ``c`` draws one ``(trials x s)`` F1 matrix from
    ``trial_rng(seed, STREAM_MONITOR, c)``, its onset columns split to at
    most ``_MAX_BLOCK_SAMPLES`` per draw, and one ``alarm_mask`` call per
    draw decides it (a rule that reads no sample draws none, and its
    ``alarm_mask`` gets ``x=None``).  A term is its column's alarmed
    fraction with its binomial standard error, also at an onset no run reaches
    (``AlwaysStopRule`` reads 1 past t = 1); an initial stop draws nothing,
    as it changes no conditional.  The terms are independent, so the sum's
    variance is the sum of theirs, each sum taken in onset order.  Every
    trial decides every onset, so the conditional ``c(t)`` at one time
    ``t`` is ``estimate_pollak(rule, pair, ChangeSchedule((t,), 1, t), n,
    seed).per_onset[0]`` at any ``n >= 1``.  ``on_degenerate`` (``"raise"``
    or ``"exclude"``) has no effect, as no onset is ever degenerate; it is
    kept for the benchmark (``bench/workloads.py``).

    The worst case over schedules is not searched: for a memoryless rule
    on unit-duration changes every term is schedule-invariant, so any
    schedule attains it (property-tested, not assumed silently).
    """
    if on_degenerate not in ("raise", "exclude"):
        raise ValueError(f"on_degenerate must be 'raise' or 'exclude', got {on_degenerate!r}")
    n_trials = _count(n_trials, "n_trials", 1)
    s = schedule.s
    if s == 0:
        return PollakEstimate(0.0, 0.0, (), ())
    times = schedule.onset_times
    width = _MAX_BLOCK_SAMPLES // _CHUNK
    reads = getattr(detector, "reads_samples", True)
    x = None
    # a call of one chunk and one block takes that block's counts as its hits
    hits = None if n_trials <= _CHUNK and s <= width else np.zeros(s, dtype=np.int64)
    for lo, hi in _chunk_ranges(n_trials):
        rng = trial_rng(seed, STREAM_MONITOR, lo // _CHUNK)
        for c0 in range(0, s, width):
            cols = times[c0 : c0 + width]
            shape = (hi - lo, cols.size)
            if reads:
                x = np.asarray(pair.sample("alternative", rng, shape), dtype=float)
            mask = detector.alarm_mask(_row_times(cols, shape), x, rng)
            if mask.dtype.kind != "b":
                raise TypeError(
                    f"{detector!r}.alarm_mask returned {mask.dtype} verdicts; it must return bool"
                )
            # each onset's alarms counted along one contiguous row
            counts = np.add.reduce(mask.T.copy(), axis=1)
            if hits is None:
                hits = counts
            else:
                hits[c0 : c0 + cols.size] += counts
    # Python floats (the module docstring says why); terms and result built
    # by tuple.__new__, skipping the NamedTuples' Python-level __new__
    total = var = 0.0
    per_onset, new = [], tuple.__new__
    for h in hits.tolist():
        p = h / n_trials
        se = math.sqrt(p * (1.0 - p) / n_trials)
        total += p
        var += se * se
        per_onset.append(new(Estimate, (p, se)))
    return new(PollakEstimate, (total, math.sqrt(var), tuple(per_onset), (n_trials,) * s))


def evaluate_criteria(
    detector: ShewhartDetector,
    pair: DistributionPair,
    schedule: ChangeSchedule,
    *,
    n_trials: int,
    seed,
    mode: Mode = "restart",
) -> CriteriaReport:
    """Full criteria report for one calibrated detector on one schedule.

    Monitored-run quantities come from ``n_trials`` runs in the requested
    mode; the run-length mean and the optimality ceiling come from a
    separate pure-F0 simulation of ``n_trials`` runs over a horizon of
    ``max(int(20 * eta), 1000)``, so ``20 * eta`` must be finite.

    The conditional-detection sum pools its onsets, so the rule must be
    memoryless: then every onset has one conditional detection probability
    ``p``, whichever history reached it, and the sum is ``s * p``.  A run
    reached every onset it missed and, when detected, the one it stopped
    on, so the ``M`` onsets reached over all runs number the missed onsets
    plus the ``H`` detected runs.  The sum is ``s * H / M``, with ``s``
    times the binomial standard error of ``M`` trials, and leaves no onset
    out; ``M = 0`` (no onsets, or only initial stops) gives ``(0, 0)``.  In
    restart mode the conditional is "no detection before the onset" (false
    alarms do not end a restart run), the same ``p`` as in a single-shot
    run.  :func:`estimate_pollak` sums any rule's per-onset terms.
    """
    if not getattr(detector, "memoryless", False):
        raise ValueError(
            f"evaluate_criteria pools its onsets, which is exact only for a memoryless "
            f"rule; {detector!r} is not memoryless (estimate_pollak sums any rule's terms)"
        )
    n_trials = _count(n_trials, "n_trials", 1)  # its shares are Python floats
    eta = getattr(detector, "eta", math.nan)  # a rule with no run-length budget has none
    if not math.isfinite(20 * eta):
        raise ValueError(f"eta must be finite (20 * eta too) to size the run horizon, got {eta}")
    stop, _ = _simulate(detector, pair, schedule, mode, n_trials, seed, STREAM_MONITOR)
    rank, counts = _rank_counts(stop, schedule)
    hits = counts[1::2]
    missed = rank >> 1
    # every detected run stopped on exactly one onset, counted in its hits
    detected = int(np.add.reduce(hits))
    detect_any = detected / n_trials
    detect_first = int(hits[0]) / n_trials if hits.size else 0.0
    reached = int(np.add.reduce(missed)) + detected
    p = detected / reached if reached else 0.0
    horizon = max(int(20 * eta), 1000)
    sample = simulate_run_lengths(detector, pair, n_trials, horizon, seed)
    return CriteriaReport(
        pollak_estimate=Estimate(schedule.s * p, schedule.s * _binomial_se(p, reached)),
        arl_to_false_alarm=sample.arl(),
        optimality_ceiling=sample.ceiling(schedule.s),
        detect_first_prob=Estimate(detect_first, _binomial_se(detect_first, n_trials)),
        detect_any_prob=Estimate(detect_any, _binomial_se(detect_any, n_trials)),
        avg_missed=_mean_se(missed),
        arl_censored=sample.censored,
    )


# ---------------------------------------------------------------------------
# Sweep rows (the report schema shared with the experiment harness)


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
        return _CSV_LINE % _row_cells(self)


_COLUMNS = tuple(f.name for f in fields(CurveRow))
CSV_COLUMNS = ",".join(_COLUMNS)
#: a row's field values in column order
_row_cells = attrgetter(*_COLUMNS)
#: one CSV line's format by the fields' types: floats to 17 significant
#: digits (repr's round trip), integers exact, strings as they are
_CSV_LINE = ",".join(
    {"float": "%.17g", "int": "%d", "str": "%s"}[f.type] for f in fields(CurveRow)
)


def detect_first_any_curves(
    cells,
    schedule: ChangeSchedule,
    n_trials: int,
    mode: Mode,
) -> list[CurveRow]:
    """One report row per ``(pair, seed, eta)`` cell, in cell order:
    detect-first / detect-any probabilities, missed-onset averages, the
    run-length mean, the conditional-detection sum, and the optimality
    ceiling, all from independent trials under the cell's seed.  A row's
    ``seed`` is that seed's entropy (0 when that is not an int).

    The rows run in order in one process, and a row's bits depend only on
    its cell."""
    rows = []
    for pair, seed, eta in cells:
        det = calibrate(pair, float(eta))
        rep = evaluate_criteria(det, pair, schedule, n_trials=n_trials, seed=seed, mode=mode)
        entropy = getattr(seed, "entropy", seed)
        mu1 = float(getattr(pair, "mean1", math.nan))
        rows.append(CurveRow(
            float(eta), mu1, schedule.s, schedule.duration, mode,
            # each estimate fills its (value, value_se) column pair
            *rep.detect_first_prob, *rep.detect_any_prob, *rep.avg_missed,
            *rep.arl_to_false_alarm, *rep.pollak_estimate, *rep.optimality_ceiling,
            n_trials, entropy if isinstance(entropy, int) else 0,
        ))
    return rows
