"""The benchmark's three workloads.

Each workload derives every input from the benchmark seed in ``setup``,
then runs timed passes through the public API with ``n_workers=1``.  A pass
returns its timing and the result of its correctness checks.  The checks are
statistical, so a redraw of the Monte Carlo streams does not break them,
and they are counted into the benchmark's ``failed`` / ``attempted`` totals.

Program modules are always reached through their module attributes
(``metrics.estimate_pollak``, ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import stats as scipy_stats

from transientscan import cli, detector, distributions, harness, metrics, sequence_model

#: the pair every workload monitors: unit Gaussian mean shift
PAIR = distributions.GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)

#: chance that any check of one pass fails on a correct program.  With the
#: ~20 statistical checks of a pass and a hundred or so seeds per
#: evaluation, 3 SE per check would fail a correct program every few
#: evaluations, so each check's level is Bonferroni-corrected instead.
FAMILY_FALSE_FAILURE = 1e-4

_STD_NORMAL = NormalDist()
_clock = time.perf_counter_ns


def check_level(n_checks: int) -> float:
    """Two-sided false-failure probability allowed to one of ``n_checks``."""
    return FAMILY_FALSE_FAILURE / n_checks


def check_multiplier(n_checks: int) -> float:
    """Standard errors a two-sided check at :func:`check_level` allows."""
    return _STD_NORMAL.inv_cdf(1.0 - check_level(n_checks) / 2.0)


def geometric_mean_pvalue(mean: float, n: int, eta: float) -> float:
    """Exact two-sided p-value for the mean of ``n`` run lengths that are
    geometric with per-sample stop probability ``1/eta``: their sum less n
    is negative binomial."""
    failures = round(mean * n) - n
    lower = scipy_stats.nbinom.cdf(failures, n, 1.0 / eta)
    upper = scipy_stats.nbinom.sf(failures - 1, n, 1.0 / eta)
    return min(1.0, 2.0 * min(lower, upper))


def derive_seeds(seed: int, tag: int, k: int) -> list[int]:
    """``k`` program seeds derived from the benchmark seed and a workload tag."""
    return [int(v) for v in np.random.SeedSequence([seed % 2**64, tag]).generate_state(k)]


def shewhart_detect_prob(eta: float, shift: float) -> float:
    """Q(z_{1/eta} - shift): one transient sample's alarm probability."""
    return _STD_NORMAL.cdf(shift - _STD_NORMAL.inv_cdf(1.0 - 1.0 / eta))


def tail_rank(n: int) -> tuple[int, float]:
    """Rank of the tail among ``n`` sorted latency samples, and its
    percentile: the p90, or with fewer than 100 samples the highest
    percentile with at least 10 samples beyond it.

    With 20 samples or fewer that percentile would not lie above the median,
    so the maximum stands in for it.  Percentiles above the p90 are set by
    bursts of host interference, not by the program.
    """
    if n <= 20:
        return n - 1, 100.0
    beyond = max(10, n // 10)
    return n - 1 - beyond, 100.0 * (n - beyond) / n


@dataclass
class PassResult:
    """Timing and check outcome of one timed pass."""

    wall_s: float = 0.0
    #: Monte Carlo trials run (monitored plus F0), or verdicts written
    units: int = 0
    #: p50 and tail of each latency window, in us.  Latency samples are the
    #: time per unit of work of sampled operations.
    p50_us: np.ndarray = field(default_factory=lambda: np.empty(0))
    tail_us: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: latency samples per window, and the percentile tail_us stands for
    latency_window: int = 0
    tail_percentile: float = 100.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record_latency(self, op_us, window: int = 0) -> None:
        """Keep the p50 and tail of each whole window of ``window``
        consecutive samples of ``op_us``; 0, or fewer samples than one
        window, keeps the pass whole."""
        op_us = np.asarray(op_us, dtype=float)
        if op_us.size == 0:
            return
        w = window if 0 < window <= op_us.size else op_us.size
        ordered = np.sort(op_us[: op_us.size // w * w].reshape(-1, w), axis=1)
        rank, self.tail_percentile = tail_rank(w)
        self.latency_window = w
        self.p50_us = np.median(ordered, axis=1)
        self.tail_us = ordered[:, rank]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _call(result: PassResult, fn, *args, **kwargs):
    """Run one program call as an attempted operation; None if it raised."""
    result.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failed operation, counted and reported
        result.failed += 1
        result.problems.append(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
        return None


# ---------------------------------------------------------------------------
# bound_battery


def battery_rules(pair) -> list[tuple[str, object, int]]:
    """The criterion-3 rules with their F0 horizons: (label, rule, horizon)."""
    return [
        ("shewhart@10", detector.calibrate(pair, 10.0), 200),
        ("shewhart@100", detector.calibrate(pair, 100.0), 2000),
        ("always-stop", detector.AlwaysStopRule(), 10),
        ("stop-at-5", detector.FixedTimeRule(5), 100),
        ("stop-at-50", detector.FixedTimeRule(50), 1000),
        ("bernoulli-0.1", detector.BernoulliStopRule(0.1), 200),
    ]


def battery_schedules() -> list:
    """s = 1, 3 and 10 unit-duration onsets every 4 samples."""
    return [
        sequence_model.ChangeSchedule(onsets=tuple(range(4, 4 * s + 1, 4)), duration=1, horizon=4 * s)
        for s in (1, 3, 10)
    ]


class BoundBattery:
    """Criterion 3's grid: every rule against every schedule, closed loop."""

    name = "bound_battery"
    tag = 1

    def __init__(self, seed: int, n_trials: int = 200, make_rules=battery_rules):
        self.seed = seed
        self.n_trials = n_trials
        self.make_rules = make_rules

    def setup(self) -> None:
        self.rules = self.make_rules(PAIR)
        self.schedules = battery_schedules()
        self.f0_seed, self.pollak_seed = derive_seeds(self.seed, self.tag, 2)

    def run_pass(self) -> PassResult:
        n = self.n_trials
        result = PassResult()
        op_us = []
        cells = []
        t_pass = time.perf_counter()
        for label, rule, horizon in self.rules:
            t0 = _clock()
            f0 = _call(result, metrics.simulate_run_lengths, rule, PAIR, n, horizon, seed=self.f0_seed)
            op_us.append((_clock() - t0) * 1e-3 / n)
            if f0 is None:
                continue
            result.units += n
            for schedule in self.schedules:
                t0 = _clock()
                pollak = _call(
                    result,
                    metrics.estimate_pollak,
                    rule,
                    PAIR,
                    schedule,
                    n,
                    seed=self.pollak_seed,
                    on_degenerate="exclude",
                )
                op_us.append((_clock() - t0) * 1e-3 / n)
                result.units += n
                ceiling = _call(
                    result,
                    metrics.estimate_optimality_ceiling,
                    rule,
                    PAIR,
                    schedule.s,
                    n,
                    horizon,
                    seed=self.f0_seed,
                    sample=f0,
                )
                if pollak is not None and ceiling is not None:
                    cells.append((label, rule, schedule, pollak, ceiling))
        result.wall_s = time.perf_counter() - t_pass
        result.record_latency(op_us)
        self._check(result, cells)
        return result

    def _check(self, result: PassResult, cells) -> None:
        shewhart = [c for c in cells if isinstance(c[1], detector.ShewhartDetector)]
        z = check_multiplier(len(cells) + len(shewhart))
        for label, rule, schedule, pollak, ceiling in cells:
            slack = z * math.hypot(pollak.std_error, ceiling.std_error)
            result.check(
                pollak.value <= ceiling.value + slack,
                f"{label}/s={schedule.s}: sum {pollak.value:.4f} > ceiling "
                f"{ceiling.value:.4f} + {slack:.4f}",
            )
        shift = (PAIR.mean1 - PAIR.mean0) / PAIR.sigma
        for label, rule, schedule, pollak, _ in shewhart:
            # memoryless rule: every estimable onset shares one conditional
            # detection probability, so the onsets pool into one binomial
            hits = survivors = 0
            for est, m in zip(pollak.per_onset, pollak.survivors):
                if not math.isnan(est.value):
                    hits += round(est.value * m)
                    survivors += m
            expected = shewhart_detect_prob(rule.eta, shift)
            se = math.sqrt(expected * (1.0 - expected) / survivors) if survivors else 0.0
            observed = hits / survivors if survivors else math.nan
            result.check(
                survivors > 0 and abs(observed - expected) <= z * se,
                f"{label}/s={schedule.s}: per-onset detection {observed:.4f} vs "
                f"Q(z - mu) = {expected:.4f} +/- {z * se:.4f} ({survivors} survivors)",
            )


# ---------------------------------------------------------------------------
# eta_sweep


class EtaSweep:
    """The detection_curves sweep at a sized trial count, then its report."""

    name = "eta_sweep"
    tag = 2

    def __init__(self, seed: int, n_trials: int = 100):
        self.seed = seed
        self.n_trials = n_trials

    def setup(self) -> None:
        (master_seed,) = derive_seeds(self.seed, self.tag, 1)
        preset = harness.load_preset("detection_curves")
        self.config = dataclasses.replace(preset, n_trials=self.n_trials, master_seed=master_seed)
        self.config.build_schedule()
        self.first_render = None

    def run_pass(self) -> PassResult:
        config = self.config
        result = PassResult()
        t0 = time.perf_counter()
        rows = _call(result, harness.run_eta_sweep, config, n_workers=1)
        text = _call(result, harness.render_report_csv, rows, config) if rows else None
        result.wall_s = time.perf_counter() - t0
        if rows:
            # monitored plus F0 trials: evaluate_criteria runs n_trials of each
            result.units = 2 * config.n_trials * len(rows)
        result.record_latency([result.wall_s * 1e6 / max(result.units, 1)])
        if rows and text is not None:
            self._check(result, rows, text)
        return result

    def _check(self, result: PassResult, rows, text: str) -> None:
        config = self.config
        n_checks = 2 * len(rows)
        z = check_multiplier(n_checks)
        for row in rows:
            result.check(
                row.detect_any >= row.detect_first,
                f"eta={row.eta:g}: detect_any {row.detect_any} < detect_first {row.detect_first}",
            )
            # the calibrated run length is geometric with mean eta; its mean
            # is too skewed at this trial count for a z check, and the row's
            # arl_se runs low exactly when the mean does, so the test is exact
            pvalue = geometric_mean_pvalue(row.arl, row.n_trials, row.eta)
            result.check(
                pvalue >= check_level(n_checks),
                f"eta={row.eta:g}: arl {row.arl:.3f} (se {row.arl_se:.3f}) has exact "
                f"p = {pvalue:.2e} against a geometric law of mean eta",
            )
            slack = z * math.hypot(row.pollak_se, row.bound_se)
            result.check(
                row.pollak <= row.bound + slack,
                f"eta={row.eta:g}: pollak {row.pollak:.4f} > bound {row.bound:.4f} + {slack:.4f}",
            )
        result.check(
            harness.render_report_csv(rows, config) == text, "two renders of one sweep differ"
        )
        if self.first_render is None:
            self.first_render = text
        result.check(text == self.first_render, "a rerun with the same seed rendered other bytes")


# ---------------------------------------------------------------------------
# detect_stream


class _StampedLines:
    """Stands in for stdin: yields a file's lines, stamping each read."""

    def __init__(self, f, stamps: list):
        self._f = f
        self._stamps = stamps

    def __iter__(self):
        stamps = self._stamps
        for i, line in enumerate(self._f):
            stamps[i] = _clock()
            yield line


class _StampedSink:
    """Stands in for stdout: keeps every write with the time it was made."""

    def __init__(self, capacity: int):
        self.texts = [None] * capacity
        self.stamps = [0] * capacity
        self.n = 0

    def write(self, s: str) -> int:
        i = self.n
        self.stamps[i] = _clock()
        self.texts[i] = s
        self.n = i + 1
        return len(s)

    def flush(self) -> None:
        pass

    def lines(self) -> tuple[list[str], list[int]]:
        """Complete output lines and the time each one's end was written."""
        texts = self.texts[: self.n]
        ends = [self.stamps[i] for i, t in enumerate(texts) if t.endswith("\n")]
        return "".join(texts).splitlines(), ends


class DetectStream:
    """``transientscan detect --restart --eta 100`` over a generated stream."""

    name = "detect_stream"
    tag = 3
    eta = 100.0
    argv = ("detect", "--restart", "--eta", f"{eta:g}", "--input", "-")

    #: verdicts per latency window, a few ms of stream.  On a shared host
    #: neighbours slow every verdict by up to half again for stretches of
    #: tens of ms, often more than a tenth of a pass, so a whole pass's p90
    #: jumps between the quiet and the busy level; the least-disturbed
    #: window's does not.
    latency_window = 1000

    def __init__(self, seed: int, work_dir: Path, n_lines: int = 50_000):
        self.seed = seed
        self.n_lines = n_lines
        self.path = Path(work_dir) / f"detect-{seed}.txt"

    def setup(self) -> None:
        (data_seed,) = derive_seeds(self.seed, self.tag, 1)
        rng = np.random.default_rng(data_seed)
        schedule = sequence_model.make_schedule(
            self.n_lines, self.n_lines // 100, 1, "uniform_random", rng=rng
        )
        x = sequence_model.generate_sequence(PAIR, schedule, rng)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        sequence_model.write_sequence_csv(self.path, x)
        with open(self.path, encoding="utf-8") as f:
            values = np.array([float(line) for line in f])
        reference = detector.calibrate(PAIR, self.eta)
        times = np.arange(1, values.size + 1)
        self.expected = reference.alarm_mask(times, values, np.random.default_rng(0))

    def run_pass(self) -> PassResult:
        n = self.n_lines
        read_stamps = [0] * n
        sink = _StampedSink(2 * n + 16)
        result = PassResult()
        with open(self.path, encoding="utf-8") as f:
            saved = sys.stdin, sys.stdout
            sys.stdin, sys.stdout = _StampedLines(f, read_stamps), sink
            t0 = time.perf_counter()
            try:
                code = _call(result, cli.main, list(self.argv))
            finally:
                result.wall_s = time.perf_counter() - t0
                sys.stdin, sys.stdout = saved
        lines, ends = sink.lines()
        verdicts = lines[1:]
        result.units = len(verdicts)
        k = max(0, min(len(verdicts), n, len(ends) - 1))
        latency = (np.array(ends[1 : k + 1]) - np.array(read_stamps[:k])) * 1e-3
        result.record_latency(latency, self.latency_window)
        result.check(code == 10, f"detect exited with {code}, expected 10 (alarm)")
        result.check(len(verdicts) == n, f"{len(verdicts)} verdict lines for {n} input lines")
        alarmed = np.array([line.endswith(",alarm") for line in verdicts[:n]], dtype=bool)
        mismatched = int((alarmed != self.expected[: alarmed.size]).sum()) + (n - alarmed.size)
        result.attempted += n
        result.failed += mismatched
        if mismatched:
            result.problems.append(f"{mismatched} verdicts differ from alarm_mask")
        return result
