import dataclasses
import hashlib
import math

import numpy as np
import pytest

from transientscan import (
    AlwaysStopRule,
    BernoulliStopRule,
    ChangeSchedule,
    DegenerateEstimateError,
    FixedTimeRule,
    GaussianMeanShift,
    calibrate,
    estimate_arl,
    estimate_pollak,
    estimate_optimality_ceiling,
    evaluate_criteria,
    make_schedule,
    simulate_run_lengths,
)
from transientscan.distributions import norm_upper_quantile, norm_upper_tail
from transientscan import metrics
from transientscan.harness import ExperimentConfig, render_report_csv, run_eta_sweep
from transientscan.metrics import (
    _CHUNK,
    STREAM_MONITOR,
    Estimate,
    _first_stops,
    _mean_se,
    _pollak_from_counts,
    _pollak_sum,
    _score,
    _simulate,
    detect_first_any_curves,
    trial_rng,
)

from oracles import (
    geometric_gof_pvalue,
    history_independence_pvalue,
    monitor_sequence,
    run_monitoring,
)

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


@dataclasses.dataclass(frozen=True)
class AlternatingThresholdRule:
    """Per-sample rule whose threshold alternates with time: not memoryless,
    and its detections are random."""

    even: float = 0.5
    odd: float = 1.5
    memoryless = False

    def alarm_mask(self, times, x, rng):
        return x > np.where(times % 2 == 0, self.even, self.odd)


@dataclasses.dataclass(frozen=True)
class PreviousSampleRule:
    """Breaks the protocol's elementwise contract: a verdict also reads the
    previous column of its block (alarm when ``x > 1`` after a positive
    sample)."""

    memoryless = False

    def alarm_mask(self, times, x, rng):
        previous = np.zeros(x.shape, dtype=bool)
        previous[..., 1:] = x[..., :-1] > 0
        return (x > 1) & previous


@dataclasses.dataclass(frozen=True)
class AlarmAtTimesRule:
    """Alarms at a fixed set of times whatever the data: time-dependent but
    data-independent, so every run of a schedule has the same stop."""

    at: tuple[int, ...]
    memoryless = False

    def alarm_mask(self, times, x, rng):
        return np.isin(times, self.at)


def detect_prob(mu, eta):
    # closed-form per-onset detection probability for the unit Gaussian pair
    return norm_upper_tail(norm_upper_quantile(1.0 / eta) - mu)


# ---------------------------------------------------------------------------
# trial rng derivation


def test_trial_rng_is_keyed_and_reproducible():
    a = trial_rng(7, 1, 0).random(4)
    b = trial_rng(7, 1, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_rng(7, 1, 1).random(4))
    assert not np.array_equal(a, trial_rng(7, 2, 0).random(4))
    assert not np.array_equal(a, trial_rng(8, 1, 0).random(4))


# ---------------------------------------------------------------------------
# run length to a false alarm


def test_arl_always_alarm_is_exact():
    est = estimate_arl(calibrate(PAIR, 1.0), PAIR, 500, 50, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.censored == 0


def test_arl_matches_geometric_moments():
    eta, n = 10.0, 1_000_000
    est = estimate_arl(calibrate(PAIR, eta), PAIR, n, 1000, seed=42)
    tol = 3.0 * math.sqrt(eta**2 - eta) / math.sqrt(n)
    assert abs(est.mean - eta) <= tol
    assert est.censored == 0
    assert est.std_error == pytest.approx(math.sqrt(eta**2 - eta) / math.sqrt(n), rel=0.1)


def test_arl_rejects_short_horizon():
    with pytest.raises(ValueError):
        estimate_arl(calibrate(PAIR, 100.0), PAIR, 100, 500, seed=0)


def test_run_lengths_censoring_is_reported():
    det = calibrate(PAIR, 50.0)
    sample = simulate_run_lengths(det, PAIR, 400, 20, seed=3)
    # a horizon of 20 cuts off a good third of the geometric(1/50) mass
    assert sample.censored > 0
    assert sample.n + sample.censored == 400
    assert (sample.taus >= 1).all() and (sample.taus <= 20).all()


def test_run_length_distribution_is_geometric():
    eta = 10.0
    sample = simulate_run_lengths(calibrate(PAIR, eta), PAIR, 20_000, 1000, seed=11)
    assert geometric_gof_pvalue(sample.taus, 1.0 / eta) >= 0.01


def test_gof_rejects_wrong_distributions():
    rng = np.random.default_rng(0)
    good = rng.geometric(0.1, 20_000)
    assert geometric_gof_pvalue(good, 0.1) >= 0.01
    assert geometric_gof_pvalue(good, 0.2) < 0.01
    assert geometric_gof_pvalue(np.full(5000, 7), 0.1) < 0.01


def test_initial_stop_scales_run_length_and_not_the_bound():
    base = calibrate(PAIR, 100.0)
    # the alarm-side mean is 150 when calibrated to 150; an initial stop of
    # 1/3 brings the overall mean back to 100 without moving the bound ratio
    slack = calibrate(PAIR, 150.0)
    equalized = dataclasses.replace(slack, initial_stop_prob=1.0 / 3.0)
    est = estimate_arl(equalized, PAIR, 40_000, 3000, seed=5)
    assert abs(est.mean - 100.0) <= 4 * est.std_error
    b_plain = estimate_optimality_ceiling(slack, PAIR, 1, 40_000, 3000, seed=6)
    b_equal = estimate_optimality_ceiling(equalized, PAIR, 1, 40_000, 3000, seed=7)
    tol = 3 * math.hypot(b_plain.std_error, b_equal.std_error)
    assert abs(b_plain.value - b_equal.value) <= tol


# ---------------------------------------------------------------------------
# conditional detection and its sum


def onset_conditional(rule, pair, t, n_trials, seed):
    """c(t): the one-onset restart run, one F1 sample per trial at time t."""
    sched = ChangeSchedule(onsets=(t,), duration=1, horizon=t)
    est = estimate_pollak(rule, pair, sched, n_trials, seed, mode="restart")
    return Estimate(est.value, est.std_error)


def test_conditional_detection_matches_closed_form():
    det = calibrate(PAIR, 100.0)
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=5)
    expected = detect_prob(1.0, 100.0)
    direct = estimate_pollak(det, PAIR, sched, 40_000, seed=8).per_onset[0]
    assert abs(direct.value - expected) <= 3 * direct.std_error
    shortcut = onset_conditional(det, PAIR, 5, 40_000, seed=9)
    assert abs(shortcut.value - expected) <= 3 * shortcut.std_error
    assert abs(direct.value - shortcut.value) <= 3 * math.hypot(
        direct.std_error, shortcut.std_error
    )


def test_conditional_detection_closed_form_grid():
    # closed-form agreement across shifts and budgets
    for mu in (0.5, 2.0):
        for eta in (5.0, 50.0):
            pair = GaussianMeanShift(mean0=0.0, mean1=mu, sigma=1.0)
            det = calibrate(pair, eta)
            est = onset_conditional(det, pair, 5, 20_000, seed=30)
            assert abs(est.value - detect_prob(mu, eta)) <= 3 * est.std_error
    # a widely separated pair detects almost surely
    assert detect_prob(6.0, 100.0) > 0.999
    far = GaussianMeanShift(mean0=0.0, mean1=6.0, sigma=1.0)
    est = onset_conditional(calibrate(far, 100.0), far, 5, 5000, seed=31)
    assert est.value > 0.99


def test_conditional_detection_always_alarm_boundary():
    det = calibrate(PAIR, 1.0)
    sched = ChangeSchedule(onsets=(1,), duration=1, horizon=1)
    est = estimate_pollak(det, PAIR, sched, 500, seed=36).per_onset[0]
    assert est == (1.0, 0.0)


def test_onset_conditional_of_time_dependent_rules():
    # the one-onset restart run decides one F1 sample at time t, so it takes
    # any protocol rule, not only memoryless ones
    assert onset_conditional(FixedTimeRule(3), PAIR, 3, 500, seed=0) == (1.0, 0.0)
    assert onset_conditional(FixedTimeRule(3), PAIR, 5, 500, seed=0) == (0.0, 0.0)
    rule = AlternatingThresholdRule(even=2.0, odd=3.0)
    for t, exact in ((4, norm_upper_tail(1.0)), (5, norm_upper_tail(2.0))):
        est = onset_conditional(rule, PAIR, t, 20_000, seed=37)
        assert abs(est.value - exact) <= Z_CHECK * math.sqrt(exact * (1.0 - exact) / 20_000)


def test_pollak_sums_equal_terms():
    det = calibrate(PAIR, 100.0)
    sched = ChangeSchedule(onsets=(4, 8, 12), duration=1, horizon=12)
    est = estimate_pollak(det, PAIR, sched, 60_000, seed=10)
    expected = 3.0 * detect_prob(1.0, 100.0)
    assert abs(est.value - expected) <= 3 * est.std_error
    assert len(est.per_onset) == 3
    assert est.degenerate_onsets == ()
    # memoryless rule: every term estimates the same probability
    for term in est.per_onset:
        assert abs(term.value - detect_prob(1.0, 100.0)) <= 4 * term.std_error


def test_pollak_raw_sum_may_exceed_one():
    # the objective is a sum of conditional probabilities, not a probability;
    # it is reported without normalization
    det = calibrate(PAIR, 2.0)
    sched = ChangeSchedule(onsets=(2, 4), duration=1, horizon=4)
    est = estimate_pollak(det, PAIR, sched, 20_000, seed=32)
    assert est.value > 1.0
    assert abs(est.value - 2 * detect_prob(1.0, 2.0)) <= 3 * est.std_error


def test_pollak_empty_schedule_is_zero():
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(50, 0, 1)
    est = estimate_pollak(det, PAIR, sched, 100, seed=0)
    assert est.value == 0.0 and est.std_error == 0.0


def test_pollak_schedule_invariance_for_memoryless_rules():
    det = calibrate(PAIR, 10.0)
    expected = detect_prob(1.0, 10.0)
    rng = np.random.default_rng(123)
    for _ in range(3):
        sched = make_schedule(40, 3, 1, "uniform_random", rng=rng)
        est = estimate_pollak(det, PAIR, sched, 30_000, seed=12)
        assert abs(est.value - 3 * expected) <= 3 * est.std_error


def test_pollak_degenerate_onset_policy():
    det = calibrate(PAIR, 5.0)
    # survival to an onset at 200 under a per-sample alarm rate of 0.2 is ~e^-40
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    with pytest.raises(DegenerateEstimateError):
        estimate_pollak(det, PAIR, sched, 2000, seed=13)
    est = estimate_pollak(det, PAIR, sched, 2000, seed=13, on_degenerate="exclude")
    assert est.degenerate_onsets == (200,)
    assert abs(est.value - detect_prob(1.0, 5.0)) <= 4 * est.std_error


def pollak_loop(hits, survivors, onsets, min_survivors):
    """The per-onset loop that sums the Pollak terms in onset order."""
    per_onset, degenerate, total, var = [], [], 0.0, 0.0
    for i, onset in enumerate(onsets):
        if int(survivors[i]) < min_survivors:
            degenerate.append(onset)
            per_onset.append(Estimate(math.nan, math.nan))
            continue
        m = int(survivors[i])
        p = float(hits[i]) / m
        se = math.sqrt(p * (1.0 - p) / m)
        per_onset.append(Estimate(p, se))
        total += p
        var += se * se
    return total, math.sqrt(var), tuple(per_onset), tuple(int(v) for v in survivors), tuple(
        degenerate
    )


def test_pollak_from_counts_matches_the_onset_loop():
    # same arithmetic in the same order, so equal to the last bit (repr)
    rng = np.random.default_rng(50)
    for k in range(100):
        s = int(rng.integers(1, 150))
        survivors = rng.integers(0, 400, s)
        hits = rng.binomial(survivors, rng.random(s))
        floor = 1 + k % 60
        est = _pollak_from_counts(hits, survivors, tuple(range(1, s + 1)), floor, "exclude")
        got = (est.value, est.std_error, est.per_onset, est.survivors, est.degenerate_onsets)
        assert repr(got) == repr(pollak_loop(hits, survivors, range(1, s + 1), floor))


@pytest.mark.parametrize("estimator", ["pollak", "criteria"])
@pytest.mark.parametrize("policy", ["rasie", "Exclude", ""])
def test_unknown_degenerate_policy_is_rejected(estimator, policy):
    det = calibrate(PAIR, 5.0)
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    call = {
        "pollak": lambda: estimate_pollak(det, PAIR, sched, 300, seed=13, on_degenerate=policy),
        "criteria": lambda: evaluate_criteria(
            det, PAIR, sched, n_trials=300, seed=13, on_degenerate=policy
        ),
    }[estimator]
    with pytest.raises(ValueError, match="on_degenerate"):
        call()


@pytest.mark.parametrize("estimator", ["pollak", "criteria"])
def test_min_survivors_below_one_is_rejected(estimator):
    # an onset that no trial reaches would divide zero hits by zero trials
    det = calibrate(PAIR, 5.0)
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    call = {
        "pollak": lambda: estimate_pollak(det, PAIR, sched, 300, seed=13, min_survivors=0),
        "criteria": lambda: evaluate_criteria(
            det, PAIR, sched, n_trials=300, seed=13, min_survivors=0
        ),
    }[estimator]
    with pytest.raises(ValueError, match="min_survivors"):
        call()


# ---------------------------------------------------------------------------
# the optimality ceiling


def test_bound_for_always_stop_is_s():
    est = estimate_optimality_ceiling(AlwaysStopRule(), PAIR, 4, 50_000, 10, seed=14)
    # tau = 1 exactly and E0[l] = 1, so the ceiling is s
    assert abs(est.value - 4.0) <= 3 * est.std_error


def test_bound_for_fixed_time_is_s_over_k():
    est = estimate_optimality_ceiling(FixedTimeRule(5), PAIR, 3, 50_000, 100, seed=15)
    assert abs(est.value - 3.0 / 5.0) <= 3 * est.std_error


def test_bound_for_calibrated_detector_equals_detection_prob():
    det = calibrate(PAIR, 100.0)
    est = estimate_optimality_ceiling(det, PAIR, 1, 60_000, 2000, seed=16)
    assert abs(est.value - detect_prob(1.0, 100.0)) <= 3 * est.std_error


def test_bound_dominates_pollak_for_a_quick_battery():
    rules = {
        "shewhart10": calibrate(PAIR, 10.0),
        "always": AlwaysStopRule(),
        "fixed7": FixedTimeRule(7),
        "bernoulli": BernoulliStopRule(0.2),
    }
    horizons = {"shewhart10": 200, "always": 10, "fixed7": 140, "bernoulli": 100}
    for s, onsets in ((1, (4,)), (3, (4, 8, 12))):
        sched = ChangeSchedule(onsets=onsets, duration=1, horizon=onsets[-1])
        for name, rule in rules.items():
            pollak = estimate_pollak(
                rule, PAIR, sched, 20_000, seed=17, on_degenerate="exclude"
            )
            bound = estimate_optimality_ceiling(
                rule, PAIR, s, 20_000, horizons[name], seed=18
            )
            slack = 3 * math.hypot(pollak.std_error, bound.std_error)
            assert pollak.value <= bound.value + slack, (name, s)


def _run_length_samples():
    """Seeded samples of 0, 1, 2 and more runs: random ones with initial
    stops (tau 0, ratio 0) and heavy-tailed ratios, and simulated ones whose
    short horizons censor some or all runs."""
    rng = np.random.default_rng(31)
    samples = []
    for n in (0, 1, 2, 3, 5, 17, 256, 1001, *rng.integers(4, 3000, 40)):
        taus = rng.integers(0, 40, n).astype(float)
        lrs = np.where(taus > 0, np.exp(rng.normal(0.0, 2.0, n)), 0.0)
        samples.append(metrics.RunLengthSample(taus, lrs, censored=int(rng.integers(0, 3))))
    rules = (
        (calibrate(PAIR, 20.0, initial_stop_prob=0.2), 15),
        (BernoulliStopRule(0.3), 6),
        (FixedTimeRule(5), 4),  # every run censored
    )
    for rule, horizon in rules:
        for n in (1, 2, 300):
            samples.append(simulate_run_lengths(rule, PAIR, n, horizon, seed=n))
    assert {s.n for s in samples} >= {0, 1, 2} and any(s.censored for s in samples)
    return samples


def test_moments_match_the_numpy_reductions_bit_for_bit():
    for sample in _run_length_samples():
        assert sample.moments is sample.moments  # taken once per sample
        mean_lr, mean_tau, var_lr, var_tau, cov = sample.moments
        if sample.n == 0:
            assert all(math.isnan(v) for v in sample.moments)
            continue
        assert mean_lr == float(sample.lrs.mean())
        assert mean_tau == float(sample.taus.mean())
        if sample.n == 1:
            assert (var_lr, var_tau, cov) == (0.0, 0.0, 0.0)
            continue
        assert var_lr == float(sample.lrs.var(ddof=1))
        assert var_tau == float(sample.taus.var(ddof=1))
        assert cov == float(np.cov(sample.lrs, sample.taus, ddof=1)[0, 1])
        arl = estimate_arl(None, PAIR, sample.n, 1, seed=0, sample=sample)
        se = float(sample.taus.std(ddof=1) / math.sqrt(sample.n))
        assert arl == (float(sample.taus.mean()), se, sample.censored)


def test_empty_and_one_run_samples_keep_their_estimates():
    fixed = FixedTimeRule(5)
    empty = simulate_run_lengths(fixed, PAIR, 3, 4, seed=0)
    arl = estimate_arl(fixed, PAIR, 3, 4, seed=0, sample=empty)
    assert math.isnan(arl.mean) and math.isnan(arl.std_error) and arl.censored == 3
    with pytest.raises(DegenerateEstimateError):
        estimate_optimality_ceiling(fixed, PAIR, 2, 3, 4, seed=0, sample=empty)
    det = calibrate(PAIR, 10.0)
    one = simulate_run_lengths(det, PAIR, 1, 200, seed=0)
    (tau,), (lr,) = one.taus, one.lrs
    assert estimate_arl(det, PAIR, 1, 200, seed=0, sample=one) == (tau, 0.0, 0)
    ceiling = estimate_optimality_ceiling(det, PAIR, 3, 1, 200, seed=0, sample=one)
    assert ceiling == (3 * lr / tau, 0.0)


def test_ceiling_is_linear_in_s_over_one_sample():
    det = calibrate(PAIR, 10.0)
    sample = simulate_run_lengths(det, PAIR, 2000, 200, seed=32)
    mean_lr, mean_tau, *_ = sample.moments
    ratio = mean_lr / mean_tau
    rel_se = None
    for s in (1, 3, 10):
        est = estimate_optimality_ceiling(det, PAIR, s, 2000, 200, seed=32, sample=sample)
        assert est.value == pytest.approx(s * ratio, rel=1e-15, abs=0.0)
        rel_se = rel_se or est.std_error / est.value
        assert est.std_error / est.value == pytest.approx(rel_se, rel=1e-15, abs=0.0)
    assert rel_se > 0.0


def test_criteria_arl_is_estimate_arl_on_the_same_runs():
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(40, 4, 1, "even_grid")
    horizon = max(int(20 * det.eta), 1000)  # evaluate_criteria's F0 horizon
    for n in (1, 2, 300):
        rep = evaluate_criteria(det, PAIR, sched, n_trials=n, seed=33)
        sample = simulate_run_lengths(det, PAIR, n, horizon, seed=33)
        arl = estimate_arl(det, PAIR, n, horizon, seed=33, sample=sample)
        assert rep.arl_to_false_alarm == (arl.mean, arl.std_error)
        assert rep.arl_censored == arl.censored
        assert rep.optimality_ceiling == estimate_optimality_ceiling(
            det, PAIR, sched.s, n, horizon, seed=33, sample=sample
        )


def test_ceiling_of_initial_stops_only_is_degenerate():
    # the one run is an initial stop: the mean run length is 0, the ratio 0 / 0
    det = calibrate(PAIR, 10.0, initial_stop_prob=0.5)
    with pytest.raises(DegenerateEstimateError, match="initial stop"):
        evaluate_criteria(det, PAIR, make_schedule(40, 4, 1), n_trials=1, seed=3)
    sample = metrics.RunLengthSample(np.zeros(3), np.zeros(3), censored=2)
    with pytest.raises(DegenerateEstimateError, match="initial stop"):
        estimate_optimality_ceiling(det, PAIR, 4, 5, 200, seed=0, sample=sample)


def test_estimators_reject_an_empty_trial_range():
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(40, 4, 1)
    for call in (
        lambda: estimate_pollak(det, PAIR, sched, 0, seed=1),
        lambda: evaluate_criteria(det, PAIR, sched, n_trials=0, seed=1),
        lambda: simulate_run_lengths(det, PAIR, 0, 200, seed=1),
    ):
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            call()


# ---------------------------------------------------------------------------
# monitored runs


def test_single_shot_with_no_onsets_is_a_false_alarm():
    det = calibrate(PAIR, 5.0)
    sched = make_schedule(400, 0, 1)
    out = run_monitoring(det, PAIR, sched, "single_shot", seed=19)
    assert out.tau is not None
    assert out.alarms == ((out.tau, "false_alarm"),)
    assert out.first_detection_time is None
    assert out.missed_onsets_before_detection == 0


def test_always_alarm_restart_walks_to_the_onset():
    det = calibrate(PAIR, 1.0)
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=6)
    out = run_monitoring(det, PAIR, sched, "restart", seed=20)
    assert out.tau == 5
    assert out.first_detection_time == 5
    assert [a for a in out.alarms] == [
        (1, "false_alarm"),
        (2, "false_alarm"),
        (3, "false_alarm"),
        (4, "false_alarm"),
        (5, "true_onset"),
    ]
    assert out.missed_onsets_before_detection == 0


def test_single_shot_detection_at_the_first_sample():
    det = calibrate(PAIR, 1.0)
    sched = ChangeSchedule(onsets=(1,), duration=1, horizon=3)
    out = run_monitoring(det, PAIR, sched, "single_shot", seed=21)
    assert out.tau == 1
    assert out.alarms == ((1, "true_onset"),)
    assert out.first_detection_time == 1


def test_monitor_sequence_rejects_length_mismatch():
    det = calibrate(PAIR, 5.0)
    sched = ChangeSchedule(onsets=(2,), duration=1, horizon=4)
    with pytest.raises(ValueError):
        monitor_sequence(det, np.zeros(3), sched)


def test_monitor_sequence_classifies_inside_window_alarms_as_false():
    # an alarm inside a transient window but not at its onset is not a detection
    det = calibrate(PAIR, 1.0)
    sched = ChangeSchedule(onsets=(2,), duration=3, horizon=5)
    out = monitor_sequence(det, np.zeros(5), sched, mode="single_shot")
    assert out.tau == 1
    assert out.alarms == ((1, "false_alarm"),)


def test_restart_missed_counts_match_the_geometric_model():
    eta = 50.0
    det = calibrate(PAIR, eta)
    sched = make_schedule(10_000, 100, 1, "even_grid")
    p = detect_prob(1.0, eta)
    oracle = (1 - p) * (1 - (1 - p) ** 100) / p
    rep = evaluate_criteria(det, PAIR, sched, n_trials=2000, seed=22, mode="restart")
    assert abs(rep.avg_missed.value - oracle) <= 3 * rep.avg_missed.std_error
    assert abs(rep.detect_first_prob.value - p) <= 3 * rep.detect_first_prob.std_error
    expected_any = 1 - (1 - p) ** 100
    # tolerance from the oracle probability: the empirical SE collapses to 0
    # when every trial detects, which is itself the overwhelmingly likely outcome
    se_any = math.sqrt(expected_any * (1 - expected_any) / 2000)
    assert abs(rep.detect_any_prob.value - expected_any) <= 3 * se_any


def test_criteria_report_fields_are_consistent():
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(500, 5, 1, "even_grid")
    rep = evaluate_criteria(det, PAIR, sched, n_trials=3000, seed=23, mode="restart")
    assert 0.0 <= rep.detect_first_prob.value <= rep.detect_any_prob.value <= 1.0
    assert abs(rep.arl_to_false_alarm.value - 10.0) <= 4 * rep.arl_to_false_alarm.std_error


def test_detect_any_zero_without_onsets():
    det = calibrate(PAIR, 5.0)
    sched = make_schedule(300, 0, 1)
    rep = evaluate_criteria(det, PAIR, sched, n_trials=500, seed=24, mode="single_shot")
    assert rep.detect_any_prob.value == 0.0
    assert rep.detect_first_prob.value == 0.0
    assert rep.pollak_estimate.value == 0.0


@pytest.mark.parametrize("mode", ["single_shot", "restart"])
def test_kernel_scoring_matches_monitor_sequence(mode):
    # onsets at t = 1 and at the horizon; eta = 3 alarms often enough that
    # single-shot rows stop before, on and between onsets
    det = calibrate(PAIR, 3.0)
    sched = ChangeSchedule(onsets=(1, 5, 9), duration=1, horizon=9)
    rng = np.random.default_rng(37)
    x = rng.normal(size=(400, sched.horizon))
    x[0] = -10.0  # never alarms: censored in both modes
    x[1] = [10.0] + [-10.0] * 8  # alarms at t = 1 only
    x[2] = [-10.0] * 8 + [10.0]  # alarms at the horizon only
    times = np.broadcast_to(np.arange(1, sched.horizon + 1), x.shape)
    mask = det.alarm_mask(times, x, rng)
    # a single-shot run ends at its first alarm, a restart run at its first
    # alarm among the onset columns
    cols = np.arange(sched.horizon) if mode == "single_shot" else np.asarray(sched.onsets) - 1
    first = _first_stops(mask[:, cols])
    # row 0 of the scored stops is an initial stop
    stop = np.concatenate([[0], np.where(first >= 0, cols[first] + 1, -1)])
    scores = _score(stop, sched)
    initial = run_monitoring(
        dataclasses.replace(det, initial_stop_prob=1.0), PAIR, sched, mode, seed=38
    )
    reference = [initial] + [monitor_sequence(det, row, sched, mode) for row in x]
    assert {out.tau for out in reference} >= {0, None, 1, sched.horizon}
    hits = np.zeros(sched.s, dtype=int)
    survivors = np.zeros(sched.s, dtype=int)
    for k, out in enumerate(reference):
        assert stop[k] == (-1 if out.tau is None else out.tau)
        det_at = scores.detected_at[k]
        assert out.first_detection_time == (sched.onsets[det_at] if det_at >= 0 else None)
        assert scores.missed[k] == out.missed_onsets_before_detection
        end = sched.horizon + 1 if out.tau is None else out.tau
        survivors += np.asarray(sched.onsets) <= end
        hits += np.asarray(sched.onsets) == out.first_detection_time
    assert np.array_equal(scores.hits, hits)
    assert np.array_equal(scores.survivors, survivors)


def test_restart_runs_stop_drawing_at_their_first_detection(monkeypatch):
    drawn = []
    original = GaussianMeanShift.sample

    def counting_sample(self, which, rng, size=None):
        drawn.append(int(np.prod(size)))
        return original(self, which, rng, size)

    monkeypatch.setattr(GaussianMeanShift, "sample", counting_sample)
    det = calibrate(PAIR, 5.0)
    sched = make_schedule(10_000, 100, 1, "even_grid")
    n = 300
    est = estimate_pollak(
        det, PAIR, sched, n, seed=39, mode="restart", on_degenerate="exclude"
    )
    # detection at an onset has probability ~0.56, so runs end near t = 200
    assert est.survivors[0] == n
    assert sum(drawn) < n * sched.horizon / 10


def test_restart_runs_draw_only_their_onset_samples(monkeypatch):
    drawn = []
    original = GaussianMeanShift.sample

    def counting_sample(self, which, rng, size=None):
        drawn.append(int(np.prod(size)))
        return original(self, which, rng, size)

    monkeypatch.setattr(GaussianMeanShift, "sample", counting_sample)
    sched = make_schedule(10_000, 100, 1, "even_grid")
    n = 300
    estimate_pollak(
        calibrate(PAIR, 5.0), PAIR, sched, n, seed=39, mode="restart", on_degenerate="exclude"
    )
    assert 0 < sum(drawn) <= n * sched.s
    # a rule that never alarms on an onset runs every trial to the horizon
    drawn.clear()
    never = estimate_pollak(
        FixedTimeRule(2), PAIR, sched, n, seed=39, mode="restart", on_degenerate="exclude"
    )
    assert never.value == 0.0
    assert sum(drawn) == n * sched.s


@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("at", [(), (1,), (2, 3), (2, 3, 6), (7, 12), (12,), (10, 11, 12)])
def test_restart_stops_of_a_time_dependent_rule_match_monitor_sequence(T, at):
    # one onset at t = 1 and the last window ending at the horizon (the last
    # onset is the horizon itself when T = 1)
    horizon = 12
    sched = ChangeSchedule(onsets=(1, 6, horizon - T + 1), duration=T, horizon=horizon)
    rule = AlarmAtTimesRule(at)
    stop, _ = _simulate(rule, PAIR, sched, "restart", 300, 43, STREAM_MONITOR)
    expected = monitor_sequence(rule, np.zeros(horizon), sched, "restart").tau
    assert (stop == (-1 if expected is None else expected)).all()


def test_restart_alarm_mask_sees_only_onset_times():
    seen = []
    det = calibrate(PAIR, 20.0)

    class RecordingRule:
        # not memoryless, so restart runs take the block layout, whose
        # times are the onset times (the flat layout passes no times)
        memoryless = False

        def alarm_mask(self, times, x, rng):
            assert times.shape == x.shape
            seen.append(np.unique(times))
            return det.alarm_mask(times, x, rng)

    sched = make_schedule(600, 10, 3, "even_grid")
    est = estimate_pollak(
        RecordingRule(), PAIR, sched, 1000, seed=44, mode="restart", on_degenerate="exclude"
    )
    assert est.survivors[0] == 1000
    assert set(np.concatenate(seen).tolist()) <= set(sched.onsets)


# ---------------------------------------------------------------------------
# flat layout: memoryless runs on one-law columns cut one stream

#: two-sided z of each statistical check below: level 1e-4 per check
Z_CHECK = norm_upper_quantile(1e-4 / 2)


@dataclasses.dataclass(frozen=True)
class BlockLayout:
    """The wrapped rule's verdicts, declared not memoryless: every run
    takes the block layout."""

    rule: object
    memoryless = False

    def alarm_mask(self, times, x, rng):
        return self.rule.alarm_mask(times, x, rng)


def replay_flat_stops(rule, law, limit, n, seed, stream):
    """Stop index within each trial's segment (-1 censored, None an initial
    stop) and its sample, by walking each chunk's stream one sample at a
    time.  Valid for rules whose alarm_mask draws nothing: then the buffer
    ends of the kernel do not move any sample."""
    pi0 = rule.initial_stop_prob
    at, xs = [], []
    for c, lo in enumerate(range(0, n, _CHUNK)):
        m = min(_CHUNK, n - lo)
        rng = trial_rng(seed, stream, c)
        initial = rng.random(m) < pi0 if pi0 > 0.0 else np.zeros(m, dtype=bool)
        x = PAIR.sample(law, rng, m * limit)  # more than the chunk can use
        alarm = rule.alarm_mask(np.zeros(x.size, dtype=np.int64), x, rng)
        pos = 0
        for k in range(m):
            seg = alarm[pos : pos + limit]
            if initial[k]:
                at.append(None)
                xs.append(math.nan)
            elif seg.any():
                j = int(seg.argmax())
                at.append(j)
                xs.append(x[pos + j])
                pos += j + 1
            else:
                at.append(-1)
                xs.append(math.nan)
                pos += limit
    return at, np.array(xs)


@pytest.mark.parametrize(
    "mode,limit",
    [("single_shot", 1), ("single_shot", 6), ("single_shot", 12), ("restart", 1), ("restart", 3)],
)
@pytest.mark.parametrize("pi0", [0.0, 0.3])
def test_flat_runs_cut_one_stream_in_trial_order(monkeypatch, mode, limit, pi0):
    # 600 trials run as chunks of 256, 256 and 88, each in buffers of at
    # most 7 samples, so runs carry across buffer ends; a censored trial
    # uses exactly `limit` samples and the next one starts right after them
    monkeypatch.setattr(metrics, "_MAX_BLOCK_SAMPLES", 7)
    rule = calibrate(PAIR, 4.0, initial_stop_prob=pi0)
    if mode == "restart":
        onsets = tuple(range(5, 5 * limit + 1, 5))
        sched = ChangeSchedule(onsets=onsets, duration=1, horizon=onsets[-1])
        law, cols = "alternative", np.asarray(onsets) - 1
    else:
        sched = ChangeSchedule(onsets=(), duration=1, horizon=limit)
        law, cols = "nominal", np.arange(limit)
    stop, recorded = _simulate(
        rule, PAIR, sched, mode, 600, 45, STREAM_MONITOR, keep_samples=True
    )
    at, x_at = replay_flat_stops(rule, law, limit, 600, 45, STREAM_MONITOR)
    expected = [0 if a is None else -1 if a < 0 else int(cols[a]) + 1 for a in at]
    assert stop.tolist() == expected
    assert np.array_equal(recorded, x_at, equal_nan=True)
    # without the samples the same draws give the same stops
    unrecorded, none = _simulate(rule, PAIR, sched, mode, 600, 45, STREAM_MONITOR)
    assert none is None and np.array_equal(unrecorded, stop)
    assert (stop == -1).any() and (stop > 0).any() and (stop == 0).any() == (pi0 > 0)


def test_flat_censoring_matches_the_exact_probability():
    n, horizon = 20_000, 10
    sample = simulate_run_lengths(calibrate(PAIR, 50.0), PAIR, n, horizon, seed=46)
    q = (1.0 - 1.0 / 50.0) ** horizon
    assert abs(sample.censored - n * q) <= Z_CHECK * math.sqrt(n * q * (1.0 - q))
    assert sample.n + sample.censored == n
    assert (sample.taus >= 1).all() and (sample.taus <= horizon).all()


def test_flat_initial_stops_keep_the_run_length_law():
    n, eta, pi0 = 20_000, 20.0, 0.3
    sample = simulate_run_lengths(
        calibrate(PAIR, eta, initial_stop_prob=pi0), PAIR, n, 1000, seed=47
    )
    initial = sample.taus == 0
    assert abs(initial.sum() - n * pi0) <= Z_CHECK * math.sqrt(n * pi0 * (1.0 - pi0))
    assert (sample.lrs[initial] == 0.0).all() and (sample.lrs[~initial] > 0.0).all()
    moved = sample.taus[~initial]
    assert abs(moved.mean() - eta) <= Z_CHECK * math.sqrt(eta * eta - eta) / math.sqrt(moved.size)
    assert sample.censored == 0


def test_flat_and_block_layouts_agree_in_law():
    det = calibrate(PAIR, 10.0)
    n = 20_000
    flat = simulate_run_lengths(det, PAIR, n, 1000, seed=48)
    block = simulate_run_lengths(BlockLayout(det), PAIR, n, 1000, seed=48)
    assert flat.censored == block.censored == 0
    for a, b in ((flat.taus, block.taus), (flat.lrs, block.lrs)):  # ARL and E0[l_tau]
        se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= Z_CHECK * se


def test_flat_restart_with_small_s_matches_the_closed_form():
    # s = 3 restart runs are censored often; 20,000 trials run as 79 chunks
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(30, 3, 1, "even_grid")
    n = 20_000
    rep = evaluate_criteria(det, PAIR, sched, n_trials=n, seed=49, mode="restart")
    p1 = PAIR.lr_tail_prob_f1(det.alpha)
    for est, exact in ((rep.detect_first_prob, p1), (rep.detect_any_prob, 1.0 - (1.0 - p1) ** 3)):
        assert abs(est.value - exact) <= Z_CHECK * math.sqrt(exact * (1.0 - exact) / n)


# ---------------------------------------------------------------------------
# history independence (the elementwise contract seen from the data) and the
# history worst case


def test_history_independence_not_rejected():
    det = calibrate(PAIR, 50.0)
    sched = ChangeSchedule(onsets=(30,), duration=1, horizon=30)
    p = history_independence_pvalue(det, PAIR, sched, 1, 4000, seed=26)
    assert p >= 0.01


def test_history_independence_rejects_an_index_outside_the_schedule():
    sched = ChangeSchedule(onsets=(6, 12), duration=1, horizon=12)
    det = calibrate(PAIR, 10.0)
    for index in (0, -1, sched.s + 1):
        with pytest.raises(ValueError, match="index"):
            history_independence_pvalue(det, PAIR, sched, index, 600, seed=3)


def test_history_independence_rejects_a_rule_that_reads_other_samples():
    # the Pollak sum cannot see this breach: it is only a different number
    sched = ChangeSchedule(onsets=(6, 12), duration=1, horizon=12)
    p = history_independence_pvalue(PreviousSampleRule(), PAIR, sched, 1, 600, seed=3)
    assert p < 1e-6


def test_pollak_worst_case_for_time_dependent_rules():
    # a fixed-time rule is per-sample but not memoryless; detection at the
    # onset is deterministic, so the sum is exact here
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=8)
    hit = estimate_pollak(FixedTimeRule(5), PAIR, sched, 2000, seed=33)
    assert hit.value == 1.0
    # survivors count the trials that reached each onset
    assert hit.survivors == (2000,)
    miss = estimate_pollak(FixedTimeRule(7), PAIR, sched, 2000, seed=34)
    assert miss.value == 0.0
    # stopping before the onset leaves nothing to condition on
    with pytest.raises(DegenerateEstimateError):
        estimate_pollak(FixedTimeRule(4), PAIR, sched, 2000, seed=35)
    with pytest.raises(DegenerateEstimateError):
        history_independence_pvalue(FixedTimeRule(4), PAIR, sched, 1, 2000, seed=35)


def test_pollak_is_exact_for_a_time_dependent_rule():
    # each term is the alarm probability of the onset's own F1 sample, Q(1)
    # at these even onsets, whatever history reached it; so the history
    # worst case is this sum
    rule = AlternatingThresholdRule(even=2.0, odd=3.0)
    sched = ChangeSchedule(onsets=tuple(range(4, 81, 4)), duration=1, horizon=80)
    est = estimate_pollak(rule, PAIR, sched, 20_000, seed=1)
    assert not est.degenerate_onsets
    assert abs(est.value - 20 * norm_upper_tail(1.0)) <= Z_CHECK * est.std_error


# ---------------------------------------------------------------------------
# sweep rows and worker determinism


def test_detect_first_any_rows():
    sched = make_schedule(600, 6, 1, "even_grid")
    seeds = (np.random.SeedSequence(27, spawn_key=(gi,)) for gi in range(2))
    cells = [(PAIR, seed, eta) for seed, eta in zip(seeds, [2.0, 5.0])]
    rows = detect_first_any_curves(cells, sched, 400, "restart")
    assert len(rows) == 2
    for row in rows:
        assert row.detect_any >= row.detect_first
        assert row.s == 6 and row.T == 1 and row.mode == "restart"
        assert row.n_trials == 400 and row.seed == 27
        assert row.mu1 == 1.0
    line = rows[0].to_csv_line()
    assert line.startswith("2,1,6,1,restart,")
    assert len(line.split(",")) == 19


def test_worker_count_does_not_change_results():
    base = {
        "schema_version": 1,
        "pair": {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0},
        "horizon": 400,
        "s": 4,
        "T": 1,
        "eta_grid": [4, 8, 16],
        # 257 trials cross the first chunk boundary
        "n_trials": _CHUNK + 1,
        "master_seed": 40,
    }
    # single-shot runs on a schedule with onsets take the block layout
    single_shot = {
        **base, "horizon": 40, "s": 3, "placement": "explicit", "onsets": [5, 17, 30],
        "mode": "single_shot",
    }
    # a mean grid's four (mean, eta) rows share one call
    mu = {**base, "eta_grid": [4, 10], "mu1_grid": [0.5, 2]}
    for data in (base, single_shot, mu):
        cfg = ExperimentConfig.from_dict(data)
        one, two, eight = (
            render_report_csv(run_eta_sweep(cfg, n_workers=w), cfg) for w in (1, 2, 8)
        )
        assert one == two == eight, (cfg.mode, cfg.mu1_grid)


# ---------------------------------------------------------------------------
# one scoring pass: the reductions it replaces, and the bits it keeps

#: criterion 3's grid (tests/test_acceptance.py): rules with their F0 horizons
CRITERION_3_RULES = (
    (calibrate(PAIR, 10.0), 200),
    (calibrate(PAIR, 100.0), 2000),
    (AlwaysStopRule(), 10),
    (FixedTimeRule(5), 100),
    (FixedTimeRule(50), 1000),
    (BernoulliStopRule(0.1), 200),
)
CRITERION_3_SCHEDULES = tuple(
    ChangeSchedule(onsets=tuple(range(4, 4 * s + 1, 4)), duration=1, horizon=4 * s)
    for s in (1, 3, 10)
)


def _hexes(values) -> str:
    return ",".join(float(v).hex() for v in values)


def single_shot_and_f0_digest() -> str:
    """sha256 of what no preset covers: F0 run lengths (``taus``, ``lrs``,
    ``censored``) and single-shot conditional-detection terms (sum,
    ``per_onset``, ``survivors``) over criterion 3's grid."""
    lines = []
    for r, (rule, horizon) in enumerate(CRITERION_3_RULES):
        for n in (1, 2, 200, 300):
            f0 = simulate_run_lengths(rule, PAIR, n, horizon, seed=303 + n)
            lines.append(f"f0 {r} {n} {_hexes(f0.taus)} {_hexes(f0.lrs)} {f0.censored}")
            for sched in CRITERION_3_SCHEDULES:
                est = estimate_pollak(
                    rule, PAIR, sched, n, seed=304 + n, min_survivors=1, on_degenerate="exclude"
                )
                terms = [v for term in est.per_onset for v in term]
                lines.append(
                    f"pollak {r} {n} {sched.s} {_hexes((est.value, est.std_error))} "
                    f"{_hexes(terms)} {est.survivors} {est.degenerate_onsets}"
                )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_single_shot_and_f0_outputs_are_pinned():
    # no preset runs single-shot or reports per-trial F0 samples, so their
    # bits are pinned here; a change of kernel or scoring must keep them
    assert single_shot_and_f0_digest() == (
        "62015d0f3f9cf7c0bfc3ec0f4a30ff5bcafef15d50d70e25c81beea445b49a37"
    )


def _random_stops(rng, sched, n):
    """Stops of ``n`` runs: censored, initial stops, and alarms at any time,
    on onsets more often."""
    times = np.concatenate(([-1, 0], np.arange(1, sched.horizon + 1), sched.onsets))
    return rng.choice(times, n).astype(np.int64)


def test_scoring_pass_matches_the_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(300):
        horizon = int(rng.integers(1, 60))
        sched = make_schedule(horizon, int(rng.integers(0, horizon // 2 + 1)), 1)
        n = int(rng.choice([1, 2, 3, 17, 256, 300]))
        stop = _random_stops(rng, sched, n)
        scores = _score(stop, sched)
        # survivors of each onset as the reversed cumulative count
        end = np.where(stop == -1, horizon + 1, stop)
        reached = np.searchsorted(np.asarray(sched.onsets, dtype=np.int64), end, side="right")
        survivors = np.cumsum(np.bincount(reached, minlength=sched.s + 1)[::-1])[::-1][1:]
        assert np.array_equal(scores.survivors, survivors)
        assert scores.survivors.dtype == survivors.dtype
        # avg_missed: one mean for the value and the standard error
        x = scores.missed.astype(float)
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert repr(_mean_se(scores.missed)) == repr(Estimate(float(x.mean()), se))
        # the sum, apart from the per-onset terms (some onsets degenerate)
        floor = int(rng.integers(1, n + 2))
        args = (scores.hits, scores.survivors)
        total = _pollak_sum(*args, sched.onset_times, floor, "exclude")
        value, se, _, _, degenerate = pollak_loop(*args, sched.onsets, floor)
        assert repr((total.value, total.std_error, total.degenerate_onsets)) == repr(
            (value, se, degenerate)
        )
        full = _pollak_from_counts(*args, sched.onset_times, floor, "exclude")
        assert (full.value, full.std_error, full.degenerate_onsets) == total[:3]


def test_mean_se_matches_the_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(62)
    for n in (1, 2, 3, 7, 100, 1001, 20_000):
        spread = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
        for values in (spread, rng.integers(0, 99, n)):
            x = values.astype(float)
            se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            assert repr(_mean_se(values)) == repr(Estimate(float(x.mean()), se))


@pytest.mark.parametrize("mode", ["single_shot", "restart"])
def test_criteria_cells_are_the_reductions_of_the_monitored_stops(mode):
    # initial stops, censored runs and (at min_survivors 30) degenerate onsets
    det = calibrate(PAIR, 4.0, initial_stop_prob=0.2)
    sched = make_schedule(60, 6, 1)
    for n in (1, 2, 300):
        stop, _ = _simulate(det, PAIR, sched, mode, n, 63, STREAM_MONITOR)
        rep = evaluate_criteria(
            det, PAIR, sched, n_trials=n, seed=63, mode=mode, min_survivors=30
        )
        scores = _score(stop, sched)
        detected_at = scores.detected_at
        assert rep.detect_any_prob.value == float((detected_at >= 0).mean())
        assert rep.detect_first_prob.value == float((detected_at == 0).mean())
        x = scores.missed.astype(float)
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert repr(rep.avg_missed) == repr(Estimate(float(x.mean()), se))
        est = _pollak_from_counts(scores.hits, scores.survivors, sched.onsets, 30, "exclude")
        assert rep.pollak_estimate == (est.value, est.std_error)
        assert rep.degenerate_onsets == est.degenerate_onsets
