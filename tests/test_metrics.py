import dataclasses
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
    estimate_conditional_detection,
    estimate_lorden,
    estimate_pollak,
    estimate_optimality_ceiling,
    evaluate_criteria,
    geometric_gof_pvalue,
    make_schedule,
    monitor_sequence,
    run_monitoring,
    simulate_run_lengths,
)
from transientscan.distributions import norm_upper_quantile, norm_upper_tail
from transientscan.metrics import (
    _first_stops,
    _score,
    detect_first_any_curves,
    history_independence_pvalue,
    trial_rng,
)

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


@dataclasses.dataclass(frozen=True)
class AlternatingThresholdRule:
    """Per-sample rule whose threshold alternates with time: not memoryless,
    and its detections are random (module level, so workers can unpickle it)."""

    memoryless = False

    def alarm_mask(self, times, x, rng):
        return x > np.where(times % 2 == 0, 0.5, 1.5)


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


def test_conditional_detection_matches_closed_form():
    det = calibrate(PAIR, 100.0)
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=5)
    expected = detect_prob(1.0, 100.0)
    direct = estimate_conditional_detection(det, PAIR, sched, 1, 40_000, seed=8)
    assert abs(direct.value - expected) <= 3 * direct.std_error
    shortcut = estimate_conditional_detection(
        det, PAIR, sched, 1, 40_000, seed=9, method="onset_sample"
    )
    assert abs(shortcut.value - expected) <= 3 * shortcut.std_error
    assert abs(direct.value - shortcut.value) <= 3 * math.hypot(
        direct.std_error, shortcut.std_error
    )


def test_conditional_detection_closed_form_grid():
    # closed-form agreement across shifts and budgets
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=5)
    for mu in (0.5, 2.0):
        for eta in (5.0, 50.0):
            pair = GaussianMeanShift(mean0=0.0, mean1=mu, sigma=1.0)
            det = calibrate(pair, eta)
            est = estimate_conditional_detection(
                det, pair, sched, 1, 20_000, seed=30, method="onset_sample"
            )
            assert abs(est.value - detect_prob(mu, eta)) <= 3 * est.std_error
    # a widely separated pair detects almost surely
    assert detect_prob(6.0, 100.0) > 0.999
    far = GaussianMeanShift(mean0=0.0, mean1=6.0, sigma=1.0)
    est = estimate_conditional_detection(
        calibrate(far, 100.0), far, sched, 1, 5000, seed=31, method="onset_sample"
    )
    assert est.value > 0.99


def test_conditional_detection_always_alarm_boundary():
    det = calibrate(PAIR, 1.0)
    sched = ChangeSchedule(onsets=(1,), duration=1, horizon=1)
    est = estimate_conditional_detection(det, PAIR, sched, 1, 500, seed=36)
    assert est.value == 1.0 and est.std_error == 0.0


def test_conditional_detection_validates_index_and_method():
    det = calibrate(PAIR, 10.0)
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=5)
    with pytest.raises(ValueError):
        estimate_conditional_detection(det, PAIR, sched, 2, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_conditional_detection(det, PAIR, sched, 1, 100, seed=0, method="guess")
    with pytest.raises(ValueError):
        estimate_conditional_detection(
            FixedTimeRule(3), PAIR, sched, 1, 100, seed=0, method="onset_sample"
        )


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


@pytest.mark.parametrize("estimator", ["pollak", "lorden", "criteria"])
@pytest.mark.parametrize("policy", ["rasie", "Exclude", ""])
def test_unknown_degenerate_policy_is_rejected(estimator, policy):
    det = calibrate(PAIR, 5.0)
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    call = {
        "pollak": lambda: estimate_pollak(det, PAIR, sched, 300, seed=13, on_degenerate=policy),
        "lorden": lambda: estimate_lorden(
            FixedTimeRule(5), PAIR, sched, 300, seed=13, on_degenerate=policy
        ),
        "criteria": lambda: evaluate_criteria(
            det, PAIR, sched, n_trials=300, seed=13, on_degenerate=policy
        ),
    }[estimator]
    with pytest.raises(ValueError, match="on_degenerate"):
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
    assert rep.n_trials == 3000 and rep.mode == "restart"


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
    ends_run = np.ones(sched.horizon, dtype=bool)
    if mode == "restart":
        ends_run[:] = False
        ends_run[np.asarray(sched.onsets) - 1] = True
    first = _first_stops(det.alarm_mask(times, x, rng), ends_run)
    # row 0 of the scored stops is an initial stop
    stop = np.concatenate([[0], np.where(first >= 0, first + 1, -1)])
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


# ---------------------------------------------------------------------------
# history independence (memorylessness seen from the data)


def test_lorden_equals_pollak_for_memoryless_rules():
    det = calibrate(PAIR, 20.0)
    sched = ChangeSchedule(onsets=(6, 12), duration=1, horizon=12)
    pollak = estimate_pollak(det, PAIR, sched, 5000, seed=25)
    lorden = estimate_lorden(det, PAIR, sched, 5000, seed=25)
    assert lorden == pollak  # identical by construction, not merely close


def test_history_independence_not_rejected():
    det = calibrate(PAIR, 50.0)
    sched = ChangeSchedule(onsets=(30,), duration=1, horizon=30)
    p = history_independence_pvalue(det, PAIR, sched, 1, 4000, seed=26)
    assert p >= 0.01


def test_lorden_binned_worst_case_for_time_dependent_rules():
    # a fixed-time rule is per-sample but not memoryless; the binned
    # worst-case path still applies and is exact here (detection at the
    # onset is deterministic, so every history bin agrees)
    sched = ChangeSchedule(onsets=(5,), duration=1, horizon=8)
    hit = estimate_lorden(FixedTimeRule(5), PAIR, sched, 2000, seed=33)
    assert hit.value == 1.0
    miss = estimate_lorden(FixedTimeRule(7), PAIR, sched, 2000, seed=34)
    assert miss.value == 0.0
    # stopping before the onset leaves nothing to condition on
    with pytest.raises(DegenerateEstimateError):
        estimate_lorden(FixedTimeRule(4), PAIR, sched, 2000, seed=35)
    with pytest.raises(DegenerateEstimateError):
        history_independence_pvalue(FixedTimeRule(4), PAIR, sched, 1, 2000, seed=35)


def test_lorden_draws_one_history_for_all_onsets(monkeypatch):
    drawn = []
    original = GaussianMeanShift.sample

    def counting_sample(self, which, rng, size=None):
        drawn.append(int(np.prod(size)))
        return original(self, which, rng, size)

    monkeypatch.setattr(GaussianMeanShift, "sample", counting_sample)
    sched = ChangeSchedule(onsets=(3, 6, 9), duration=1, horizon=10)
    rule = AlternatingThresholdRule()
    estimate_lorden(rule, PAIR, sched, 600, seed=42, on_degenerate="exclude")
    lorden_draws = sum(drawn)
    drawn.clear()
    history_independence_pvalue(rule, PAIR, sched, sched.s, 600, seed=42)
    # one simulation of the history stream serves every onset
    assert lorden_draws == sum(drawn) > 0
    # survivors count the trials that reached each onset
    hit = estimate_lorden(FixedTimeRule(5), PAIR, ChangeSchedule((5,), 1, 8), 2000, seed=33)
    assert hit.survivors == (2000,)


# ---------------------------------------------------------------------------
# sweep rows and worker determinism


def test_detect_first_any_rows():
    sched = make_schedule(600, 6, 1, "even_grid")
    rows = detect_first_any_curves(PAIR, sched, [2.0, 5.0], 400, "restart", seed=27)
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
    det = calibrate(PAIR, 8.0)
    one = simulate_run_lengths(det, PAIR, 600, 400, seed=28, n_workers=1)
    two = simulate_run_lengths(det, PAIR, 600, 400, seed=28, n_workers=2)
    assert np.array_equal(one.taus, two.taus)
    assert np.array_equal(one.lrs, two.lrs)
    sched = ChangeSchedule(onsets=(3, 7), duration=1, horizon=10)
    a = estimate_pollak(det, PAIR, sched, 500, seed=29, min_survivors=10, n_workers=1)
    b = estimate_pollak(det, PAIR, sched, 500, seed=29, min_survivors=10, n_workers=2)
    assert a == b
    # 257 trials cross the first chunk boundary
    long = make_schedule(400, 4, 1, "even_grid")
    reports = [
        evaluate_criteria(det, PAIR, long, n_trials=257, seed=40, mode="restart", n_workers=w)
        for w in (1, 2)
    ]
    assert reports[0] == reports[1]
    # a non-memoryless rule takes the binned history path
    short = ChangeSchedule(onsets=(3, 6), duration=1, horizon=8)
    lordens = [
        estimate_lorden(
            AlternatingThresholdRule(), PAIR, short, 257, seed=41, min_survivors=20, n_workers=w
        )
        for w in (1, 2)
    ]
    assert lordens[0] == lordens[1] and not lordens[0].degenerate_onsets
