"""Acceptance gate: each exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import hashlib
import math

import numpy as np
import pytest

from transientscan import (
    AlwaysStopRule,
    BernoulliStopRule,
    ChangeSchedule,
    FixedTimeRule,
    GaussianMeanShift,
    calibrate,
    estimate_pollak,
    estimate_optimality_ceiling,
    load_preset,
    run_eta_sweep,
    run_experiment,
    simulate_run_lengths,
)
from transientscan.distributions import norm_upper_quantile, norm_upper_tail
from transientscan.harness import render_report_csv

from oracles import geometric_gof_pvalue

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


def _report(number, ok, detail):
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def detect_prob(mu, eta):
    return norm_upper_tail(norm_upper_quantile(1.0 / eta) - mu)


def count_increases(values, tol=0.0):
    return sum(1 for a, b in zip(values, values[1:]) if b > a + tol)


def count_decreases(values, tol=0.0):
    return sum(1 for a, b in zip(values, values[1:]) if b < a - tol)


def test_criterion_1_calibration_exactness():
    worst = 0.0
    for eta in (10.0, 100.0, 1000.0):
        det = calibrate(PAIR, eta)
        worst = max(worst, abs(PAIR.lr_tail_prob_f0(det.alpha) - 1.0 / eta))
    _report(1, worst <= 1e-9, f"round-trip tail error {worst:.2e} <= 1e-9 at eta in {{10,100,1000}}")


def test_criterion_2_run_length_equality_and_geometric_law():
    n = 100_000
    problems = []
    details = []
    for eta in (10.0, 100.0):
        det = calibrate(PAIR, eta)
        sample = simulate_run_lengths(det, PAIR, n, int(20 * eta), seed=202)
        mean = sample.taus.mean()
        tol = 3.0 * math.sqrt(eta**2 - eta) / math.sqrt(n)
        pval = geometric_gof_pvalue(sample.taus, 1.0 / eta)
        details.append(f"eta={eta:g}: mean={mean:.3f} (target {eta:g} +/- {tol:.3f}), gof p={pval:.3f}")
        if abs(mean - eta) > tol:
            problems.append(f"mean off at eta={eta:g}")
        if pval < 0.01:
            problems.append(f"geometric fit rejected at eta={eta:g}")
        if sample.censored:
            problems.append(f"unexpected censoring at eta={eta:g}")
    _report(2, not problems, "; ".join(details + problems))


def test_criterion_3_bound_holds_for_arbitrary_rules():
    n = 100_000
    rules = {
        "shewhart@10": (calibrate(PAIR, 10.0), 200),
        "shewhart@100": (calibrate(PAIR, 100.0), 2000),
        "always-stop": (AlwaysStopRule(), 10),
        "stop-at-5": (FixedTimeRule(5), 100),
        "stop-at-50": (FixedTimeRule(50), 1000),
        "bernoulli-0.1": (BernoulliStopRule(0.1), 200),
    }
    schedules = {
        1: ChangeSchedule(onsets=(4,), duration=1, horizon=4),
        3: ChangeSchedule(onsets=(4, 8, 12), duration=1, horizon=12),
        10: ChangeSchedule(onsets=tuple(range(4, 41, 4)), duration=1, horizon=40),
    }
    violations = []
    checked = 0
    for name, (rule, horizon) in rules.items():
        f0 = simulate_run_lengths(rule, PAIR, n, horizon, seed=303)
        for s, sched in schedules.items():
            pollak = estimate_pollak(rule, PAIR, sched, n, seed=304)
            bound = estimate_optimality_ceiling(
                rule, PAIR, s, n, horizon, seed=303, sample=f0
            )
            slack = 3.0 * math.hypot(pollak.std_error, bound.std_error)
            checked += 1
            if pollak.value > bound.value + slack:
                violations.append(
                    f"{name}/s={s}: {pollak.value:.4f} > {bound.value:.4f} + {slack:.4f}"
                )
    _report(
        3,
        not violations,
        f"conditional-detection sum <= ceiling + 3 SE on all {checked} "
        f"(rule, schedule) pairs" + ("; " + "; ".join(violations) if violations else ""),
    )


def test_criterion_4_shewhart_achieves_the_bound():
    n = 100_000
    sched = ChangeSchedule(onsets=(5, 10, 15), duration=1, horizon=15)
    problems = []
    details = []
    for eta in (10.0, 100.0, 1000.0):
        det = calibrate(PAIR, eta)
        closed = sched.s * detect_prob(1.0, eta)
        pollak = estimate_pollak(det, PAIR, sched, n, seed=404)
        bound = estimate_optimality_ceiling(det, PAIR, sched.s, n, int(20 * eta), seed=405)
        gap_tol = 3.0 * math.hypot(pollak.std_error, bound.std_error)
        details.append(
            f"eta={eta:g}: sum={pollak.value:.4f}, ceiling={bound.value:.4f}, closed={closed:.4f}"
        )
        if abs(pollak.value - bound.value) > gap_tol:
            problems.append(f"gap at eta={eta:g}")
        if abs(pollak.value - closed) > 3.0 * pollak.std_error:
            problems.append(f"sum vs closed form at eta={eta:g}")
        if abs(bound.value - closed) > 3.0 * bound.std_error:
            problems.append(f"ceiling vs closed form at eta={eta:g}")
    _report(4, not problems, "; ".join(details + problems))


@pytest.fixture(scope="module")
def detection_curves_rows():
    return run_eta_sweep(load_preset("detection_curves"))


DETECTION_CURVES_CSV_SHA256 = "15e1593aae40cb950e43595aa5c942888d995d1e3ee31d1dc2a0a1dd7b115926"
MEAN_SWEEP_CSV_SHA256 = "87cf76dd2d953d51c256918fe41d049acafa560ab63b01920ffa83046d9c07da"
FULL_SCALE_CSV_SHA256 = "62154e797f1d95fe30edbd268f915cd4ba4629e0fcc8decf351673f2d78a1b57"


def assert_report_bytes(preset, rows, expected):
    """The preset's report CSV, rendered from rows already computed, has the
    pinned sha256."""
    text = render_report_csv(rows, load_preset(preset))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == expected, (
        f"the {preset} preset's report CSV changed: the Monte Carlo streams or the "
        "report format differ. If the change is intended, update its pinned sha256 "
        "and record the new hash in CHANGES.md."
    )


def test_detection_curves_report_bytes_are_pinned(detection_curves_rows):
    # the module's sweep, rendered: no rerun
    assert_report_bytes("detection_curves", detection_curves_rows, DETECTION_CURVES_CSV_SHA256)


#: per-row two-sided level of the check that a row's ``pollak`` meets its
#: ``bound``: Bonferroni at a family level of 1e-3 over every row of the
#: four shipped presets (detection_curves 6, acceptance 2, mean_sweep 4,
#: full_scale 6)
CEILING_LEVEL = 1e-3 / 18


def pollak_meets_bound(rows):
    """Criterion 4 on the artifact: each row's conditional-detection sum
    against its ceiling, ``z = (pollak - bound) / hypot(pollak_se,
    bound_se)`` within the two-sided :data:`CEILING_LEVEL`.  Returns one z
    per row and the failed checks."""
    z_max = norm_upper_quantile(CEILING_LEVEL / 2)
    details, problems = [], []
    for row in rows:
        z = (row.pollak - row.bound) / math.hypot(row.pollak_se, row.bound_se)
        details.append(f"eta={row.eta:g} mu1={row.mu1:g}: pollak-bound z={z:+.2f}")
        if not abs(z) <= z_max:
            problems.append(f"pollak {row.pollak} vs bound {row.bound} at eta={row.eta:g}")
    return details, problems


def test_detection_curves_rows_meet_their_ceiling(detection_curves_rows):
    details, problems = pollak_meets_bound(detection_curves_rows)
    _report("4 on detection_curves", not problems, "; ".join(details + problems))


def test_criterion_5_detect_first_vs_any_curves(detection_curves_rows):
    rows = detection_curves_rows
    problems = []
    if not all(r.detect_any >= r.detect_first for r in rows):
        problems.append("detect_any < detect_first somewhere")
    firsts = [r.detect_first for r in rows]
    if count_increases(firsts) > 1:
        problems.append(f"detect_first not nonincreasing: {firsts}")
    gaps = [r.detect_any - r.detect_first for r in rows]
    if count_decreases(gaps) > 0:
        problems.append(f"any/first gap not nondecreasing: {gaps}")
    detail = (
        "eta grid "
        + str([int(r.eta) for r in rows])
        + ": detect_first "
        + str([round(v, 4) for v in firsts])
        + ", gap "
        + str([round(g, 4) for g in gaps])
    )
    _report(5, not problems, detail + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_6_missed_counts_grow_with_the_budget(detection_curves_rows):
    missed = [r.avg_missed for r in detection_curves_rows]
    ok = count_decreases(missed) <= 1
    _report(6, ok, f"avg_missed by eta: {[round(v, 3) for v in missed]}")


def restart_exact_cells(pair, eta, s, n):
    """(value, exact SE) per checked column of a restart row of the
    calibrated Shewhart rule, each SE taken at the true value."""
    p0 = 1.0 / eta
    p1 = pair.lr_tail_prob_f1(calibrate(pair, eta).alpha)
    q = 1.0 - p1
    # missed onsets: min(G - 1, s) for G ~ Geometric(p1), so P(M >= k) = q^k
    k = np.arange(1, s + 1)
    missed = float((q**k).sum())
    missed_var = float(((2 * k - 1) * q**k).sum()) - missed**2
    # bound: s * mean(l_tau) / mean(tau) under F0, where tau ~ Geometric(p0)
    # and l_tau is independent of tau with E[l_tau] = p1 / p0 and, for the
    # Gaussian pair, E[l_tau^2] = exp(a^2) * Q(c - 2a) / p0 (shift a, cut c)
    a = (pair.mean1 - pair.mean0) / pair.sigma
    c = norm_upper_quantile(p0)
    l2 = math.exp(a * a) * norm_upper_tail(c - 2 * a) / p0
    bound_rel_var = l2 / (p1 / p0) ** 2 - 1.0 + (1.0 - p0)
    detect_any = 1.0 - q**s
    # pollak: the pooled sum s * H / M, where the M onsets reached number
    # n * (E[missed] + detect_any) on average
    return {
        "detect_first": (p1, math.sqrt(p1 * q / n)),
        "detect_any": (detect_any, math.sqrt(detect_any * (1.0 - detect_any) / n)),
        "avg_missed": (missed, math.sqrt(missed_var / n)),
        "arl": (eta, math.sqrt((eta * eta - eta) / n)),
        "bound": (s * p1, s * p1 * math.sqrt(bound_rel_var / n)),
        "pollak": (s * p1, s * math.sqrt(p1 * q / (n * (missed + detect_any)))),
    }


def referee_restart_rows(config, rows, level):
    """Check every cell of the restart ``rows`` against
    :func:`restart_exact_cells`, each check at the two-sided ``level``.

    ``detect_first`` and ``detect_any`` take the exact binomial test: their
    misses can be Poisson-rare (``detect_any`` at eta 100 over 2,000 runs
    expects 0.12), and a z check at the true SE would fail on 2 of them,
    about 0.7% of redraws.  The other cells take the z test at the true SE;
    a cell whose exact SE is 0 must match exactly.  Returns one detail line
    per row and the failed checks.
    """
    from scipy import stats as scipy_stats

    z_max = norm_upper_quantile(level / 2)
    details = []
    problems = []
    for row in rows:
        n = row.n_trials
        checks = []
        for name, (exact, se) in restart_exact_cells(config.pair, row.eta, row.s, n).items():
            value = getattr(row, name)
            if name in ("detect_first", "detect_any"):
                pvalue = scipy_stats.binomtest(round(value * n), n, exact).pvalue
                ok = pvalue >= level
                checks.append(f"p={pvalue:.3g}")
            elif se == 0.0:
                ok = value == exact
                checks.append("exact" if ok else "off")
            else:
                z = (value - exact) / se
                ok = abs(z) <= z_max
                checks.append(f"z={z:+.2f}")
            if not ok:
                problems.append(f"{name} at eta={row.eta:g}: {value} vs exact {exact}")
        details.append(f"eta={row.eta:g} {checks}")
    return details, problems


#: per-check two-sided level of the closed-form referees: Bonferroni at a
#: family level of 1e-3 over each preset's rows x 6 cells
DETECTION_CURVES_REFEREE_LEVEL = 1e-3 / (6 * 6)
ACCEPTANCE_REFEREE_LEVEL = 1e-3 / (2 * 6)
FULL_SCALE_REFEREE_LEVEL = 1e-3 / (6 * 6)


def test_detection_curves_cells_match_the_restart_closed_forms(detection_curves_rows):
    # every restart cell of the calibrated rule has an exact referee
    config = load_preset("detection_curves")
    assert config.mode == "restart" and len(detection_curves_rows) == 6  # as the level counts
    details, problems = referee_restart_rows(
        config, detection_curves_rows, DETECTION_CURVES_REFEREE_LEVEL
    )
    _report("5-6 exact", not problems, "; ".join(details + problems))


def test_acceptance_cells_match_the_restart_closed_forms():
    # the same referee on the second shipped restart preset
    config = load_preset("acceptance")
    rows = run_eta_sweep(config)
    assert config.mode == "restart" and len(rows) == 2  # as the level counts
    details, problems = referee_restart_rows(config, rows, ACCEPTANCE_REFEREE_LEVEL)
    _report("acceptance exact", not problems, "; ".join(details + problems))
    details, problems = pollak_meets_bound(rows)
    _report("4 on acceptance", not problems, "; ".join(details + problems))


#: per-row two-sided level of criterion 7's check of ``pollak`` against
#: ``s * detect_prob``: Bonferroni at a family level of 1e-3 over its 4 rows
MEAN_SWEEP_POLLAK_LEVEL = 1e-3 / 4


def test_criterion_7_mean_sweep_matches_closed_form():
    config = load_preset("mean_sweep")
    rows = run_eta_sweep(config)
    assert config.mode == "restart" and len(rows) == 4  # as the levels count
    schedule = config.build_schedule()
    z_pollak = norm_upper_quantile(MEAN_SWEEP_POLLAK_LEVEL / 2)
    printed = {0.5: 0.0336, 1.0: 0.0924, 2.0: 0.3722, 3.0: 0.7501}
    problems = []
    details = []
    for row in rows:
        closed = detect_prob(row.mu1, row.eta)
        if abs(closed - printed[row.mu1]) > 5e-4:
            problems.append(f"closed form drifted from the documented value at mu={row.mu1}")
        # per-onset conditional detection, estimated two ways: the
        # first-onset conditional from the sweep's monitored runs, and the
        # direct term, one F1 sample per trial decided at the onset
        pair = GaussianMeanShift(mean0=0.0, mean1=row.mu1, sigma=1.0)
        det = calibrate(pair, row.eta)
        onset = schedule.onsets[0]
        sched = ChangeSchedule((onset,), 1, onset)
        cond = estimate_pollak(det, pair, sched, 40_000, seed=707).per_onset[0]
        details.append(f"mu={row.mu1:g}: {cond.value:.4f} (closed {closed:.4f})")
        if abs(cond.value - closed) > 3.0 * cond.std_error:
            problems.append(f"per-onset conditional detection off at mu={row.mu1:g}")
        if abs(row.detect_first - closed) > 3.0 * max(row.detect_first_se, 1e-3):
            problems.append(f"detect_first off at mu={row.mu1:g}")
        # the row's pooled sum against s * detect_prob, at the exact SE
        exact = row.s * closed
        _, se = restart_exact_cells(pair, row.eta, row.s, row.n_trials)["pollak"]
        z = (row.pollak - exact) / se
        details.append(f"mu={row.mu1:g}: pollak z={z:+.2f}")
        if not abs(z) <= z_pollak:
            problems.append(f"pollak {row.pollak} vs exact {exact} at mu={row.mu1:g}")
    missed = [r.avg_missed for r in rows]
    if not all(b < a for a, b in zip(missed, missed[1:])):
        problems.append(f"avg_missed not strictly decreasing in mu: {missed}")
    ceiling_details, ceiling_problems = pollak_meets_bound(rows)
    _report(7, not problems, "; ".join(details + problems))
    _report("4 on mean_sweep", not ceiling_problems, "; ".join(ceiling_details + ceiling_problems))
    assert_report_bytes("mean_sweep", rows, MEAN_SWEEP_CSV_SHA256)


def test_criterion_8_byte_identical_reruns_and_worker_counts(tmp_path):
    # a sweep runs its rows in one process, so reruns are all there is to compare
    config = load_preset("acceptance")
    csv_a, _ = run_experiment(config, tmp_path / "a")
    csv_b, _ = run_experiment(config, tmp_path / "b")
    rerun_ok = csv_a.read_bytes() == csv_b.read_bytes()
    _report(8, rerun_ok, f"rerun identical: {rerun_ok}")


def test_criterion_9_full_scale_preset():
    config = load_preset("full_scale")
    rows = run_eta_sweep(config)
    assert config.mode == "restart" and len(rows) == 6  # as the level counts
    details, problems = referee_restart_rows(config, rows, FULL_SCALE_REFEREE_LEVEL)
    ceiling_details, ceiling_problems = pollak_meets_bound(rows)
    details += ceiling_details
    problems += ceiling_problems
    if not all(r.detect_any >= r.detect_first for r in rows):
        problems.append("detect_any < detect_first somewhere")
    firsts = [r.detect_first for r in rows]
    if count_increases(firsts) > 1:
        problems.append(f"detect_first not nonincreasing: {firsts}")
    gaps = [r.detect_any - r.detect_first for r in rows]
    if count_decreases(gaps) > 0:
        problems.append(f"gap not nondecreasing: {gaps}")
    missed = [r.avg_missed for r in rows]
    if count_decreases(missed) > 1:
        problems.append(f"avg_missed not nondecreasing: {missed}")
    _report(
        9,
        not problems,
        f"horizon 1e5, s=1000: detect_first {[round(v, 4) for v in firsts]}, "
        f"avg_missed {[round(v, 2) for v in missed]}; "
        + "; ".join(details + problems),
    )
    assert_report_bytes("full_scale", rows, FULL_SCALE_CSV_SHA256)
