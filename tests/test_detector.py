import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from transientscan import (
    AlwaysStopRule,
    BernoulliStopRule,
    FixedTimeRule,
    GaussianMeanShift,
    ShewhartDetector,
    calibrate,
    equalizing_initial_stop,
)
from transientscan.distributions import norm_upper_quantile

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


class CountingSource:
    def __init__(self, values):
        self.values = list(values)
        self.consumed = 0

    def __iter__(self):
        for v in self.values:
            self.consumed += 1
            yield v


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_always_alarm_boundary():
    det = calibrate(PAIR, 1.0)
    assert det.alpha == 0.0
    assert det.per_sample_alarm_prob() == 1.0
    rng = np.random.default_rng(0)
    for x in (-10.0, 0.0, 4.2):
        assert det.step(x, rng)[0]
    assert det.run_stream([0.0, 0.0], rng) == 1


def test_calibrate_threshold_values():
    det100 = calibrate(PAIR, 100.0)
    assert det100.alpha == pytest.approx(6.211, abs=1e-3)
    assert det100.randomize_boundary is None
    assert PAIR.lr_tail_prob_f0(det100.alpha) == pytest.approx(0.01, abs=1e-9)
    det10 = calibrate(PAIR, 10.0)
    assert det10.alpha == pytest.approx(math.exp(norm_upper_quantile(0.1) - 0.5), rel=1e-12)
    assert PAIR.lr_tail_prob_f0(det10.alpha) == pytest.approx(0.1, abs=1e-9)


def test_calibrate_rejects_eta_below_one():
    with pytest.raises(ValueError):
        calibrate(PAIR, 0.5)
    with pytest.raises(ValueError):
        ShewhartDetector(pair=PAIR, alpha=1.0, eta=0.9)


def test_threshold_nondecreasing_in_eta():
    alphas = [calibrate(PAIR, eta).alpha for eta in (1, 2, 5, 10, 100, 1000, 10_000)]
    assert alphas == sorted(alphas)


@pytest.mark.parametrize("alpha, eta", [(math.nan, 2.0), (1.0, math.nan), (math.nan, math.nan)])
def test_detector_rejects_nan_thresholds(alpha, eta):
    with pytest.raises(ValueError):
        ShewhartDetector(pair=PAIR, alpha=alpha, eta=eta)


def test_calibrate_rejects_nan_eta():
    with pytest.raises(ValueError, match="eta must be >= 1"):
        calibrate(PAIR, math.nan)


def test_infinite_threshold_is_valid():
    # what ``detect --alpha`` builds when the threshold's tail is 0
    det = ShewhartDetector(pair=PAIR, alpha=math.inf, eta=math.inf)
    assert not det.step(40.0)[0]


def test_detector_field_validation():
    with pytest.raises(ValueError):
        ShewhartDetector(pair=PAIR, alpha=-1.0, eta=2.0)
    with pytest.raises(ValueError):
        ShewhartDetector(pair=PAIR, alpha=1.0, eta=2.0, initial_stop_prob=1.5)
    with pytest.raises(ValueError):
        ShewhartDetector(pair=PAIR, alpha=1.0, eta=2.0, randomize_boundary=-0.1)


# ---------------------------------------------------------------------------
# the per-sample decision


def test_step_examples():
    det = calibrate(PAIR, 100.0)
    assert det.step(0.5) == (False, 1.0)
    alarmed, lr = det.step(2.4)
    assert alarmed
    assert lr == pytest.approx(math.exp(1.9), rel=1e-12)


def test_step_closed_comparison_on_the_boundary():
    det = ShewhartDetector(pair=PAIR, alpha=1.0, eta=1.0 / PAIR.lr_tail_prob_f0(1.0))
    assert det.step(0.5) == (True, 1.0)


def test_step_is_stateless():
    det = calibrate(PAIR, 20.0)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=200)
    verdicts = [det.step(x)[0] for x in xs]
    perm = rng.permutation(200)
    shuffled = [det.step(x)[0] for x in xs[perm]]
    assert shuffled == [verdicts[i] for i in perm]


def test_alarm_mask_agrees_with_step():
    det = calibrate(PAIR, 30.0)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=500)
    times = np.arange(1, 501)
    mask = det.alarm_mask(times, xs, rng)
    lr = np.exp(PAIR.log_likelihood_ratio(xs))
    for values in (xs, xs.tolist()):  # np.float64 items, then Python floats
        assert [det.step(x) for x in values] == [(bool(m), float(v)) for m, v in zip(mask, lr)]


def test_pickled_detector_decides_the_same_bits():
    # the process pool ships detectors whose pair has its constants cached,
    # and whose log threshold is cached too
    det = calibrate(GaussianMeanShift(2.0, -0.4, 3.0), 30.0)
    xs = np.random.default_rng(12).normal(size=200).tolist()
    decisions = [det.step(x) for x in xs]
    mask = det.alarm_mask(np.ones(200), np.array(xs), np.random.default_rng(0))
    clone = pickle.loads(pickle.dumps(det))
    assert clone == det and hash(clone) == hash(det) and repr(clone) == repr(det)
    assert vars(clone)["log_alpha"] == det.log_alpha
    assert [clone.step(x) for x in xs] == decisions
    assert np.array_equal(clone.alarm_mask(np.ones(200), np.array(xs), None), mask)


def test_log_threshold_is_derived_not_a_field():
    det = calibrate(PAIR, 30.0)
    fields_before = dataclasses.fields(det)
    repr_before, hash_before = repr(det), hash(det)
    assert det.log_alpha == math.log(det.alpha)
    assert "log_alpha" in vars(det)  # cached on the instance
    twin = calibrate(PAIR, 30.0)  # nothing cached yet
    assert "log_alpha" not in vars(twin)
    assert dataclasses.fields(det) == fields_before
    assert [f.name for f in fields_before] == [
        "pair", "alpha", "eta", "initial_stop_prob", "randomize_boundary"
    ]
    assert det == twin and hash(det) == hash(twin) == hash_before
    assert repr(det) == repr(twin) == repr_before and "log_alpha" not in repr_before
    # alpha stays the constructor argument
    assert ShewhartDetector(PAIR, alpha=det.alpha, eta=30.0) == twin


def test_alarm_mask_keeps_its_shape_contract_and_never_writes_x():
    det = calibrate(PAIR, 30.0)
    x = np.random.default_rng(13).normal(0.0, 2.0, size=(7, 11))
    x.flags.writeable = False  # a write into the caller's x would raise
    copy = x.copy()
    mask = det.alarm_mask(np.ones(x.shape), x, None)
    assert mask.shape == x.shape and mask.dtype == bool and mask.any() and not mask.all()
    assert np.array_equal(x, copy)
    assert mask.tolist() == [[det.step(float(v))[0] for v in row] for row in x]
    for scalar in (2.4, np.float64(2.4), np.asarray(2.4)):
        one = det.alarm_mask(np.ones(()), scalar, None)
        assert one.shape == (1,) and one[0] == det.step(2.4)[0]


#: the pair whose log ratio is the sample itself: shift 1, midpoint 0, sigma 1
IDENTITY_PAIR = GaussianMeanShift(mean0=-0.5, mean1=0.5)
THRESHOLD_CASES = {
    "eta=2": calibrate(IDENTITY_PAIR, 2.0),
    "eta=100": calibrate(IDENTITY_PAIR, 100.0),
    "eta=1e6": calibrate(IDENTITY_PAIR, 1e6),
    "mean1=38": calibrate(GaussianMeanShift(0.0, 38.0), 2.0),  # subnormal alpha
    "alpha=0": ShewhartDetector(IDENTITY_PAIR, alpha=0.0, eta=1.0),
    "alpha=inf": ShewhartDetector(IDENTITY_PAIR, alpha=math.inf, eta=math.inf),
}


def boundary_samples(det):
    """Samples whose log ratio is ``log_alpha`` or one of its float neighbours
    (exactly so on the identity pair), within a window that straddles it."""
    la = det.log_alpha
    if not math.isfinite(la):
        big = np.finfo(float).max
        return np.array([-math.inf, -big, -1e300, -1.0, 0.0, 1.0, 1e300, big, math.inf, math.nan])
    pair = det.pair
    shift, mid = pair.mean1 - pair.mean0, 0.5 * (pair.mean0 + pair.mean1)
    x0 = mid + la * pair.sigma**2 / shift
    step = max(abs(np.spacing(x0)), abs(np.spacing(la)) * pair.sigma**2 / abs(shift))
    return x0 + np.arange(-64, 65) * (step / 4)


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_step_and_alarm_mask_agree_at_the_log_threshold(case):
    det = THRESHOLD_CASES[case]
    assert det.randomize_boundary is None
    if case == "mean1=38":
        assert 0.0 < det.alpha < np.finfo(float).tiny
    x = boundary_samples(det)
    la = det.log_alpha
    llr = np.asarray(det.pair.log_likelihood_ratio(x))
    if math.isfinite(la):
        assert (llr < la).any() and (llr >= la).any()
    if det.pair == IDENTITY_PAIR and math.isfinite(la):
        assert np.array_equal(llr, x)
        assert {math.nextafter(la, -math.inf), la, math.nextafter(la, math.inf)} <= set(x.tolist())
    steps = [det.step(float(v))[0] for v in x]
    mask = det.alarm_mask(np.ones(x.shape), x, None)
    assert steps == mask.tolist()
    assert mask.tolist() == (llr >= la).tolist()


def test_step_is_silent_when_the_ratio_overflows():
    # past exp's range the ratio is inf and no warning is raised; just inside
    # the guard it is the same double np.exp gives
    det = calibrate(PAIR, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert det.step(1e300) == (True, math.inf)
        assert det.step(-1e300) == (False, 0.0)
        assert det.step(710.0) == (True, float(np.exp(709.5)))


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_log_threshold_keeps_the_ratio_verdicts_on_a_million_draws(case):
    # the decision was exp(llr) >= alpha; on draws of either law no verdict moves
    det = THRESHOLD_CASES[case]
    rng = np.random.default_rng(2026)
    for law in ("nominal", "alternative"):
        x = det.pair.sample(law, rng, 1_000_000)
        with np.errstate(over="ignore"):
            ratio_verdicts = np.exp(det.pair.log_likelihood_ratio(x)) >= det.alpha
        moved = int(np.count_nonzero(det.alarm_mask(np.ones(x.size), x, None) != ratio_verdicts))
        print(f"{case} {law}: {moved} of {x.size} verdicts differ from exp(llr) >= alpha")
        assert moved == 0


# ---------------------------------------------------------------------------
# streaming


def test_run_stream_examples():
    strict = ShewhartDetector(pair=PAIR, alpha=6.211, eta=100.0)
    loose = ShewhartDetector(pair=PAIR, alpha=1.5, eta=2.0)
    # l(3.0) = e^2.5 ~ 12.18 crosses both thresholds
    assert strict.run_stream([0.5, 0.5, 3.0]) == 3
    assert loose.run_stream([0.5, 0.5, 3.0]) == 3
    # l(1.5) = e ~ 2.72 separates them: only the looser threshold alarms
    assert strict.run_stream([0.5, 0.5, 1.5]) is None
    assert loose.run_stream([0.5, 0.5, 1.5]) == 3
    assert loose.step(1.5)[1] == pytest.approx(math.e, rel=1e-12)


def test_initial_stop_consumes_nothing():
    det = dataclasses.replace(calibrate(PAIR, 50.0), initial_stop_prob=1.0)
    source = CountingSource([0.0, 0.0, 0.0])
    assert det.run_stream(source, np.random.default_rng(0)) == 0
    assert source.consumed == 0


def test_initial_stop_requires_rng():
    det = dataclasses.replace(calibrate(PAIR, 50.0), initial_stop_prob=0.5)
    with pytest.raises(ValueError):
        det.run_stream([0.0])


def test_run_stream_geometric_mean():
    det = calibrate(PAIR, 5.0)
    rng = np.random.default_rng(314)
    taus = []
    for _ in range(500):
        taus.append(det.run_stream(iter(rng.normal(0.0, 1.0, 200).tolist()), rng))
    taus = np.asarray(taus, dtype=float)
    assert not np.isnan(taus).any()
    se = math.sqrt(5.0**2 - 5.0) / math.sqrt(len(taus))
    assert abs(taus.mean() - 5.0) <= 3 * se


def test_equalizing_initial_stop():
    assert equalizing_initial_stop(100.0, 150.0) == pytest.approx(1.0 / 3.0)
    assert equalizing_initial_stop(100.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        equalizing_initial_stop(100.0, 80.0)


# ---------------------------------------------------------------------------
# atomic ratios: conservative threshold plus boundary randomization


#: (eta, threshold on the top atom l(1)?, boundary alarm rate) for the two-point pair
TWO_POINT_BUDGETS = [
    (1.25, False, 0.75), (2.0, False, 0.375), (4.0, False, 0.0625), (5.0, False, 0.0),
    (10.0, True, 0.5),
]
#: level of each binomial check below, fixed before they were run:
#: Bonferroni at a family level of 1e-3 over the budgets
TWO_POINT_LEVEL = 1e-3 / len(TWO_POINT_BUDGETS)


def test_calibrate_two_point_pair(two_point_pair):
    # l(1) ~ 3 with F0-mass 0.2, l(0) = 0.5 with mass 0.8; a target 1/eta
    # above 0.2 falls inside the atom at 0.5, so the boundary alarm rate is
    # (1/eta - 0.2) / 0.8; the target 0.1 falls inside the atom at l(1).
    from scipy import stats as scipy_stats

    for eta, at_top_atom, boundary in TWO_POINT_BUDGETS:
        det = calibrate(two_point_pair, eta)
        assert det.alpha == (two_point_pair.likelihood_ratio(1.0) if at_top_atom else 0.5), eta
        assert det.randomize_boundary == pytest.approx(boundary, rel=1e-12, abs=0.0), eta
        assert det.per_sample_alarm_prob() == pytest.approx(1.0 / eta, rel=1e-12, abs=0.0), eta
        rng = np.random.default_rng(10)
        n = 200_000
        x = two_point_pair.sample("nominal", rng, n)
        hits = int(det.alarm_mask(np.arange(1, n + 1), x, rng).sum())
        assert scipy_stats.binomtest(hits, n, 1.0 / eta).pvalue >= TWO_POINT_LEVEL, eta


class ConstantUniforms:
    """A stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)


def exact_alarm_rate(det, pair):
    """P0(alarm) of ``det.alarm_mask`` over the support {0, 1}: a sample
    whose verdict moves with the uniform sits on the atom, and alarms with
    probability P(U < randomize_boundary) = randomize_boundary."""
    rate = 0.0
    for x, mass in ((0.0, 1.0 - pair.p0), (1.0, pair.p0)):
        always, never = (det.alarm_mask(np.ones(1), np.array([x]), ConstantUniforms(u))[0]
                         for u in (0.0, 1.0))
        rate += mass * (float(always) if always == never else det.randomize_boundary)
    return rate


@pytest.mark.parametrize("randomize_boundary", [None, 0.25])
def test_alarm_prob_matches_alarm_mask_around_each_atom(two_point_pair, randomize_boundary):
    # the exact laws compare the atoms as the pair computes them, so even
    # alpha = 3.0, one ulp above l(1) = 2.9999999999999996, agrees with the mask
    thresholds = [3.0]
    for atom, _, _ in two_point_pair.atoms():
        thresholds += [math.nextafter(atom, 0.0), atom, math.nextafter(atom, math.inf)]
    for alpha in thresholds:
        det = ShewhartDetector(
            pair=two_point_pair, alpha=alpha, eta=math.inf, randomize_boundary=randomize_boundary
        )
        assert det.per_sample_alarm_prob() == exact_alarm_rate(det, two_point_pair), alpha


def test_boundary_step_uses_rng(two_point_pair):
    det = calibrate(two_point_pair, 4.0)
    with pytest.raises(ValueError):
        det.step(0.0)  # lands exactly on the atom, needs randomization
    rng = np.random.default_rng(0)
    outcomes = {det.step(0.0, rng)[0] for _ in range(500)}
    assert outcomes == {True, False}
    assert det.step(1.0, rng)[0]


# ---------------------------------------------------------------------------
# plug-in rules for bound testing


def test_always_stop_rule():
    rule = AlwaysStopRule()
    mask = rule.alarm_mask(np.arange(1, 6), np.zeros(5), np.random.default_rng(0))
    assert mask.all()
    assert rule.memoryless


def test_fixed_time_rule():
    rule = FixedTimeRule(stop_at=3)
    mask = rule.alarm_mask(np.arange(1, 8), np.zeros(7), np.random.default_rng(0))
    assert mask.tolist() == [False, False, True, False, False, False, False]
    assert not rule.memoryless
    with pytest.raises(ValueError):
        FixedTimeRule(stop_at=0)


def test_bernoulli_rule():
    rule = BernoulliStopRule(stop_prob=0.3)
    rng = np.random.default_rng(1)
    mask = rule.alarm_mask(np.arange(1, 100_001), np.zeros(100_000), rng)
    assert abs(mask.mean() - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / 100_000)
    with pytest.raises(ValueError):
        BernoulliStopRule(stop_prob=0.0)
