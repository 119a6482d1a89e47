import copy
import dataclasses
import math
import pickle
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transientscan import (
    AlwaysStopRule,
    BernoulliStopRule,
    FixedTimeRule,
    GaussianMeanShift,
    ShewhartDetector,
    calibrate,
)
from transientscan.detector import CALIBRATION_TOL, CalibrationError
from transientscan.distributions import norm_upper_quantile, norm_upper_tail

from oracles import run_stream

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
    assert run_stream(det, [0.0, 0.0], rng) == 1


def test_calibrate_threshold_values():
    det100 = calibrate(PAIR, 100.0)
    assert det100.alpha == pytest.approx(6.211, abs=1e-3)
    assert det100.randomize_boundary is None
    assert PAIR.lr_tail_prob_f0(det100.alpha) == pytest.approx(0.01, abs=1e-9)
    det10 = calibrate(PAIR, 10.0)
    assert det10.alpha == pytest.approx(math.exp(norm_upper_quantile(0.1) - 0.5), rel=1e-12)
    assert PAIR.lr_tail_prob_f0(det10.alpha) == pytest.approx(0.1, abs=1e-9)


def test_calibrate_reaches_its_tail_at_sigma_near_the_top_of_the_floats():
    # sigma**2 is 1e308, so the quantile must not form 2 * sigma**2
    pair = GaussianMeanShift(0.0, 1e154, 1e154)
    det = calibrate(pair, 100.0)
    assert det.randomize_boundary is None
    assert abs(det.per_sample_alarm_prob() - 0.01) <= CALIBRATION_TOL
    assert det.alpha == pytest.approx(calibrate(PAIR, 100.0).alpha, rel=1e-12)


@pytest.mark.parametrize("mean1", [40.0, -40.0, 400.0])
def test_calibrate_names_a_threshold_that_underflows(mean1):
    # the F0 median of the log ratio is -mean1**2 / 2, below the log of the
    # smallest positive float (about -745), so the threshold comes back 0.0
    with pytest.raises(CalibrationError, match="underflows below the smallest positive float"):
        calibrate(GaussianMeanShift(0.0, mean1, 1.0), 2.0)
    # a threshold that does not underflow still calibrates to its tail
    det = calibrate(GaussianMeanShift(0.0, math.copysign(30.0, mean1), 1.0), 2.0)
    assert det.alpha > 0.0
    assert abs(det.per_sample_alarm_prob() - 0.5) <= CALIBRATION_TOL


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


@pytest.mark.parametrize("eta", [math.inf, 1e400, -math.inf, 0.5])
def test_calibrate_names_an_eta_it_cannot_solve_for(eta):
    # an infinite eta reached the quantile as p = 0 and named p, an argument
    # the caller never passed
    with pytest.raises(ValueError, match=rf"^eta must be >= 1 and finite, got {eta}$"):
        calibrate(PAIR, eta)


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
    lr = [math.exp(v) for v in PAIR.log_likelihood_ratio(xs)]
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


#: samples at the edges of the floats: signed zeros, subnormals, the largest
#: magnitudes (whose log ratio overflows exp, or the float range itself)
EDGE_SAMPLES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -2.225e-308, 1e308, -1e308, 710.0]


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=300, deadline=None)
@given(
    mean0=st.floats(-1e3, 1e3),
    shift=st.floats(1e-3, 1e3),
    negative=st.booleans(),
    sigma=st.floats(1e-3, 1e3),
    alpha=st.floats(0.0, math.inf),
    xs=st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_SAMPLES)), max_size=8),
)
def test_built_step_matches_the_log_ratio_bit_for_bit(mean0, shift, negative, sigma, alpha, xs):
    mean1 = mean0 - shift if negative else mean0 + shift
    assume(mean0 != mean1)
    pair = GaussianMeanShift(mean0, mean1, sigma)
    det = ShewhartDetector(pair=pair, alpha=alpha, eta=math.inf)
    step = det.step
    assert det.step is step and step is not ShewhartDetector.step
    # a log ratio near 1000: finite, but past exp's range (the overflow branch)
    beyond_exp = 0.5 * (mean0 + mean1) + 1000.0 * sigma**2 / (mean1 - mean0)
    assert 709.79 < pair.log_likelihood_ratio(beyond_exp) < math.inf
    for x in xs + EDGE_SAMPLES + [beyond_exp]:
        llr = pair.log_likelihood_ratio(x)
        # the pair's float function is the float branch, and the array path's bits
        assert _bits(pair.float_log_ratio(x)) == _bits(llr)
        with np.errstate(over="ignore"):
            (from_array,) = pair.log_likelihood_ratio(np.array([x]))
        assert _bits(from_array) == _bits(llr)
        try:
            lr = math.exp(llr)
        except OverflowError:
            lr = math.inf
        for sample in (x, np.float64(x)):
            hit, got = step(sample)
            assert type(hit) is bool and type(got) is float
            assert hit == (llr >= det.log_alpha) and _bits(got) == _bits(lr), (sample, alpha)
            assert ShewhartDetector.step(det, sample) == (hit, got)


def test_copies_of_a_stepped_detector_build_their_own_step():
    det = calibrate(GaussianMeanShift(2.0, -0.4, 3.0), 30.0)
    xs = np.random.default_rng(13).normal(-0.4, 3.0, size=200).tolist()  # F1 draws
    decisions = [det.step(x) for x in xs]
    assert {"step", "log_alpha"} <= vars(det).keys()
    assert "float_log_ratio" in vars(det.pair)
    for clone in (pickle.loads(pickle.dumps(det)), copy.deepcopy(det), copy.copy(det)):
        assert clone == det and "step" not in vars(clone)
        assert vars(clone)["log_alpha"] == det.log_alpha
        assert [clone.step(x) for x in xs] == decisions
        assert clone.step is not det.step
    pair = pickle.loads(pickle.dumps(det.pair))
    assert pair == det.pair and "float_log_ratio" not in vars(pair)
    assert pair.float_log_ratio is not det.pair.float_log_ratio
    # a replaced threshold decides with its own closure, not the cached one
    stricter = dataclasses.replace(det, alpha=det.alpha * 4.0)
    assert "step" not in vars(stricter)
    moved = [x for x, (hit, _) in zip(xs, decisions) if hit != stricter.step(x)[0]]
    assert moved and all(
        stricter.step(x)[0] == (det.pair.log_likelihood_ratio(x) >= math.log(stricter.alpha))
        for x in xs
    )


def test_log_threshold_is_derived_not_a_field():
    det = calibrate(PAIR, 30.0)
    fields_before = dataclasses.fields(det)
    repr_before, hash_before = repr(det), hash(det)
    assert det.log_alpha == math.log(det.alpha)
    assert det.sample_edge == PAIR.log_ratio_edge(det.log_alpha)
    assert {"log_alpha", "sample_edge"} <= vars(det).keys()  # cached on the instance
    twin = calibrate(PAIR, 30.0)  # nothing cached yet
    assert not {"log_alpha", "sample_edge"} & vars(twin).keys()
    assert dataclasses.fields(det) == fields_before
    assert [f.name for f in fields_before] == [
        "pair", "alpha", "eta", "initial_stop_prob", "randomize_boundary"
    ]
    assert det == twin and hash(det) == hash(twin) == hash_before
    assert repr(det) == repr(twin) == repr_before
    assert "log_alpha" not in repr_before and "sample_edge" not in repr_before
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
    "shift<0": calibrate(GaussianMeanShift(0.5, -0.5), 100.0),
    "sigma=1e-3": calibrate(GaussianMeanShift(0.0, 2e-3, 1e-3), 100.0),
    "sigma=1e3": calibrate(GaussianMeanShift(0.0, 2e3, 1e3), 100.0),
    # (x - mid) * shift overflows at the edge, and so does la * sigma**2
    "product overflows": calibrate(GaussianMeanShift(0.0, 7e153, 7e153), 1e6),
    # every x - mid past one float of the midpoint overflows the product
    "shift=1e300": ShewhartDetector(GaussianMeanShift(0.0, 1e300, 1e150), math.e, math.inf),
}


def boundary_samples(det):
    """Samples whose log ratio is ``log_alpha`` or one of its float neighbours
    (exactly so on the identity pair), within a window that straddles it,
    then the detector's sample-space edge and its float neighbours."""
    la = det.log_alpha
    if not math.isfinite(la):
        big = np.finfo(float).max
        x = np.array([-math.inf, -big, -1e300, -1.0, 0.0, 1.0, 1e300, big, math.inf, math.nan])
    else:
        pair = det.pair
        shift, mid = pair.mean1 - pair.mean0, 0.5 * (pair.mean0 + pair.mean1)
        x0 = mid + la * pair.sigma**2 / shift
        if not math.isfinite(x0):  # the closed form overflowed: centre on the edge
            x0 = det.sample_edge[0]
        step = max(abs(np.spacing(x0)), abs(np.spacing(la)) * pair.sigma**2 / abs(shift))
        x = x0 + np.arange(-64, 65) * (step / 4)
    edge = det.sample_edge[0]
    return np.append(x, [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)])


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_step_and_alarm_mask_agree_at_the_log_threshold(case):
    det = THRESHOLD_CASES[case]
    assert det.randomize_boundary is None
    if case == "mean1=38":
        assert 0.0 < det.alpha < np.finfo(float).tiny
    x = boundary_samples(det)
    la = det.log_alpha
    with np.errstate(over="ignore"):  # the product overflows on some pairs
        llr = np.asarray(det.pair.log_likelihood_ratio(x))
    if math.isfinite(la):
        assert (llr < la).any() and (llr >= la).any()
    if det.pair == IDENTITY_PAIR and math.isfinite(la):
        assert np.array_equal(llr, x)
        assert {math.nextafter(la, -math.inf), la, math.nextafter(la, math.inf)} <= set(x.tolist())
    # the edge passes and the float beyond it on the failing side does not
    # (at an infinite edge that float is the edge itself)
    edge, upper = det.sample_edge
    inward = math.nextafter(edge, math.inf if upper else -math.inf)
    outward = math.nextafter(edge, -math.inf if upper else math.inf)
    assert det.step(edge)[0] and det.step(inward)[0]
    assert outward == edge or not det.step(outward)[0]
    steps = [det.step(float(v))[0] for v in x]
    mask = det.alarm_mask(np.ones(x.shape), x, None)
    assert steps == mask.tolist()
    assert mask.tolist() == (llr >= la).tolist()


def test_step_is_silent_when_the_ratio_overflows():
    # past exp's range the ratio is inf and no warning is raised; just inside
    # it the ratio is the same double math.exp gives
    det = calibrate(PAIR, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert det.step(1e300) == (True, math.inf)
        assert det.step(-1e300) == (False, 0.0)
        assert det.step(710.0) == (True, math.exp(709.5))


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
    assert run_stream(strict, [0.5, 0.5, 3.0]) == 3
    assert run_stream(loose, [0.5, 0.5, 3.0]) == 3
    # l(1.5) = e ~ 2.72 separates them: only the looser threshold alarms
    assert run_stream(strict, [0.5, 0.5, 1.5]) is None
    assert run_stream(loose, [0.5, 0.5, 1.5]) == 3
    assert loose.step(1.5)[1] == pytest.approx(math.e, rel=1e-12)


def test_initial_stop_consumes_nothing():
    det = dataclasses.replace(calibrate(PAIR, 50.0), initial_stop_prob=1.0)
    source = CountingSource([0.0, 0.0, 0.0])
    assert run_stream(det, source, np.random.default_rng(0)) == 0
    assert source.consumed == 0


def test_initial_stop_requires_rng():
    det = dataclasses.replace(calibrate(PAIR, 50.0), initial_stop_prob=0.5)
    with pytest.raises(ValueError):
        run_stream(det, [0.0])


def test_run_stream_geometric_mean():
    det = calibrate(PAIR, 5.0)
    rng = np.random.default_rng(314)
    taus = []
    for _ in range(500):
        taus.append(run_stream(det, iter(rng.normal(0.0, 1.0, 200).tolist()), rng))
    taus = np.asarray(taus, dtype=float)
    assert not np.isnan(taus).any()
    se = math.sqrt(5.0**2 - 5.0) / math.sqrt(len(taus))
    assert abs(taus.mean() - 5.0) <= 3 * se


def test_equalizing_initial_stop():
    # the initial stop that brings an overshooting rule's mean run length
    # down to eta solves (1 - pi0) * mean_run_length = eta
    def equalizing_initial_stop(eta, mean_run_length):
        return 1.0 - eta / mean_run_length

    assert equalizing_initial_stop(100.0, 150.0) == pytest.approx(1.0 / 3.0)
    assert equalizing_initial_stop(100.0, 100.0) == 0.0
    assert equalizing_initial_stop(100.0, 80.0) < 0.0  # nothing to equalize


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


def exact_alarm_rate(det, pair, law="nominal"):
    """P(alarm) of ``det.alarm_mask`` over the support {0, 1} under ``law``:
    a sample whose verdict moves with the uniform sits on the atom, and
    alarms with probability P(U < randomize_boundary) = randomize_boundary."""
    p = pair.p0 if law == "nominal" else pair.p1
    rate = 0.0
    for x, mass in ((0.0, 1.0 - p), (1.0, p)):
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
        # c1 takes each atom's F1 mass as alpha times its F0 mass: equal up to rounding
        c0, c1 = (det.alarm_probs(np.ones(1), law)[0] for law in ("nominal", "alternative"))
        assert c0 == det.per_sample_alarm_prob(), alpha
        assert c1 == pytest.approx(
            exact_alarm_rate(det, two_point_pair, "alternative"), rel=1e-12, abs=1e-15
        ), alpha


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
    with pytest.raises(ValueError, match="^stop_at must be >= 1, got 0$"):
        FixedTimeRule(stop_at=0)
    # numpy's integers are stored as int
    for stop_at in (np.int64(3), np.uint8(3)):
        assert type(FixedTimeRule(stop_at).stop_at) is int and FixedTimeRule(stop_at) == rule


@pytest.mark.parametrize("stop_at", [2.5, 3.0, True, "3", None, np.float64(3.0)])
def test_fixed_time_rule_refuses_a_stop_time_that_is_not_an_integer(stop_at):
    # 2.5 never alarmed, True stopped at 1 and "3" failed its comparison
    with pytest.raises(ValueError, match=rf"^stop_at must be an integer, got {re.escape(repr(stop_at))}$"):
        FixedTimeRule(stop_at)


def test_bernoulli_rule():
    rule = BernoulliStopRule(stop_prob=0.3)
    rng = np.random.default_rng(1)
    mask = rule.alarm_mask(np.arange(1, 100_001), np.zeros(100_000), rng)
    assert abs(mask.mean() - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / 100_000)
    with pytest.raises(ValueError):
        BernoulliStopRule(stop_prob=0.0)


# ---------------------------------------------------------------------------
# per-time alarm laws: c0(t) and c1(t) of every shipped rule


def closed_form_laws(rule, times):
    """``(c0, c1)`` at ``times`` as each rule's definition gives them."""
    if isinstance(rule, ShewhartDetector):  # on PAIR: P(X >= edge) with X ~ N(0 or 1, 1)
        c1 = norm_upper_tail(norm_upper_quantile(1.0 / rule.eta) - 1.0) if rule.eta > 1.0 else 1.0
        return np.full(times.shape, 1.0 / rule.eta), np.full(times.shape, c1)
    if isinstance(rule, AlwaysStopRule):
        return np.ones(times.shape), np.ones(times.shape)
    if isinstance(rule, FixedTimeRule):
        at = (times == rule.stop_at).astype(float)
        return at, at
    return np.full(times.shape, rule.stop_prob), np.full(times.shape, rule.stop_prob)


LAW_RULES = (
    calibrate(PAIR, 1.0), calibrate(PAIR, 10.0), calibrate(PAIR, 100.0), AlwaysStopRule(),
    FixedTimeRule(3), FixedTimeRule(50), BernoulliStopRule(0.1), BernoulliStopRule(1.0),
)


@pytest.mark.parametrize("rule", LAW_RULES, ids=repr)
def test_alarm_probs_match_each_rules_closed_form(rule):
    times = np.arange(1, 13).reshape(3, 4)
    for law, exact in zip(("nominal", "alternative"), closed_form_laws(rule, times)):
        c = rule.alarm_probs(times, law)
        assert c.shape == times.shape and c.dtype == float
        np.testing.assert_allclose(c, exact, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="which"):
        rule.alarm_probs(times, "F1")


def test_alarm_probs_of_a_threshold_that_never_alarms():
    det = ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)
    for law in ("nominal", "alternative"):
        assert det.alarm_probs(np.arange(1, 4), law).tolist() == [0.0, 0.0, 0.0]


def frequency_rules(two_point_pair):
    """The rules whose laws are checked against their verdicts below, each
    with its pair: the Gaussian edge, the two-point atoms (boundary rates
    0.0625 on l(0) = 0.5 and 0.5 on l(1)) and the three plug-in rules."""
    return (
        (PAIR, calibrate(PAIR, 10.0)),
        (PAIR, calibrate(PAIR, 100.0)),
        (two_point_pair, calibrate(two_point_pair, 4.0)),
        (two_point_pair, calibrate(two_point_pair, 10.0)),
        (PAIR, AlwaysStopRule()),
        (PAIR, FixedTimeRule(3)),
        (PAIR, BernoulliStopRule(0.1)),
    )


FREQUENCY_TIMES = np.arange(1, 6)
#: level of each exact binomial test below, fixed before they were run:
#: Bonferroni at a family level of 1e-3 over the 7 rules' (law, time) cells
FREQUENCY_LEVEL = 1e-3 / (7 * 2 * FREQUENCY_TIMES.size)


def test_alarm_probs_match_the_alarm_frequencies(two_point_pair):
    from scipy import stats as scipy_stats

    n = 40_000
    rng = np.random.default_rng(2718)
    times = np.broadcast_to(FREQUENCY_TIMES, (n, FREQUENCY_TIMES.size))
    rules = frequency_rules(two_point_pair)
    assert len(rules) == 7
    for pair, rule in rules:
        for law in ("nominal", "alternative"):
            hits = rule.alarm_mask(times, pair.sample(law, rng, times.shape), rng).sum(axis=0)
            for t, h, c in zip(FREQUENCY_TIMES, hits.tolist(), rule.alarm_probs(FREQUENCY_TIMES, law)):
                pvalue = scipy_stats.binomtest(h, n, c).pvalue
                assert pvalue >= FREQUENCY_LEVEL, (rule, law, t, h / n, c)
