import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transientscan import GaussianMeanShift, pair_from_config
from transientscan.distributions import (
    DistributionPair,
    norm_upper_quantile,
    norm_upper_tail,
)

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


def gauss_pdf(x, mu, sigma):
    # independent oracle: the density formula evaluated directly
    return math.exp(-((x - mu) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


class GaussianNoClosedForm(DistributionPair):
    """Gaussian densities without the closed-form tail/quantile overrides,
    to exercise the Monte Carlo fallback calibration path."""

    kind = "gaussian_mc_only"
    mc_calibration_samples = 2_000_000

    def __init__(self, mean0, mean1, sigma=1.0):
        self._inner = GaussianMeanShift(mean0, mean1, sigma)

    def log_density(self, which, x):
        return self._inner.log_density(which, x)

    def sample(self, which, rng, size=None):
        return self._inner.sample(which, rng, size)


# ---------------------------------------------------------------------------
# construction and densities


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=-1.0)
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.5, mean1=0.5, sigma=1.0)


def test_density_at_the_modes():
    assert PAIR.density("nominal", 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert PAIR.density("alternative", 1.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-12
    )
    assert PAIR.density("nominal", 0.0) == pytest.approx(0.398942, abs=1e-6)


def test_density_matches_direct_formula():
    assert PAIR.density("nominal", 2.0) == pytest.approx(gauss_pdf(2.0, 0.0, 1.0), rel=1e-12)
    assert PAIR.density("nominal", 2.0) == pytest.approx(0.053991, abs=1e-6)
    wide = GaussianMeanShift(mean0=-1.0, mean1=2.5, sigma=3.0)
    for x in (-7.0, -1.0, 0.3, 4.2):
        assert wide.density("nominal", x) == pytest.approx(gauss_pdf(x, -1.0, 3.0), rel=1e-12)
        assert wide.density("alternative", x) == pytest.approx(gauss_pdf(x, 2.5, 3.0), rel=1e-12)


def test_density_strictly_positive():
    xs = np.linspace(-30, 30, 101)
    assert (PAIR.density("nominal", xs) > 0).all()
    assert (PAIR.density("alternative", xs) > 0).all()


def test_density_rejects_unknown_label():
    with pytest.raises(ValueError):
        PAIR.density("post_change", 0.0)


# ---------------------------------------------------------------------------
# likelihood ratio


def test_likelihood_ratio_at_midpoint_is_one():
    assert PAIR.likelihood_ratio(0.5) == 1.0


def test_likelihood_ratio_equals_density_quotient():
    for x in (-2.0, 0.0, 0.7, 2.0):
        oracle = gauss_pdf(x, 1.0, 1.0) / gauss_pdf(x, 0.0, 1.0)
        assert PAIR.likelihood_ratio(x) == pytest.approx(oracle, rel=1e-12)
    assert PAIR.likelihood_ratio(0.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert PAIR.likelihood_ratio(2.0) == pytest.approx(math.exp(1.5), rel=1e-12)


def test_likelihood_ratio_stable_for_extreme_samples():
    # naive f1/f0 underflows to 0/0 out here; the log-space path must not
    assert PAIR.likelihood_ratio(-60.0) == pytest.approx(math.exp(-60.5), rel=1e-12)
    assert math.isfinite(PAIR.log_likelihood_ratio(1e6))


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(-50, 50, allow_nan=False),
    x2=st.floats(-50, 50, allow_nan=False),
)
def test_likelihood_ratio_monotone_when_mean_increases(x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert PAIR.log_likelihood_ratio(lo) <= PAIR.log_likelihood_ratio(hi)


# ---------------------------------------------------------------------------
# tail probability and quantile of the ratio under F0


def test_tail_prob_trivial_limits():
    assert PAIR.lr_tail_prob_f0(0.0) == 1.0
    assert PAIR.lr_tail_prob_f0(1e-300) == pytest.approx(1.0, abs=1e-12)
    assert PAIR.lr_tail_prob_f0(1e300) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        PAIR.lr_tail_prob_f0(-0.5)


def test_tail_prob_at_one_is_upper_half_tail():
    # l(x) >= 1 iff x >= 0.5, so the value is the normal upper tail at 0.5
    assert PAIR.lr_tail_prob_f0(1.0) == pytest.approx(norm_upper_tail(0.5), abs=1e-15)
    assert PAIR.lr_tail_prob_f0(1.0) == pytest.approx(0.308538, abs=1e-6)


def test_tail_prob_monte_carlo_check():
    rng = np.random.default_rng(12345)
    n = 10_000_000
    lr = PAIR.likelihood_ratio(rng.normal(0.0, 1.0, n))
    for alpha in (1.0, 2.5, PAIR.lr_quantile_f0(0.01)):
        p = PAIR.lr_tail_prob_f0(alpha)
        est = float((lr >= alpha).mean())
        se = math.sqrt(p * (1 - p) / n)
        assert abs(est - p) <= 3 * se


def test_quantile_median():
    assert PAIR.lr_quantile_f0(0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_quantile_examples_round_trip():
    alpha = PAIR.lr_quantile_f0(0.01)
    assert alpha == pytest.approx(6.211, abs=1e-3)
    assert PAIR.lr_tail_prob_f0(alpha) == pytest.approx(0.01, abs=1e-9)
    alpha10 = PAIR.lr_quantile_f0(0.1)
    assert PAIR.lr_tail_prob_f0(alpha10) == pytest.approx(0.1, abs=1e-9)
    assert alpha10 == pytest.approx(math.exp(norm_upper_quantile(0.1) - 0.5), rel=1e-12)


def test_round_trip_identity_over_grid():
    for p in (1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999999):
        assert abs(PAIR.lr_tail_prob_f0(PAIR.lr_quantile_f0(p)) - p) <= 1e-9


def test_quantile_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            PAIR.lr_quantile_f0(p)
    with pytest.raises(ValueError):
        norm_upper_quantile(0.0)


@settings(max_examples=100, deadline=None)
@given(
    a1=st.floats(1e-6, 1e6, allow_nan=False),
    a2=st.floats(1e-6, 1e6, allow_nan=False),
)
def test_tail_prob_nonincreasing_in_alpha(a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert PAIR.lr_tail_prob_f0(lo) >= PAIR.lr_tail_prob_f0(hi)


@settings(max_examples=100, deadline=None)
@given(
    p1=st.floats(1e-6, 1 - 1e-6, allow_nan=False),
    p2=st.floats(1e-6, 1 - 1e-6, allow_nan=False),
)
def test_quantile_nonincreasing_in_p(p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert PAIR.lr_quantile_f0(lo) >= PAIR.lr_quantile_f0(hi)


def test_mirrored_shift_uses_lower_tail():
    mirrored = GaussianMeanShift(mean0=0.0, mean1=-1.0, sigma=1.0)
    alpha = mirrored.lr_quantile_f0(0.05)
    assert mirrored.lr_tail_prob_f0(alpha) == pytest.approx(0.05, abs=1e-9)
    rng = np.random.default_rng(77)
    lr = mirrored.likelihood_ratio(rng.normal(0.0, 1.0, 1_000_000))
    est = float((lr >= alpha).mean())
    assert abs(est - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 1_000_000)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_given_seed():
    a = PAIR.sample("nominal", np.random.default_rng(9), 16)
    b = PAIR.sample("nominal", np.random.default_rng(9), 16)
    assert np.array_equal(a, b)
    c = PAIR.sample("nominal", np.random.default_rng(10), 16)
    assert not np.array_equal(a, c)


def test_sampling_moments():
    n = 1_000_000
    rng = np.random.default_rng(2024)
    x0 = PAIR.sample("nominal", rng, n)
    assert abs(x0.mean() - 0.0) <= 4.0 / math.sqrt(n)
    x1 = PAIR.sample("alternative", rng, n)
    assert abs(x1.mean() - 1.0) <= 4.0 / math.sqrt(n)
    # variance of the sample variance of a normal is ~2 sigma^4 / n
    assert abs(x1.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# measure-change identities


def test_likelihood_ratio_integrates_to_one():
    rng = np.random.default_rng(31)
    n = 1_000_000
    lr = PAIR.likelihood_ratio(rng.normal(0.0, 1.0, n))
    se = lr.std(ddof=1) / math.sqrt(n)
    assert abs(lr.mean() - 1.0) <= 3 * se


def test_change_of_measure_identity():
    # E0[g(X) l(X)] = E1[g(X)] with g the tail indicator at the eta=100 threshold
    rng = np.random.default_rng(99)
    n = 1_000_000
    alpha = PAIR.lr_quantile_f0(0.01)
    lr0 = PAIR.likelihood_ratio(rng.normal(0.0, 1.0, n))
    weighted = lr0 * (lr0 >= alpha)
    lhs, lhs_se = weighted.mean(), weighted.std(ddof=1) / math.sqrt(n)
    hit1 = PAIR.likelihood_ratio(rng.normal(1.0, 1.0, n)) >= alpha
    rhs, rhs_se = hit1.mean(), hit1.std(ddof=1) / math.sqrt(n)
    assert abs(lhs - rhs) <= 3 * math.hypot(lhs_se, rhs_se)
    assert rhs == pytest.approx(PAIR.lr_tail_prob_f1(alpha), abs=3 * rhs_se)


def test_alternative_tail_closed_form():
    # P1(l >= alpha) at the 1/eta threshold equals Phi(shift - upper quantile)
    alpha = PAIR.lr_quantile_f0(0.01)
    expected = norm_upper_tail(norm_upper_quantile(0.01) - 1.0)
    assert PAIR.lr_tail_prob_f1(alpha) == pytest.approx(expected, rel=1e-12)
    assert PAIR.lr_tail_prob_f1(alpha) == pytest.approx(0.0924, abs=2e-4)


# ---------------------------------------------------------------------------
# config round trip and the Monte Carlo fallback


def test_config_round_trip():
    cfg = PAIR.to_config()
    assert cfg == {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0}
    assert pair_from_config(cfg) == PAIR


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pair_from_config({"kind": "cauchy_pair"})
    with pytest.raises(ValueError):
        pair_from_config({"mean0": 0.0})


def test_mc_fallback_matches_closed_form():
    mc_pair = GaussianNoClosedForm(0.0, 1.0, 1.0)
    exact = GaussianMeanShift(0.0, 1.0, 1.0)
    for p in (0.01, 0.1, 0.3):
        alpha_mc = mc_pair.lr_quantile_f0(p)
        # grade the fallback threshold with the exact tail
        assert abs(exact.lr_tail_prob_f0(alpha_mc) - p) <= 2e-3
        target = exact.lr_quantile_f0(p)
        est = mc_pair.lr_tail_prob_f0(target)
        se = math.sqrt(p * (1 - p) / mc_pair.mc_calibration_samples)
        assert abs(est - p) <= 4 * se


def test_f1_tail_fallback_is_drawn_once_per_pair(two_point_pair, monkeypatch):
    draws = []
    original = type(two_point_pair).sample

    def counting_sample(self, which, rng, size=None):
        draws.append((which, size))
        return original(self, which, rng, size)

    monkeypatch.setattr(type(two_point_pair), "sample", counting_sample)
    n = two_point_pair.mc_calibration_samples
    # the atom l(1) = 0.6 / 0.2 as the pair computes it (exp rounds it below 3)
    atom = two_point_pair.likelihood_ratio(1.0)
    assert abs(two_point_pair.lr_tail_prob_f1(atom) - 0.6) <= 3 * math.sqrt(0.6 * 0.4 / n)
    assert two_point_pair.lr_tail_prob_f1(0.5) == 1.0
    assert draws == [("alternative", n)]
    # workers get the pair without the cached sample
    clone = pickle.loads(pickle.dumps(two_point_pair))
    assert "_lr_f1_sample" not in vars(clone)
