import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transientscan import GaussianMeanShift, ShewhartDetector, pair_from_config
from transientscan.distributions import (
    DistributionPair,
    norm_upper_quantile,
    norm_upper_tail,
)

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


def gauss_pdf(x, mu, sigma):
    # independent oracle: the density formula evaluated directly
    return math.exp(-((x - mu) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# construction and densities


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=-1.0)
    with pytest.raises(ValueError):
        GaussianMeanShift(mean0=0.5, mean1=0.5, sigma=1.0)


@pytest.mark.parametrize("sigma", [1e-170, 1e-163, 1e155, 1e200, 10**200, math.inf])
def test_construction_rejects_sigma_whose_square_leaves_the_floats(sigma):
    # the log ratio divides by sigma**2: 0.0 would raise ZeroDivisionError
    # there and in calibrate, and inf would make every ratio 0 or NaN
    with pytest.raises(ValueError, match="sigma"):
        GaussianMeanShift(mean0=0.0, mean1=sigma, sigma=sigma)
    with pytest.raises(ValueError, match="sigma"), np.errstate(over="ignore"):
        GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=np.float64(sigma))


@pytest.mark.parametrize("field", ["mean0", "mean1"])
@pytest.mark.parametrize(
    "value",
    [
        math.inf,
        -math.inf,
        math.nan,
        pytest.param(10**400, id="10**400"),
        pytest.param(-(10**400), id="-10**400"),
    ],
)
def test_construction_rejects_non_finite_means(field, value):
    # before, inf gave a NaN midpoint and calibrate a NaN threshold, and an
    # int too large for a float was blamed on sigma
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GaussianMeanShift(**{"mean0": 0.0, "mean1": 1.0, field: value})


def test_construction_rejects_a_shift_or_midpoint_that_overflows():
    big = float(np.finfo(float).max)
    with pytest.raises(ValueError, match="mean1 - mean0"):
        GaussianMeanShift(mean0=-big, mean1=big)
    with pytest.raises(ValueError, match="midpoint"):
        GaussianMeanShift(mean0=big / 2, mean1=big)
    # exact ints: the shift is 1, but the midpoint overflows as it becomes a float
    with pytest.raises(ValueError, match="midpoint"):
        GaussianMeanShift(mean0=10**308, mean1=10**308 + 1)
    # an exact int that overflows keeps its sign
    with pytest.raises(ValueError, match=r"mean1 - mean0 overflows to -inf$"):
        GaussianMeanShift(mean0=10**308, mean1=-(10**308))
    with pytest.raises(ValueError, match=r"midpoint .* overflows to -inf$"):
        GaussianMeanShift(mean0=-(10**308), mean1=-(10**308) - 10**307)
    # the widest finite shift and midpoint still construct, with an exact edge
    for pair in (GaussianMeanShift(-big / 2, big / 2), GaussianMeanShift(0.0, big)):
        edge, upper = pair.log_ratio_edge(0.0)
        assert upper and pair.log_likelihood_ratio(edge) >= 0.0
        assert pair.log_likelihood_ratio(math.nextafter(edge, -math.inf)) < 0.0


def test_construction_accepts_sigma_whose_square_is_subnormal_or_near_the_top():
    for sigma in (1e-160, 1e154):
        pair = GaussianMeanShift(mean0=0.0, mean1=sigma, sigma=sigma)
        assert math.isfinite(pair.log_likelihood_ratio(0.0))


def test_density_at_the_modes():
    # a density is the exp of its log density
    mode = 1.0 / math.sqrt(2 * math.pi)
    assert np.exp(PAIR.log_density("nominal", 0.0)) == pytest.approx(mode, abs=1e-12)
    assert np.exp(PAIR.log_density("alternative", 1.0)) == pytest.approx(mode, abs=1e-12)
    assert np.exp(PAIR.log_density("nominal", 0.0)) == pytest.approx(0.398942, abs=1e-6)


def test_density_matches_direct_formula():
    f0_at_2 = np.exp(PAIR.log_density("nominal", 2.0))
    assert f0_at_2 == pytest.approx(gauss_pdf(2.0, 0.0, 1.0), rel=1e-12)
    assert f0_at_2 == pytest.approx(0.053991, abs=1e-6)
    wide = GaussianMeanShift(mean0=-1.0, mean1=2.5, sigma=3.0)
    for x in (-7.0, -1.0, 0.3, 4.2):
        f0, f1 = (np.exp(wide.log_density(which, x)) for which in ("nominal", "alternative"))
        assert f0 == pytest.approx(gauss_pdf(x, -1.0, 3.0), rel=1e-12)
        assert f1 == pytest.approx(gauss_pdf(x, 2.5, 3.0), rel=1e-12)


def test_density_strictly_positive():
    xs = np.linspace(-30, 30, 101)
    assert (np.exp(PAIR.log_density("nominal", xs)) > 0).all()
    assert (np.exp(PAIR.log_density("alternative", xs)) > 0).all()


def test_density_rejects_unknown_label():
    with pytest.raises(ValueError):
        PAIR.log_density("post_change", 0.0)


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


def _exp_bits(lr) -> bytes:
    return np.asarray(lr, dtype=float).tobytes()


def test_likelihood_ratio_is_math_exp_bit_for_bit_up_to_709():
    # the library's one exponential: math.exp's bits whichever kernel numpy
    # dispatches for its real exp (its AVX-512 kernel differs in the last
    # bit); the span reaches past the subnormal results into exact zeros
    rng = np.random.default_rng(17)
    x = np.concatenate(
        (np.linspace(-745.2, 709.0, 200_001), rng.normal(0.0, 5.0, 20_000), [-np.inf])
    ) + 0.5  # PAIR's log ratio is x - 0.5
    llr = PAIR.log_likelihood_ratio(x)
    assert llr.max() <= 709.0
    lr = PAIR.likelihood_ratio(x)
    assert _exp_bits(lr) == _exp_bits([math.exp(v) for v in llr.tolist()])
    assert 0.0 < lr[lr < 2.2250738585072014e-308].max() and lr[0] == lr[-1] == 0.0
    assert math.isnan(PAIR.likelihood_ratio(math.nan))
    assert np.isnan(PAIR.likelihood_ratio(np.array([math.nan]))).all()
    # a float in, a float out, with the array's bits
    for i in range(0, x.size, 997):
        scalar = PAIR.likelihood_ratio(float(x[i]))
        assert type(scalar) is float and _exp_bits(scalar) == _exp_bits(lr[i])


def test_likelihood_ratio_above_709_is_finite_until_math_exp_overflows():
    # above 709 the C library's complex exp scales by exp(709) and may leave
    # math.exp's last bit, but it is finite exactly where math.exp is
    x = np.linspace(709.0, 710.0, 10_001) + 0.5
    with np.errstate(over="ignore"):
        lr = PAIR.likelihood_ratio(x)
    for v, got in zip(PAIR.log_likelihood_ratio(x).tolist(), lr.tolist()):
        try:
            assert got == pytest.approx(math.exp(v), rel=1e-15), v
        except OverflowError:
            assert got == math.inf, v
    assert np.isfinite(lr).any() and np.isinf(lr).any()
    with np.errstate(over="ignore"):
        assert PAIR.likelihood_ratio(1e300) == PAIR.likelihood_ratio(math.inf) == math.inf


@pytest.mark.parametrize("boundary", [0.0, 1.0])
def test_atom_step_and_alarm_mask_agree_on_each_atom(two_point_pair, boundary):
    # both decide on likelihood_ratio, the function that gives the atoms, so
    # a sample on the atom is on it in both; a boundary of 0 or 1 makes the
    # randomized verdict there certain
    rng = np.random.default_rng(5)
    for atom, _, _ in two_point_pair.atoms():
        det = ShewhartDetector(
            pair=two_point_pair, alpha=atom, eta=math.inf, randomize_boundary=boundary
        )
        for x in (0.0, 1.0):
            alarmed, lr = det.step(x, rng)
            (masked,) = det.alarm_mask(np.ones(1), np.array([x]), rng)
            assert alarmed == masked, (atom, x)
            assert lr == two_point_pair.likelihood_ratio(x)
            if lr == atom:
                assert alarmed == bool(boundary), (atom, x)


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(-50, 50, allow_nan=False),
    x2=st.floats(-50, 50, allow_nan=False),
)
def test_likelihood_ratio_monotone_when_mean_increases(x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert PAIR.log_likelihood_ratio(lo) <= PAIR.log_likelihood_ratio(hi)


@settings(max_examples=300, deadline=None)
@given(
    mean0=st.floats(-1e6, 1e6),
    mean1=st.floats(-1e6, 1e6),
    sigma=st.floats(1e-3, 1e3),
    x=st.floats(-1e6, 1e6),
)
def test_log_likelihood_ratio_is_the_same_bits_for_scalars_and_arrays(mean0, mean1, sigma, x):
    # scalars take a Python-float path, arrays the numpy one: same formula, same rounding
    assume(mean0 != mean1)
    pair = GaussianMeanShift(mean0, mean1, sigma)
    from_float = pair.log_likelihood_ratio(x)
    from_numpy = pair.log_likelihood_ratio(np.float64(x))
    (from_array,) = pair.log_likelihood_ratio(np.array([x]))
    assert type(from_float) is float and type(from_numpy) is float
    bits = struct.pack("<d", from_float)
    assert struct.pack("<d", from_numpy) == bits
    assert struct.pack("<d", from_array) == bits


def test_cached_ratio_constants_belong_to_their_instance():
    pair = GaussianMeanShift(-1.3, 2.1, 0.7)
    xs = np.random.default_rng(5).normal(size=100)
    before = pair.log_likelihood_ratio(xs)
    scalar = pair.log_likelihood_ratio(0.3)
    assert "_llr_constants" in vars(pair)
    # an unpickled copy keeps the same bits
    clone = pickle.loads(pickle.dumps(pair))
    assert clone.log_likelihood_ratio(xs).tobytes() == before.tobytes()
    assert struct.pack("<d", clone.log_likelihood_ratio(0.3)) == struct.pack("<d", scalar)
    # a replaced field gets its own constants, not the original's
    moved = dataclasses.replace(pair, mean1=3.0)
    fresh = GaussianMeanShift(-1.3, 3.0, 0.7)
    assert moved.log_likelihood_ratio(xs).tobytes() == fresh.log_likelihood_ratio(xs).tobytes()
    assert moved.lr_quantile_f0(0.01) == fresh.lr_quantile_f0(0.01)
    # the cache is not a field: equality, hashing and the config ignore it
    untouched = GaussianMeanShift(-1.3, 2.1, 0.7)
    assert pair == untouched == clone and hash(pair) == hash(untouched) == hash(clone)
    assert pair.to_config() == untouched.to_config()
    assert moved != pair


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


def test_quantile_keeps_its_bits_and_does_not_overflow_at_large_sigma():
    # a * a / s2 * 0.5 rounds as a * a / (2 * s2) wherever 2 * s2 is finite
    rng = np.random.default_rng(2029)
    for m1, sigma, p in zip(
        10.0 ** rng.uniform(-3, 3, 2000), 10.0 ** rng.uniform(-3, 3, 2000), rng.uniform(0, 1, 2000)
    ):
        pair = GaussianMeanShift(0.0, float(m1), float(sigma))
        a, sigma = float(m1), float(sigma)
        z = norm_upper_quantile(float(p))
        assert pair.lr_quantile_f0(float(p)) == math.exp(a * z / sigma - a * a / (2.0 * sigma**2))
    # at sigma 1e154, 2 * s2 overflows; the standardized pair's median is exp(-0.5)
    wide = GaussianMeanShift(0.0, 1e154, 1e154)
    assert wide.lr_quantile_f0(0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)


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


@pytest.mark.parametrize("size", [None, 1000, (37, 11)])
def test_sampling_returns_the_values_of_rng_normal_bit_for_bit(size):
    for pair in (GaussianMeanShift(-3.5, 2.0, 0.25), GaussianMeanShift(0.0, 1.0, 7.0)):
        for which, mu in (("nominal", pair.mean0), ("alternative", pair.mean1)):
            got = pair.sample(which, np.random.default_rng(71), size)
            want = np.random.default_rng(71).normal(mu, pair.sigma, size)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
# config round trip and the exact-law contract


def test_config_round_trip():
    cfg = PAIR.to_config()
    assert cfg == {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0}
    assert pair_from_config(cfg) == PAIR


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pair_from_config({"kind": "cauchy_pair"})
    with pytest.raises(ValueError):
        pair_from_config({"mean0": 0.0})
    with pytest.raises(ValueError, match="distribution config must be a mapping"):
        pair_from_config([PAIR.to_config()])


EXACT_LAWS = ("lr_tail_prob_f0", "lr_quantile_f0", "lr_tail_prob_f1")


@pytest.mark.parametrize("missing", EXACT_LAWS)
def test_a_pair_must_state_all_three_exact_laws(two_point_pair, missing):
    pair_cls = type(two_point_pair)
    methods = {name: getattr(pair_cls, name) for name in ("log_density", "sample") + EXACT_LAWS}
    del methods[missing]
    partial = type("PartialPair", (DistributionPair,), methods)
    with pytest.raises(TypeError, match=missing):
        partial()


def test_two_point_pair_tails_are_exact_at_its_atoms(two_point_pair):
    # l(1) = 0.6 / 0.2 as the pair computes it (exp rounds it below 3)
    atom = two_point_pair.likelihood_ratio(1.0)
    assert atom == 2.9999999999999996
    assert two_point_pair.lr_tail_prob_f1(atom) == 0.6
    assert two_point_pair.lr_tail_prob_f1(0.5) == 1.0
    assert two_point_pair.lr_tail_prob_f0(atom) == 0.2
    assert two_point_pair.lr_tail_prob_f0(atom, strict=True) == 0.0
    assert two_point_pair.lr_quantile_f0(0.1) == atom
    assert two_point_pair.lr_quantile_f0(0.25) == 0.5
