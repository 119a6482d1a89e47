import dataclasses
import hashlib
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transientscan import (
    AlwaysStopRule,
    BernoulliStopRule,
    ChangeSchedule,
    DegenerateEstimateError,
    FixedTimeRule,
    GaussianMeanShift,
    ShewhartDetector,
    calibrate,
    estimate_pollak,
    estimate_optimality_ceiling,
    evaluate_criteria,
    make_schedule,
    simulate_run_lengths,
)
from transientscan.distributions import norm_upper_quantile, norm_upper_tail
from transientscan import metrics
from transientscan.metrics import (
    _CHUNK,
    STREAM_MONITOR,
    STREAM_RUN_LENGTH,
    Estimate,
    PollakEstimate,
    _binomial_se,
    _mean_se,
    _rank_counts,
    _simulate,
    detect_first_any_curves,
    trial_rng,
)

from oracles import (
    ThresholdSequenceRule,
    first_alarms,
    geometric_gof_pvalue,
    history_independence_pvalue,
    monitor_sequence,
    run_monitoring,
)

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


@pytest.fixture
def drawn(monkeypatch):
    """The size of every draw ``GaussianMeanShift.sample`` makes, in order."""
    sizes = []
    original = GaussianMeanShift.sample

    def counting_sample(self, which, rng, size=None):
        sizes.append(int(np.prod(size)))
        return original(self, which, rng, size)

    monkeypatch.setattr(GaussianMeanShift, "sample", counting_sample)
    return sizes


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


def seed_sequence_rng(seed, *key) -> np.random.Generator:
    """The generator ``trial_rng`` must match: a SeedSequence keyed by
    ``key`` under ``seed``, below a parent's own spawn key."""
    if isinstance(seed, np.random.SeedSequence):
        seed, key = seed.entropy, (*seed.spawn_key, *key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 12_345, 2**128 + 1]),
    st.integers(0, 2**200),
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
        st.integers(0, 2**70),
        st.lists(st.integers(0, 2**40), max_size=3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, key=st.lists(st.integers(0, 2**70), max_size=4))
@example(seed=np.random.SeedSequence(2**33, spawn_key=(5,)), key=[1, 0])
@example(seed=7, key=[])
def test_trial_rng_draws_the_seed_sequence_stream(seed, key):
    # the stream must be SeedSequence's own, whatever the sizes of the seed
    # and key, cached or not
    expected = seed_sequence_rng(seed, *key)
    got = trial_rng(seed, *key)
    assert np.array_equal(got.random(4), expected.random(4))
    assert np.array_equal(got.integers(0, 2**63, 3), expected.integers(0, 2**63, 3))


def test_trial_rng_keeps_seed_sequence_for_other_entropy():
    # numpy integers, an entropy list and None take SeedSequence's own path
    for seed, key in ((np.int64(5), (1, 0)), (5, (np.uint8(1), 0)), ([3, 2**40], (1,))):
        expected = seed_sequence_rng(seed, *key).random(3)
        assert np.array_equal(trial_rng(seed, *key).random(3), expected)
    trial_rng(None, 1, 0).random()
    for seed, key in ((-1, (1,)), (5, (1, -2))):
        with pytest.raises(ValueError):
            seed_sequence_rng(seed, *key)
        with pytest.raises(ValueError):
            trial_rng(seed, *key)


def assert_same_stream(got, expected):
    assert np.array_equal(got.random(5), expected.random(5))
    assert np.array_equal(got.standard_normal(5), expected.standard_normal(5))
    assert np.array_equal(got.integers(0, 2**63, 5), expected.integers(0, 2**63, 5))


def test_trial_rng_rebuilds_cached_and_evicted_keys_bit_for_bit():
    seed, n_keys = 2**40 + 17, metrics._SEED_CACHE + 10
    for c in range(n_keys):
        # the cached words are each key's SeedSequence's own
        seq = trial_rng(seed, STREAM_MONITOR, c).bit_generator.seed_seq
        expected = np.random.SeedSequence(seed, spawn_key=(STREAM_MONITOR, c))
        words = seq.generate_state(4, np.uint64)
        assert np.array_equal(words, expected.generate_state(4, np.uint64))
    # the first 10 keys were evicted, the last is cached
    info = metrics._seed_words.cache_info
    for c, hit in ((0, False), (n_keys - 1, True)):
        hits = info().hits
        expected = seed_sequence_rng(seed, STREAM_MONITOR, c)
        assert_same_stream(trial_rng(seed, STREAM_MONITOR, c), expected)
        assert info().hits == hits + hit
    assert info().currsize == metrics._SEED_CACHE


def test_trial_rng_draws_fresh_entropy_for_none_and_caches_the_empty_key():
    info = metrics._seed_words.cache_info
    before = info()
    assert not np.array_equal(trial_rng(None, 1, 0).random(4), trial_rng(None, 1, 0).random(4))
    assert info() == before  # neither looked up nor added
    trial_rng(7)
    hits = info().hits
    assert_same_stream(trial_rng(7), seed_sequence_rng(7))
    assert info().hits == hits + 1


def test_trial_rng_rejects_a_key_equal_to_a_cached_int():
    trial_rng(5, 1, 0)
    with pytest.raises(TypeError):
        trial_rng(5, 1.0, 0)


def test_trial_rng_generators_of_one_key_are_independent():
    a, b = trial_rng(11, 1, 0), trial_rng(11, 1, 0)
    assert a.bit_generator.seed_seq is b.bit_generator.seed_seq  # one cached entry
    a.random(1000)
    assert_same_stream(b, seed_sequence_rng(11, 1, 0))


def test_trial_rng_seed_words_are_read_only():
    seq = trial_rng(11, 1, 0).bit_generator.seed_seq
    words = seq.generate_state(4, np.uint64)
    assert not words.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        words[0] = 0
    with pytest.raises(ValueError):
        words.flags.writeable = True
    reference = np.random.SeedSequence(11, spawn_key=(1, 0))
    assert np.array_equal(words, reference.generate_state(4, np.uint64))
    # any other request is the SeedSequence's own
    for n_words, dtype in ((8, np.uint32), (3, np.uint32), (6, np.uint64)):
        assert np.array_equal(
            seq.generate_state(n_words, dtype), reference.generate_state(n_words, dtype)
        )
    with pytest.raises(TypeError):
        trial_rng(11, 1, 0).spawn(1)


# ---------------------------------------------------------------------------
# run length to a false alarm


def test_arl_always_alarm_is_exact():
    sample = simulate_run_lengths(calibrate(PAIR, 1.0), PAIR, 500, 50, seed=0)
    est = sample.arl()
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert sample.censored == 0


def test_arl_matches_geometric_moments():
    eta, n = 10.0, 1_000_000
    det = calibrate(PAIR, eta)
    sample = simulate_run_lengths(det, PAIR, n, 1000, seed=42)
    est = sample.arl()
    tol = 3.0 * math.sqrt(eta**2 - eta) / math.sqrt(n)
    assert abs(est.value - eta) <= tol
    assert sample.censored == 0
    assert est.std_error == pytest.approx(math.sqrt(eta**2 - eta) / math.sqrt(n), rel=0.1)


def test_arl_rejects_short_horizon(monkeypatch):
    # horizon 50 at eta 100 censors 1,206 of 2,000 runs; dropping them read
    # an ARL of 23.7 and a ceiling 4.2 times p1, with no error on any path
    det = calibrate(PAIR, 100.0)
    sample = simulate_run_lengths(det, PAIR, 2000, 50, seed=1)
    assert (sample.censored, sample.horizon) == (1206, 50)
    message = "^1206 of 2000 runs were censored at horizon 50,"
    for estimate in (
        sample.arl,
        lambda: sample.ceiling(1),
        lambda: estimate_optimality_ceiling(det, PAIR, 1, 2000, 50, 1),
        lambda: estimate_optimality_ceiling(det, PAIR, 1, 2000, 10**6, 1, sample=sample),
    ):
        with pytest.raises(ValueError, match=message):
            estimate()
    # evaluate_criteria sizes its own horizon, so it is handed this sample
    monkeypatch.setattr(metrics, "simulate_run_lengths", lambda *args: sample)
    with pytest.raises(ValueError, match=message):
        evaluate_criteria(det, PAIR, make_schedule(40, 4, 1), n_trials=2000, seed=1)


@pytest.mark.parametrize("n", [1, 2, 10, 22, 23, 100, 2000, 22_026, 100_000, 10**6])
def test_censoring_guard_tail_is_the_exact_binomial_tail(n):
    # P(Binomial(n, e^-10) >= c): to 1e-9 relative wherever it exceeds 1e-12,
    # and on scipy's side of the guard's level 1e-3 everywhere
    from scipy import stats as scipy_stats

    q = math.exp(-10)
    for c in sorted({1, 2, 3, 5, 8, 13, 21, 34, 45, 55, 70, 89, 144, 1206, n // 2, n}):
        if c > n:
            continue
        tail = metrics._censoring_tail(c, n)
        exact = float(scipy_stats.binom.sf(c - 1, n, q))
        if exact > 1e-12:
            assert tail == pytest.approx(exact, rel=1e-9, abs=0.0), (c, n)
        assert (tail < 1e-3) == (exact < 1e-3), (c, n, tail, exact)


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
    est = simulate_run_lengths(equalized, PAIR, 40_000, 3000, seed=5).arl()
    assert abs(est.value - 100.0) <= 4 * est.std_error
    b_plain = simulate_run_lengths(slack, PAIR, 40_000, 3000, seed=6).ceiling(1)
    b_equal = simulate_run_lengths(equalized, PAIR, 40_000, 3000, seed=7).ceiling(1)
    tol = 3 * math.hypot(b_plain.std_error, b_equal.std_error)
    assert abs(b_plain.value - b_equal.value) <= tol


# ---------------------------------------------------------------------------
# conditional detection and its sum


def onset_conditional(rule, pair, t, n_trials, seed):
    """c(t): one F1 sample per trial decided at time t."""
    sched = ChangeSchedule(onsets=(t,), duration=1, horizon=t)
    return estimate_pollak(rule, pair, sched, n_trials, seed).per_onset[0]


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
    # the one-onset term decides one F1 sample at time t, so it takes any
    # protocol rule, not only memoryless ones
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
    assert est.survivors == (60_000,) * 3
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


def test_restart_runs_on_no_onsets_draw_nothing_and_are_censored(drawn):
    sched = make_schedule(50, 0, 1)
    rules = (calibrate(PAIR, 10.0), BernoulliStopRule(0.5), AlwaysStopRule())
    for rule in rules + (calibrate(PAIR, 10.0, initial_stop_prob=0.5),):
        pi0 = getattr(rule, "initial_stop_prob", 0.0)
        for n in (1, 300):
            stop, x = _simulate(rule, PAIR, sched, "restart", n, 5, STREAM_MONITOR)
            assert set(stop.tolist()) <= ({-1, 0} if pi0 else {-1})
            assert np.isnan(x).all()
    assert drawn == []
    rep = evaluate_criteria(rules[0], PAIR, sched, n_trials=300, seed=5, mode="restart")
    assert rep.detect_any_prob.value == rep.avg_missed.value == rep.pollak_estimate.value == 0.0


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
    # survival to an onset at 200 under a per-sample alarm rate of 0.2 is
    # ~e^-40, but every trial decides every onset, so no onset lacks trials
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    est = estimate_pollak(det, PAIR, sched, 2000, seed=13)
    assert est.survivors == (2000, 2000)
    assert abs(est.value - 2 * detect_prob(1.0, 5.0)) <= 4 * est.std_error
    # a few trials give finite terms, and the policy changes nothing
    for n in (99, 7):
        est = estimate_pollak(det, PAIR, sched, n, seed=13)
        assert est.survivors == (n, n)
        assert all(math.isfinite(v) for term in est.per_onset for v in term)
        assert estimate_pollak(det, PAIR, sched, n, seed=13, on_degenerate="exclude") == est
    # README's recipe for c(t) at one time t holds at 50 trials
    term = estimate_pollak(calibrate(PAIR, 10.0), PAIR, ChangeSchedule((5,), 1, 5), 50, seed=1)
    assert math.isfinite(term.per_onset[0].value) and term.survivors == (50,)
    # every count below the old floor of 100 is the onset loop's, to the last bit
    for n in range(1, 100):
        got = estimate_pollak(det, PAIR, sched, n, seed=n)
        assert repr(tuple(got)) == repr(pollak_loop(direct_hits(det, PAIR, sched, n, seed=n), n))


def pollak_loop(hits, n):
    """The per-onset loop that sums the terms ``hits / n`` in onset order."""
    per_onset, total, var = [], 0.0, 0.0
    for h in hits:
        p = float(h) / n
        se = math.sqrt(p * (1.0 - p) / n)
        per_onset.append(Estimate(p, se))
        total += p
        var += se * se
    return total, math.sqrt(var), tuple(per_onset), (n,) * len(hits)


def direct_hits(rule, pair, sched, n_trials, seed):
    """Per-onset alarm counts as the reproducibility contract states them:
    per chunk one generator, then per block of at most
    ``_MAX_BLOCK_SAMPLES // _CHUNK`` onset columns one F1 draw of the
    chunk's trials (none for a rule that reads no sample) and one
    ``alarm_mask`` call at the onset times."""
    width = metrics._MAX_BLOCK_SAMPLES // _CHUNK
    hits = np.zeros(sched.s, dtype=np.int64)
    for c, lo in enumerate(range(0, n_trials, _CHUNK)):
        rng = trial_rng(seed, STREAM_MONITOR, c)
        rows = min(_CHUNK, n_trials - lo)
        for c0 in range(0, sched.s, width):
            cols = np.asarray(sched.onsets[c0 : c0 + width])
            shape = (rows, cols.size)
            x = None  # a rule that reads no sample decides on the times and rng alone
            if getattr(rule, "reads_samples", True):
                x = pair.sample("alternative", rng, shape)
            mask = rule.alarm_mask(np.broadcast_to(cols, shape), x, rng)
            hits[c0 : c0 + cols.size] += mask.sum(axis=0)
    return hits


def test_direct_terms_match_the_onset_loop(monkeypatch):
    # the same draws and the same arithmetic in the same order, so equal to
    # the last bit (repr): up to 1200 onsets (three column blocks of a
    # chunk) and 600 trials (three chunks)
    sizes = []
    original = GaussianMeanShift.sample

    def counting_sample(self, which, rng, size=None):
        sizes.append(int(np.prod(size)))
        return original(self, which, rng, size)

    monkeypatch.setattr(GaussianMeanShift, "sample", counting_sample)
    rules = (
        calibrate(PAIR, 10.0),
        calibrate(PAIR, 20.0, initial_stop_prob=0.3),
        BernoulliStopRule(0.3),
        AlternatingThresholdRule(),
        FixedTimeRule(6),
        AlwaysStopRule(),
    )
    cases = itertools.product((1, 2, 3, 10, 512, 513, 1200), (1, 2, 255, 256, 257, 600))
    for k, (s, n) in enumerate(cases):
        sched = ChangeSchedule(tuple(range(2, 2 * s + 1, 2)), 1, 2 * s)
        rule = rules[k % len(rules)]
        hits = direct_hits(rule, PAIR, sched, n, seed=k)
        est = estimate_pollak(rule, PAIR, sched, n, seed=k)
        assert repr(tuple(est)) == repr(pollak_loop(hits, n))
        assert all(type(t) is Estimate for t in est.per_onset)
    # a full chunk of 512 columns draws the most a block may hold
    assert max(sizes) == metrics._MAX_BLOCK_SAMPLES


def test_pollak_estimate_keeps_its_public_behaviour():
    # a NamedTuple like Estimate: its fields, order, equality, hash, pickle
    # and repr are those it had as a frozen dataclass
    assert PollakEstimate._fields == ("value", "std_error", "per_onset", "survivors")
    est = PollakEstimate(0.75, 0.125, (Estimate(0.5, 0.0625),), (200,))
    same = PollakEstimate(0.75, 0.125, (Estimate(0.5, 0.0625),), (200,))
    assert est == same and hash(est) == hash(same)
    assert est != est._replace(value=0.5)
    assert pickle.loads(pickle.dumps(est)) == est
    terms = (Estimate(0.5, 0.0625), Estimate(0.25, math.nan))
    assert repr(PollakEstimate(0.75, 0.125, terms, (200, 200))) == (
        "PollakEstimate(value=0.75, std_error=0.125, per_onset=(Estimate(value=0.5, "
        "std_error=0.0625), Estimate(value=0.25, std_error=nan)), survivors=(200, 200))"
    )
    # both return paths: no onsets, and the terms at any trial count
    det = calibrate(PAIR, 10.0)
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    paths = (
        estimate_pollak(det, PAIR, make_schedule(40, 0, 1), 10, seed=1),
        estimate_pollak(det, PAIR, sched, 10, seed=1),
        estimate_pollak(det, PAIR, sched, 300, seed=1),
    )
    for got in paths:
        assert type(got) is PollakEstimate
        assert all(type(term) is Estimate for term in got.per_onset)
    assert [got.survivors for got in paths] == [(), (10, 10), (300, 300)]


@pytest.mark.parametrize("estimator", ["pollak"])
@pytest.mark.parametrize("policy", ["rasie", "Exclude", ""])
def test_unknown_degenerate_policy_is_rejected(estimator, policy):
    det = calibrate(PAIR, 5.0)
    sched = ChangeSchedule(onsets=(3, 200), duration=1, horizon=200)
    with pytest.raises(ValueError, match="on_degenerate"):
        estimate_pollak(det, PAIR, sched, 300, seed=13, on_degenerate=policy)


# ---------------------------------------------------------------------------
# the optimality ceiling


def test_bound_for_always_stop_is_s():
    est = simulate_run_lengths(AlwaysStopRule(), PAIR, 50_000, 10, seed=14).ceiling(4)
    # tau = 1 exactly and E0[l] = 1, so the ceiling is s
    assert abs(est.value - 4.0) <= 3 * est.std_error


def test_bound_for_fixed_time_is_s_over_k():
    est = simulate_run_lengths(FixedTimeRule(5), PAIR, 50_000, 100, seed=15).ceiling(3)
    assert abs(est.value - 3.0 / 5.0) <= 3 * est.std_error


def test_bound_for_calibrated_detector_equals_detection_prob():
    det = calibrate(PAIR, 100.0)
    est = simulate_run_lengths(det, PAIR, 60_000, 2000, seed=16).ceiling(1)
    assert abs(est.value - detect_prob(1.0, 100.0)) <= 3 * est.std_error


def shewhart_detection_at_budget(eta: float) -> float:
    """Detection probability of the Shewhart test calibrated to run length ``eta``."""
    return PAIR.lr_tail_prob_f1(calibrate(PAIR, eta).alpha)


@settings(max_examples=200, deadline=None)
@given(
    log_alphas=st.lists(st.floats(-1.0, 5.0), min_size=1, max_size=12),
    log_alpha_inf=st.floats(0.0, 4.0),
)
def test_no_threshold_sequence_beats_the_shewhart_ceiling(log_alphas, log_alpha_inf):
    # the exact half of the optimality chain: a rule's ceiling per onset is
    # at most the detection probability of the Shewhart test with the same
    # run-length budget E0[tau]
    rule = ThresholdSequenceRule(tuple(log_alphas), log_alpha_inf)
    _, mean_tau = rule.exact_f0_means()
    s = 3
    assert rule.exact_ceiling(s) / s <= shewhart_detection_at_budget(mean_tau) * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), log_alpha=st.floats(0.0, 4.0))
def test_a_constant_threshold_sequence_attains_the_shewhart_ceiling(k, log_alpha):
    rule = ThresholdSequenceRule((log_alpha,) * k, log_alpha)
    _, mean_tau = rule.exact_f0_means()
    assert rule.exact_ceiling(1) == pytest.approx(
        shewhart_detection_at_budget(mean_tau), rel=1e-12, abs=0.0
    )


def test_threshold_sequence_estimates_match_its_exact_laws():
    # the kernel's run lengths and ceiling of the time-dependent rule agree
    # with the oracle's sums (so those sums are the rule's laws)
    rule = ThresholdSequenceRule((2.0, -0.5, 4.0, 1.0), 1.5)
    _, mean_tau = rule.exact_f0_means()
    sample = simulate_run_lengths(rule, PAIR, 20_000, 2000, seed=64)
    assert sample.censored == 0
    arl = sample.arl()
    assert abs(arl.value - mean_tau) <= 4 * arl.std_error
    est = sample.ceiling(3)
    assert abs(est.value - rule.exact_ceiling(3)) <= 4 * est.std_error


def test_no_criterion_3_rule_beats_the_shewhart_ceiling_at_its_budget():
    # the second link of the optimality chain on criterion 3's rules (with
    # its F0 horizons): a rule's ceiling per onset is at most p1(eta_hat),
    # the detection probability of the Shewhart test calibrated to the
    # rule's mean run length.  Both sides come from one F0 sample, so the
    # difference's standard error is the delta method over (mean l_tau,
    # mean tau); the ROC's slope at level 1 / eta is the threshold, so
    # d p1 / d eta = -alpha / eta**2.  Each check is one-sided, Bonferroni
    # at a family level of 1e-3 over the rules (fixed before the runs).
    rules = (
        (calibrate(PAIR, 10.0), 200),
        (calibrate(PAIR, 100.0), 2000),
        (AlwaysStopRule(), 10),
        (FixedTimeRule(5), 100),
        (FixedTimeRule(50), 1000),
        (BernoulliStopRule(0.1), 200),
    )
    z = norm_upper_quantile(1e-3 / len(rules))
    for rule, horizon in rules:
        sample = simulate_run_lengths(rule, PAIR, 40_000, horizon, seed=65)
        ceiling = sample.ceiling(1)
        mean_lr, eta_hat, var_lr, var_tau, cov = sample.moments
        budget = shewhart_detection_at_budget(eta_hat)
        slope = -calibrate(PAIR, eta_hat).alpha / eta_hat**2
        # the gradient of mean_lr / mean_tau - p1(mean_tau)
        d_lr, d_tau = 1.0 / eta_hat, -mean_lr / eta_hat**2 - slope
        var = d_lr**2 * var_lr + d_tau**2 * var_tau + 2.0 * d_lr * d_tau * cov
        se = math.sqrt(var / sample.n)
        assert ceiling.value - budget <= z * se, (rule, ceiling, budget, se)


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
            pollak = estimate_pollak(rule, PAIR, sched, 20_000, seed=17)
            bound = simulate_run_lengths(rule, PAIR, 20_000, horizons[name], seed=18).ceiling(s)
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
        samples.append(metrics.RunLengthSample(taus, lrs, int(rng.integers(0, 3)), horizon=40))
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


def _refused(sample) -> bool:
    """Whether the censoring guard should refuse ``sample``: its censored
    count is in the upper 1e-3 tail of Binomial(runs, e^-10) (scipy's)."""
    from scipy import stats as scipy_stats

    runs, q = sample.n + sample.censored, math.exp(-10)
    return sample.censored > 0 and scipy_stats.binom.sf(sample.censored - 1, runs, q) < 1e-3


def test_moments_match_the_numpy_reductions_bit_for_bit():
    refused = []
    for sample in _run_length_samples():
        assert sample.moments is sample.moments  # taken once per sample
        refused.append(_refused(sample))
        if refused[-1]:
            for estimate in (sample.arl, lambda: sample.ceiling(1)):
                with pytest.raises(ValueError, match=f"censored at horizon {sample.horizon},"):
                    estimate()
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
        if not refused[-1]:
            se = float(sample.taus.std(ddof=1) / math.sqrt(sample.n))
            assert sample.arl() == (float(sample.taus.mean()), se)
    # both sides are taken: hand-built samples of a few thousand runs pass
    # with a censored run or two, and short simulated horizons are refused
    assert any(refused) and not all(refused)


def test_empty_and_one_run_samples_keep_their_estimates():
    # every run censored: the guard refuses both estimates
    censored = simulate_run_lengths(FixedTimeRule(5), PAIR, 3, 4, seed=0)
    assert (censored.n, censored.censored, censored.horizon) == (0, 3, 4)
    for estimate in (censored.arl, lambda: censored.ceiling(2)):
        with pytest.raises(ValueError, match="^3 of 3 runs were censored at horizon 4,"):
            estimate()
    # no runs at all: the mean is NaN, and the ceiling has no run length
    empty = metrics.RunLengthSample(np.zeros(0), np.zeros(0), 0, horizon=4)
    arl = empty.arl()
    assert math.isnan(arl.value) and math.isnan(arl.std_error)
    with pytest.raises(DegenerateEstimateError):
        empty.ceiling(2)
    det = calibrate(PAIR, 10.0)
    one = simulate_run_lengths(det, PAIR, 1, 200, seed=0)
    (tau,), (lr,) = one.taus, one.lrs
    assert one.arl() == (tau, 0.0)
    assert one.ceiling(3) == (3 * lr / tau, 0.0)


def test_ceiling_is_linear_in_s_over_one_sample():
    det = calibrate(PAIR, 10.0)
    sample = simulate_run_lengths(det, PAIR, 2000, 200, seed=32)
    mean_lr, mean_tau, *_ = sample.moments
    ratio = mean_lr / mean_tau
    rel_se = None
    for s in (1, 3, 10):
        est = sample.ceiling(s)
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
        assert rep.arl_to_false_alarm == sample.arl()
        assert rep.arl_censored == sample.censored
        assert rep.optimality_ceiling == sample.ceiling(sched.s) == estimate_optimality_ceiling(
            det, PAIR, sched.s, n, horizon, seed=33
        )


def test_ceiling_of_initial_stops_only_is_degenerate():
    # the one run is an initial stop: the mean run length is 0, the ratio 0 / 0
    det = calibrate(PAIR, 10.0, initial_stop_prob=0.5)
    with pytest.raises(DegenerateEstimateError, match="initial stop"):
        evaluate_criteria(det, PAIR, make_schedule(40, 4, 1), n_trials=1, seed=3)
    # three initial stops and no censored run: the ratio is 0 / 0
    sample = metrics.RunLengthSample(np.zeros(3), np.zeros(3), 0, horizon=200)
    with pytest.raises(DegenerateEstimateError, match="initial stop"):
        estimate_optimality_ceiling(det, PAIR, 4, 3, 200, seed=0, sample=sample)
    # two of five runs censored is far past a censoring probability of e^-10
    sample = metrics.RunLengthSample(np.zeros(3), np.zeros(3), 2, horizon=200)
    with pytest.raises(ValueError, match="^2 of 5 runs were censored at horizon 200,"):
        sample.ceiling(4)


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


def _estimator_call(name, n_trials):
    det = calibrate(PAIR, 10.0)
    sched = make_schedule(40, 4, 1)
    if name == "simulate_run_lengths":
        return simulate_run_lengths(det, PAIR, n_trials, 200, seed=1)
    if name == "estimate_pollak":
        return estimate_pollak(det, PAIR, sched, n_trials, seed=1)
    return evaluate_criteria(det, PAIR, sched, n_trials=n_trials, seed=1)


ESTIMATORS = ["simulate_run_lengths", "estimate_pollak", "evaluate_criteria"]


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize(
    "n_trials, match",
    [
        # a float reached range() with an unnamed TypeError, True ran one
        # trial, and 2**63 grew the chunk list without bound
        pytest.param(2.5, r"an integer, got 2\.5$", id="2.5"),
        pytest.param(300.0, r"an integer, got 300\.0$", id="300.0"),
        pytest.param(np.float64(300), r"an integer, got np\.float64\(300\.0\)$", id="np.float64"),
        pytest.param(True, r"an integer, got True$", id="True"),
        pytest.param("300", r"an integer, got '300'$", id="str"),
        pytest.param(np.int64(0), r">= 1, got 0$", id="np.int64(0)"),
        pytest.param(2**63, r"below 2\*\*63, got 9223372036854775808$", id="2**63"),
        pytest.param(np.uint64(2**63), r"below 2\*\*63, got 9223372036854775808$", id="np.uint64"),
        pytest.param(10**400, r"below 2\*\*63, got 1000", id="10**400"),
    ],
)
def test_estimators_refuse_a_trial_count_before_drawing(
    monkeypatch, drawn, estimator, n_trials, match
):
    generators = []
    monkeypatch.setattr(metrics, "trial_rng", lambda *key: generators.append(key))
    with pytest.raises(ValueError, match="^n_trials must be " + match):
        _estimator_call(estimator, n_trials)
    assert drawn == [] and generators == []


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_estimators_take_a_numpy_trial_count_as_an_int(estimator):
    # np.int64(300) made every Pollak term an np.float64
    got, expected = (_estimator_call(estimator, n) for n in (np.int64(300), 300))
    assert repr(got) == repr(expected)
    if estimator == "estimate_pollak":
        assert all(type(v) is float for term in got.per_onset for v in term)
        assert got.survivors == (300,) * 4 and type(got.survivors[0]) is int


@pytest.mark.parametrize("s", [0, 4])
@pytest.mark.parametrize(
    "kwargs, match",
    [
        # the direct draw has one layout for both modes: a mode is refused
        ({"mode": "restart"}, "unexpected keyword argument 'mode'"),
        ({"n_trials": -5}, "n_trials must be >= 1"),
    ],
)
def test_estimate_pollak_checks_its_runs_on_any_schedule(s, kwargs, match):
    # an onset-free schedule returns a zero sum without drawing, but not
    # for a call that would fail with onsets
    args = {"n_trials": 100, **kwargs}
    with pytest.raises((TypeError, ValueError), match=match):
        estimate_pollak(calibrate(PAIR, 10.0), PAIR, make_schedule(40, s, 1), seed=1, **args)


def test_a_never_alarming_detector_runs_single_shot():
    # eta = inf is a valid threshold with no F0 tail; its laws give no
    # alarm, so the first block holds the whole horizon
    det = ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)
    sched = make_schedule(40, 4, 1)
    stop, _ = _simulate(det, PAIR, sched, "single_shot", 300, 1, STREAM_MONITOR)
    assert (stop == -1).all()
    est = estimate_pollak(det, PAIR, sched, 300, seed=1)
    assert est.value == 0.0 and est.survivors == (300,) * 4


def test_a_never_alarming_detector_censors_every_f0_and_restart_run(drawn):
    # c0 = c1 = 0 gives no mean gap to size a buffer by: it holds the whole
    # limit of each trial, and nothing is divided by zero
    det = ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)
    sched = make_schedule(40, 4, 1)
    for n in (1, 300):
        drawn.clear()
        sample = simulate_run_lengths(det, PAIR, n, 40, seed=8)
        assert sample.censored == n and sample.n == 0
        assert sum(drawn) == 40 * n
        drawn.clear()
        stop, _ = _simulate(det, PAIR, sched, "restart", n, 8, STREAM_MONITOR)
        assert (stop == -1).all()
        assert sum(drawn) == 4 * n


@dataclasses.dataclass(frozen=True)
class IntVerdictRule:
    """An edge rule whose verdicts are int 0/1, not bool."""

    memoryless = True

    def alarm_mask(self, times, x, rng):
        return (x >= 1.0).astype(np.int64)


def test_pollak_rejects_verdicts_that_are_not_bool():
    with pytest.raises(TypeError, match=r"IntVerdictRule\(\)\.alarm_mask returned int64"):
        estimate_pollak(IntVerdictRule(), PAIR, make_schedule(40, 4, 1), 10, seed=1)


def test_criteria_reject_an_infinite_eta_by_name():
    det = ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)
    with pytest.raises(ValueError, match="eta must be finite"):
        evaluate_criteria(det, PAIR, make_schedule(40, 4, 1), n_trials=10, seed=1)


@pytest.mark.parametrize("rule", [BernoulliStopRule(0.1), AlwaysStopRule()])
def test_criteria_reject_a_memoryless_rule_without_eta_by_name(rule):
    # both pass the memoryless guard; with no run-length budget there is no
    # horizon 20 * eta to size
    with pytest.raises(ValueError, match="eta must be finite .*, got nan"):
        evaluate_criteria(rule, PAIR, make_schedule(40, 4, 1), n_trials=10, seed=1)


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
    assert rep.pollak_estimate == (0.0, 0.0)


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
    first = first_alarms(mask[:, cols])
    # row 0 of the scored stops is an initial stop
    stop = np.concatenate([[0], np.where(first >= 0, cols[first] + 1, -1)])
    # the library's scoring: ranks above 2i reached onset i
    rank, counts = _rank_counts(stop, sched)
    survivors_of_ranks = counts[::-1].cumsum()[::-1][1::2]
    initial = run_monitoring(
        dataclasses.replace(det, initial_stop_prob=1.0), PAIR, sched, mode, seed=38
    )
    reference = [initial] + [monitor_sequence(det, row, sched, mode) for row in x]
    assert {out.tau for out in reference} >= {0, None, 1, sched.horizon}
    hits = np.zeros(sched.s, dtype=int)
    survivors = np.zeros(sched.s, dtype=int)
    for k, out in enumerate(reference):
        assert stop[k] == (-1 if out.tau is None else out.tau)
        # a run detects exactly when it stops on an onset
        assert out.first_detection_time == (stop[k] if stop[k] in sched.onsets else None)
        assert rank[k] >> 1 == out.missed_onsets_before_detection
        end = sched.horizon + 1 if out.tau is None else out.tau
        survivors += np.asarray(sched.onsets) <= end
        hits += np.asarray(sched.onsets) == out.first_detection_time
    assert np.array_equal(counts[1::2], hits)
    assert np.array_equal(survivors_of_ranks, survivors)


def test_restart_runs_stop_drawing_at_their_first_detection(drawn):
    det = calibrate(PAIR, 5.0)
    sched = make_schedule(10_000, 100, 1, "even_grid")
    n = 300
    stop, _ = _simulate(det, PAIR, sched, "restart", n, 39, STREAM_MONITOR)
    # detection at an onset has probability ~0.56, so runs end near t = 200
    _, counts = _rank_counts(stop, sched)
    assert counts[0] == 0  # every run reached the first onset
    assert sum(drawn) < n * sched.horizon / 10


def test_restart_runs_draw_only_their_onset_samples(drawn):
    sched = make_schedule(10_000, 100, 1, "even_grid")
    n = 300
    _simulate(calibrate(PAIR, 5.0), PAIR, sched, "restart", n, 39, STREAM_MONITOR)
    assert 0 < sum(drawn) <= n * sched.s
    # a rule that never alarms runs every trial to the horizon
    drawn.clear()
    never = ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)
    stop, _ = _simulate(never, PAIR, sched, "restart", n, 39, STREAM_MONITOR)
    _, counts = _rank_counts(stop, sched)
    assert counts[1::2].sum() == 0 and (stop == -1).all()
    assert sum(drawn) == n * sched.s


@pytest.mark.parametrize("n", [1, 200, 300])
def test_pure_f0_runs_of_data_free_rules_draw_only_what_decides(drawn, n):
    # these rules read no sample, so a run draws only its stopping sample,
    # once its stop is known: FixedTimeRule(k) stops every run at k and
    # AlwaysStopRule at 1
    for k in (1, 5, 50):
        drawn.clear()
        sample = simulate_run_lengths(FixedTimeRule(k), PAIR, n, 1000, seed=7)
        assert sample.taus.tolist() == [k] * n
        assert sum(drawn) == n
    drawn.clear()
    simulate_run_lengths(AlwaysStopRule(), PAIR, n, 10, seed=7)
    assert sum(drawn) == n
    # BernoulliStopRule(0.1) outlives 20 samples with probability 0.12
    drawn.clear()
    sample = simulate_run_lengths(BernoulliStopRule(0.1), PAIR, n, 20, seed=7)
    assert sum(drawn) == sample.n == n - sample.censored
    # a run censored at the horizon draws none
    drawn.clear()
    assert simulate_run_lengths(FixedTimeRule(50), PAIR, n, 20, seed=7).censored == n
    assert sum(drawn) == 0


def test_rules_that_read_no_sample_draw_no_sample_for_their_terms(drawn):
    # their verdicts read only the time and the rng: no term draws a
    # Gaussian, and a single-shot run draws its stopping sample alone
    for rule in (AlwaysStopRule(), FixedTimeRule(4), BernoulliStopRule(0.3)):
        for sched in CRITERION_3_SCHEDULES:
            drawn.clear()
            estimate_pollak(rule, PAIR, sched, 300, seed=5)
            assert drawn == []
            stop, _ = _simulate(rule, PAIR, sched, "single_shot", 300, 5, STREAM_MONITOR)
            assert sum(drawn) == np.count_nonzero(stop != -1)


ONSETS_4_8_12 = ChangeSchedule(onsets=(4, 8, 12), duration=1, horizon=12)


@pytest.mark.parametrize(
    "rule, schedule, mode, laws",
    [
        (calibrate(PAIR, 10.0), ONSETS_4_8_12, "single_shot", ["nominal", "alternative"]),
        (calibrate(PAIR, 10.0), ONSETS_4_8_12, "restart", ["alternative"]),
        (calibrate(PAIR, 10.0), ChangeSchedule((), 1, 200), "single_shot", ["nominal"]),
        (FixedTimeRule(5), ChangeSchedule((), 1, 100), "single_shot", ["nominal"]),
        (BernoulliStopRule(0.1), ONSETS_4_8_12, "single_shot", ["nominal", "alternative"]),
    ],
    ids=["blocks-with-onsets", "restart", "flat-f0", "blocks-f0", "data-free-blocks"],
)
def test_draw_sizes_are_taken_once_per_call(monkeypatch, rule, schedule, mode, laws):
    # 600 trials are three chunks, and every chunk's first draw has one size
    calls = []
    original = type(rule).alarm_probs

    def counting_alarm_probs(self, times, law):
        calls.append(law)
        return original(self, times, law)

    monkeypatch.setattr(type(rule), "alarm_probs", counting_alarm_probs)
    _simulate(rule, PAIR, schedule, mode, 600, 8, STREAM_MONITOR)
    assert calls == laws


def test_chunk_bounds_are_made_as_they_are_taken():
    # taking the first of 10**18 trials' bounds must not build the rest; a
    # list-building function is refused before it is called with that count
    assert inspect.isgeneratorfunction(metrics._chunk_ranges)
    chunks = metrics._chunk_ranges(10**18)
    assert next(chunks) == (0, _CHUNK)
    assert next(chunks) == (_CHUNK, 2 * _CHUNK)
    assert list(metrics._chunk_ranges(600)) == [(0, 256), (256, 512), (512, 600)]


#: most samples a calibrated restart run may draw per onset sample that
#: decides, fixed before running.  Every buffer of a chunk but its last is
#: used up.  The first holds min(1 / c1, s) samples per trial, at most
#: e / (e - 1) ~ 1.58 times the (1 - (1 - c1)^s) / c1 a run needs in
#: expectation (the worst case is c1 * s = 1); the rest is noise
RESTART_DRAW_RATIO = 1.7


@pytest.mark.parametrize("eta,s", [(5.0, 100), (10.0, 10), (100.0, 3), (1000.0, 50)])
def test_restart_runs_draw_little_beyond_the_onset_samples_that_decide(drawn, eta, s):
    sched = make_schedule(100 * s, s, 1, "even_grid")
    stop, _ = _simulate(calibrate(PAIR, eta), PAIR, sched, "restart", 2000, 50, STREAM_MONITOR)
    rank, _ = _rank_counts(stop, sched)
    decided = int((rank >> 1).sum() + (rank & 1).sum())  # onsets missed, plus the one detected
    assert decided <= sum(drawn) <= RESTART_DRAW_RATIO * decided


@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize(
    "rule",
    [AlwaysStopRule(), ShewhartDetector(PAIR, alpha=math.inf, eta=math.inf)],
    ids=["always", "never"],
)
def test_restart_stops_match_monitor_sequence(T, rule):
    # verdicts fixed whatever the data, so every run of a schedule has the
    # same stop: the first onset, or censored.  One onset at t = 1 and the last window
    # ending at the horizon (the last onset is the horizon itself when T = 1)
    horizon = 12
    sched = ChangeSchedule(onsets=(1, 6, horizon - T + 1), duration=T, horizon=horizon)
    stop, _ = _simulate(rule, PAIR, sched, "restart", 300, 43, STREAM_MONITOR)
    expected = monitor_sequence(rule, np.zeros(horizon), sched, "restart").tau
    assert (stop == (-1 if expected is None else expected)).all()


def test_restart_runs_refuse_a_time_dependent_rule_before_drawing(drawn):
    # a restart run is a renewal on onset samples only for a memoryless rule
    sched = make_schedule(60, 6, 1, "even_grid")
    with pytest.raises(ValueError, match=r"FixedTimeRule\(stop_at=2\) is not memoryless"):
        _simulate(FixedTimeRule(2), PAIR, sched, "restart", 300, 43, STREAM_MONITOR)
    assert drawn == []


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
    stop, recorded = _simulate(rule, PAIR, sched, mode, 600, 45, STREAM_MONITOR)
    at, x_at = replay_flat_stops(rule, law, limit, 600, 45, STREAM_MONITOR)
    expected = [0 if a is None else -1 if a < 0 else int(cols[a]) + 1 for a in at]
    assert stop.tolist() == expected
    assert np.array_equal(recorded, x_at, equal_nan=True)
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
    # every trial decides every onset
    assert hit.survivors == (2000,)
    miss = estimate_pollak(FixedTimeRule(7), PAIR, sched, 2000, seed=34)
    assert miss.value == 0.0
    # no run of a rule that stops at 4 reaches the onset at 5, but the term
    # is still c1(5) = 0; the history check has no run to condition on
    early = estimate_pollak(FixedTimeRule(4), PAIR, sched, 2000, seed=35)
    assert early.value == 0.0 and early.survivors == (2000,)
    with pytest.raises(DegenerateEstimateError):
        history_independence_pvalue(FixedTimeRule(4), PAIR, sched, 1, 2000, seed=35)


def test_pollak_is_exact_for_a_time_dependent_rule():
    # each term is the alarm probability of the onset's own F1 sample, Q(1)
    # at these even onsets, whatever history reached it; so the history
    # worst case is this sum
    rule = AlternatingThresholdRule(even=2.0, odd=3.0)
    sched = ChangeSchedule(onsets=tuple(range(4, 81, 4)), duration=1, horizon=80)
    est = estimate_pollak(rule, PAIR, sched, 20_000, seed=1)
    assert est.survivors == (20_000,) * 20
    assert abs(est.value - 20 * norm_upper_tail(1.0)) <= Z_CHECK * est.std_error


# ---------------------------------------------------------------------------
# sweep rows


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


@pytest.mark.parametrize(
    "mode, sched",
    [
        ("restart", make_schedule(400, 4, 1)),
        # single-shot runs on a schedule with onsets take the block layout
        ("single_shot", ChangeSchedule(onsets=(5, 17, 30), duration=1, horizon=40)),
    ],
)
def test_sweep_rows_equal_their_cells_run_alone(mode, sched):
    # a sweep's rows share one process, so they share the seed-word cache and
    # each mean's pair with its cached properties; neither may leak between
    # rows.  600 trials cross two chunk boundaries.
    n_trials = 2 * _CHUNK + 88
    pairs = [GaussianMeanShift(0.0, mu1, 1.0) for mu1 in (0.5, 2.0)]
    cells = [
        (pair, np.random.SeedSequence(40, spawn_key=(100 + mi, gi)), eta)
        for mi, pair in enumerate(pairs)
        for gi, eta in enumerate((4.0, 8.0, 16.0))
    ]
    rows = detect_first_any_curves(cells, sched, n_trials, mode)
    assert [(row.mu1, row.eta) for row in rows] == [(pair.mean1, eta) for pair, _, eta in cells]
    for (pair, seed, eta), row in reversed(list(zip(cells, rows))):
        metrics._seed_words.cache_clear()
        # a fresh copy of the pair, with none of the sweep's cached properties
        alone = ((dataclasses.replace(pair), seed, eta),)
        (again,) = detect_first_any_curves(alone, sched, n_trials, mode)
        assert again.to_csv_line() == row.to_csv_line(), (pair, eta)


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


def test_run_based_conditionals_agree_with_the_direct_terms():
    # the run-based estimator: single-shot stops scored by rank, each
    # reachable onset's hits over the runs that reached it.  The two sides
    # take different seeds: one seed would draw both from one stream.  A
    # pooled two-proportion z test per onset, Bonferroni at a family level
    # of 1e-3
    n = 20_000
    cells = []
    for rule, _ in CRITERION_3_RULES:
        for sched in CRITERION_3_SCHEDULES:
            stop, _ = _simulate(rule, PAIR, sched, "single_shot", n, 401, STREAM_MONITOR)
            counts = _rank_counts(stop, sched)[1]
            reached = counts[::-1].cumsum()[::-1][1::2]  # ranks above 2i reached onset i
            direct = estimate_pollak(rule, PAIR, sched, n, seed=402)
            for h, m, term in zip(counts[1::2].tolist(), reached.tolist(), direct.per_onset):
                if m:
                    cells.append((h, m, round(term.value * n)))
    # no run of always-stop reaches an onset, nor one of stop-at-5 past 4
    assert len(cells) == 6 * 14 - 14 - 11
    z = norm_upper_quantile(1e-3 / len(cells) / 2)
    for h, m, d in cells:
        pooled = (h + d) / (m + n)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / m + 1.0 / n))
        assert abs(h / m - d / n) <= z * se, (h, m, d)


#: the rules that read no sample.  Each stochastic check of their closed
#: forms below takes a Bonferroni share of a family level of 1e-3, fixed
#: before running: one geometric fit, criterion 3's 14 binomial terms, and
#: per rule three KS tests (F0 runs; single-shot stops off and at an onset)
#: and one likelihood-ratio mean
DATA_FREE_RULES = (AlwaysStopRule(), FixedTimeRule(4), FixedTimeRule(5), BernoulliStopRule(0.1))
DATA_FREE_LEVEL = 1e-3 / (1 + 14 + 3 * len(DATA_FREE_RULES) + len(DATA_FREE_RULES))


def test_always_and_fixed_time_rules_meet_their_closed_forms_exactly():
    # every run stops at k (or the horizon ends it first), and every term
    # is 1 at the onset k (at every onset for always-stop) and 0 elsewhere
    n = 300
    for rule, k in ((AlwaysStopRule(), 1), (FixedTimeRule(4), 4), (FixedTimeRule(50), 50)):
        always = isinstance(rule, AlwaysStopRule)
        f0 = simulate_run_lengths(rule, PAIR, n, 10, seed=501)
        if k <= 10:
            assert f0.taus.tolist() == [k] * n and f0.censored == 0
        else:
            assert f0.taus.size == 0 and f0.censored == n
        for sched in CRITERION_3_SCHEDULES:
            est = estimate_pollak(rule, PAIR, sched, n, seed=502)
            terms = [(float(always or t == k), 0.0) for t in sched.onsets]
            assert [tuple(term) for term in est.per_onset] == terms
            assert (est.value, est.std_error) == (float(sum(p for p, _ in terms)), 0.0)


def test_bernoulli_stop_rule_meets_its_closed_forms():
    from scipy import stats as scipy_stats

    p, n = 0.1, 2000
    rule = BernoulliStopRule(p)
    f0 = simulate_run_lengths(rule, PAIR, n, 1000, seed=503)
    assert f0.censored == 0  # 0.9 ** 1000 is about 2e-46 per run
    assert geometric_gof_pvalue(f0.taus, p) >= DATA_FREE_LEVEL
    for sched in CRITERION_3_SCHEDULES:
        est = estimate_pollak(rule, PAIR, sched, n, seed=504)
        for term in est.per_onset:
            assert scipy_stats.binomtest(round(term.value * n), n, p).pvalue >= DATA_FREE_LEVEL


def test_stopping_samples_of_data_free_rules_have_the_law_of_their_stop_time():
    # drawn after the stop, from F1 at an onset and F0 elsewhere; a
    # censored run has none
    from scipy import stats as scipy_stats

    n = 2000
    for rule in DATA_FREE_RULES:
        groups = []
        f0 = ChangeSchedule((), 1, 100)
        for sched, stream in ((f0, STREAM_RUN_LENGTH), (ONSETS_4_8_12, STREAM_MONITOR)):
            stop, x = _simulate(rule, PAIR, sched, "single_shot", n, 505, stream)
            assert np.isnan(x[stop == -1]).all() and not np.isnan(x[stop != -1]).any()
            at_onset = np.isin(stop, sched.onsets)
            groups += [(x[(stop != -1) & ~at_onset], PAIR.mean0), (x[at_onset], PAIR.mean1)]
        assert sum(sample.size > 0 for sample, _ in groups) <= 3
        for sample, mean in groups:
            if sample.size:
                pvalue = scipy_stats.kstest(sample, "norm", args=(mean, PAIR.sigma)).pvalue
                assert pvalue >= DATA_FREE_LEVEL, (rule, mean)


def test_f0_likelihood_ratios_at_data_free_stops_have_mean_one():
    # the stopping sample is an F0 draw whatever the stop, so E0[l] = 1 and
    # Var0[l] = exp(shift^2 / sigma^2) - 1 for the Gaussian pair
    n = 20_000
    var = math.expm1(((PAIR.mean1 - PAIR.mean0) / PAIR.sigma) ** 2)
    z = norm_upper_quantile(DATA_FREE_LEVEL / 2)
    for rule in DATA_FREE_RULES:
        f0 = simulate_run_lengths(rule, PAIR, n, 1000, seed=507)
        assert f0.censored == 0
        mean_lr = f0.moments[0]
        assert abs(mean_lr - 1.0) <= z * math.sqrt(var / f0.n), rule


def _hexes(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _pollak_line(label, est) -> str:
    terms = [v for term in est.per_onset for v in term]
    return (
        f"pollak {label} {_hexes((est.value, est.std_error))} "
        f"{_hexes(terms)} {est.survivors}"
    )


def single_shot_and_f0_digest() -> str:
    """sha256 of what no preset covers: F0 run lengths (``taus``, ``lrs``,
    ``censored``), single-shot stops (the block layout with onsets) and the
    conditional-detection terms (sum, ``per_onset``, ``survivors``) over
    criterion 3's grid."""
    lines = []
    for r, (rule, horizon) in enumerate(CRITERION_3_RULES):
        for n in (1, 2, 200, 300):
            f0 = simulate_run_lengths(rule, PAIR, n, horizon, seed=303 + n)
            lines.append(f"f0 {r} {n} {_hexes(f0.taus)} {_hexes(f0.lrs)} {f0.censored}")
            for sched in CRITERION_3_SCHEDULES:
                stop, _ = _simulate(rule, PAIR, sched, "single_shot", n, 304 + n, STREAM_MONITOR)
                lines.append(f"single_shot {r} {n} {sched.s} {stop.tolist()}")
                est = estimate_pollak(rule, PAIR, sched, n, seed=304 + n)
                lines.append(_pollak_line(f"{r} {n} {sched.s}", est))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


#: the F0 run lengths' ``lrs`` are the pair's ``likelihood_ratio``, the C
#: library's exp on every host, so the digest has one value whichever
#: kernel numpy dispatches for its real ``exp``.  The rules that read no
#: sample draw none for their verdicts, only their stopping samples once
#: stopped, so their streams differ from those of the rules that do
SINGLE_SHOT_AND_F0_SHA256 = "ed85c2355c9d39e867dbb2de4fc178302317348a063b8ebe0ee34c1713d13048"


def test_single_shot_and_f0_outputs_are_pinned():
    # no preset runs single-shot or reports per-trial F0 samples, so their
    # bits are pinned here; a change of kernel or scoring must keep them.
    # CI reruns this with numpy's AVX-512 targets disabled: both runs must
    # read this one value
    assert single_shot_and_f0_digest() == SINGLE_SHOT_AND_F0_SHA256


def initial_stop_digest() -> str:
    """sha256 of what no preset or pin covers: a rule with an initial stop.
    F0 run lengths, then single-shot and restart stops and the
    conditional-detection terms over criterion 3's schedules, at 1 and 300
    trials (300 spans two chunks)."""
    rule = calibrate(PAIR, 20.0, initial_stop_prob=0.3)
    lines = []
    for n in (1, 300):
        f0 = simulate_run_lengths(rule, PAIR, n, 200, seed=313 + n)
        lines.append(f"f0 {n} {_hexes(f0.taus)} {_hexes(f0.lrs)} {f0.censored}")
        for sched in CRITERION_3_SCHEDULES:
            for mode in ("single_shot", "restart"):
                stop, _ = _simulate(rule, PAIR, sched, mode, n, 314 + n, STREAM_MONITOR)
                lines.append(f"{mode} {n} {sched.s} {stop.tolist()}")
            est = estimate_pollak(rule, PAIR, sched, n, seed=314 + n)
            lines.append(_pollak_line(f"{n} {sched.s}", est))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


#: :func:`initial_stop_digest`, one value on every host, as above
INITIAL_STOP_SHA256 = "35bc6b9fd148564c3377ee82da6991cbb55bf9ceeabfde70d3f7a26cc5b1fc7e"


def test_initial_stop_outputs_are_pinned():
    # the kernel keeps initial-stop bookkeeping only for a rule with an
    # initial stop, and every preset and the digest above run without one,
    # so this pins the bits of the other branch in all three layouts
    # (flat F0, flat restart, block single-shot)
    assert initial_stop_digest() == INITIAL_STOP_SHA256


def _random_stops(rng, sched, n):
    """Stops of ``n`` runs: censored, initial stops, and alarms at any time,
    on onsets more often."""
    times = np.concatenate(([-1, 0], np.arange(1, sched.horizon + 1), sched.onsets))
    return rng.choice(times, n).astype(np.int64)


def searchsorted_scores(stop, sched):
    """Per-onset hits and survivors and per-run missed onsets of the runs'
    ``stop``s, from a search of each run's end among the onsets (a censored
    run ends after the horizon)."""
    end = np.where(stop == -1, sched.horizon + 1, stop)
    onsets = np.asarray(sched.onsets, dtype=np.int64)
    # survivors of each onset as the reversed cumulative count of the onsets reached
    reached = np.searchsorted(onsets, end, side="right")
    survivors = np.cumsum(np.bincount(reached, minlength=sched.s + 1)[::-1])[::-1][1:]
    hits = np.array([np.count_nonzero(stop == g) for g in sched.onsets], dtype=np.int64)
    return hits, survivors, np.searchsorted(onsets, end)


def _scoring_schedules(rng):
    """Random schedules (s = 0 among them): even grids of duration 1, whose
    last onset is the horizon, and uniform placements of durations 2 and 3;
    then onsets at the first time step and at the horizon."""
    for _ in range(300):
        horizon = int(rng.integers(1, 60))
        duration = int(rng.integers(1, 4))
        s = int(rng.integers(0, horizon // (duration + 1) + 1))
        placement = "even_grid" if duration == 1 else "uniform_random"
        yield make_schedule(horizon, s, duration, placement, rng=rng)
    for onsets, horizon in (((), 7), ((1,), 1), ((7,), 7), ((1, 4, 7), 7), ((2, 9), 9)):
        yield ChangeSchedule(onsets=onsets, duration=1, horizon=horizon)
    yield ChangeSchedule(onsets=(3, 8), duration=3, horizon=10)


def test_scoring_pass_matches_the_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(61)
    seen, sizes = set(), set()
    for sched in _scoring_schedules(rng):
        horizon = sched.horizon
        seen.add((sched.duration, sched.s == 0, horizon in sched.onsets))
        n = int(rng.choice([1, 2, 3, 17, 256, 300]))
        stop = _random_stops(rng, sched, n)
        hits, survivors, missed = searchsorted_scores(stop, sched)
        # the report's ranks: the onsets before each run's end, and the runs
        # stopped on each onset
        rank, counts = _rank_counts(stop, sched)
        assert np.array_equal(rank >> 1, missed)
        assert np.array_equal(counts[1::2], hits)
        # the pooled count: every onset reached was missed or stopped on
        assert int(missed.sum()) + int(hits.sum()) == int(survivors.sum())
        # avg_missed: one mean for the value and the standard error
        x = missed.astype(float)
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert repr(_mean_se(rank >> 1)) == repr(Estimate(float(x.mean()), se))
        sizes.add(n)
    # every duration, an empty schedule and an onset at the horizon were
    # scored, at 1 and 300 runs
    assert {d for d, _, _ in seen} == {1, 2, 3}
    assert any(empty for _, empty, _ in seen) and any(last for _, _, last in seen)
    assert {1, 300} <= sizes


def test_mean_se_matches_the_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(62)
    for n in (1, 2, 3, 7, 100, 1001, 20_000):
        spread = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
        for values in (spread, rng.integers(0, 99, n)):
            x = values.astype(float)
            se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            assert repr(_mean_se(values)) == repr(Estimate(float(x.mean()), se))


@pytest.mark.parametrize("mode", ["single_shot", "restart"])
def test_criteria_cells_are_the_reductions_of_the_monitored_stops(mode, monkeypatch):
    # initial stops (and, in restart mode, censored runs) at 1, 2 and 300 runs
    det = calibrate(PAIR, 4.0, initial_stop_prob=0.2)
    sched = make_schedule(60, 6, 1)
    ends = set()
    for n in (1, 2, 300):
        stop, _ = _simulate(det, PAIR, sched, mode, n, 63, STREAM_MONITOR)
        ends.update(stop[stop <= 0].tolist())
        rep = evaluate_criteria(det, PAIR, sched, n_trials=n, seed=63, mode=mode)
        hits, _, missed = searchsorted_scores(stop, sched)
        # the onset each run stopped on, -1 for none
        detected_at = np.array([sched.onsets.index(t) if t in sched.onsets else -1 for t in stop])
        assert rep.detect_any_prob.value == float((detected_at >= 0).mean())
        assert rep.detect_first_prob.value == float((detected_at == 0).mean())
        x = missed.astype(float)
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert repr(rep.avg_missed) == repr(Estimate(float(x.mean()), se))
        # the pooled sum: a run reached every onset it missed and the one it
        # stopped on, and each onset reached is one trial of the same p
        detected = int(hits.sum())
        reached = int(missed.sum()) + detected
        p = detected / reached if reached else 0.0
        expected = (sched.s * p, sched.s * _binomial_se(p, reached))
        assert _hexes(rep.pollak_estimate) == _hexes(expected)
    assert ends == ({-1, 0} if mode == "restart" else {0})
    # the pooled sum is exact only for a memoryless rule: any other is
    # rejected by name before a run is simulated
    monkeypatch.setattr(metrics, "_simulate", None)
    with pytest.raises(ValueError, match="memoryless"):
        evaluate_criteria(FixedTimeRule(3), PAIR, sched, n_trials=300, seed=63, mode=mode)
