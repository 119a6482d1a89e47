import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transientscan import (
    ChangeSchedule,
    GaussianMeanShift,
    InfeasibleScheduleError,
    generate_sequence,
    make_schedule,
)
from transientscan.sequence_model import read_sequence_csv, write_sequence_csv

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


def brute_force_affected(schedule):
    out = set()
    for g in schedule.onsets:
        out.update(range(g, g + schedule.duration))
    return out


# ---------------------------------------------------------------------------
# schedule construction


def test_empty_schedule_is_the_no_change_regime():
    sched = make_schedule(100, 0, 1)
    assert sched.onsets == ()
    assert sched.s == 0
    assert sched.affected_times().size == 0
    assert not sched.f1_columns.any()


def test_even_grid_at_scale():
    sched = make_schedule(100_000, 1000, 1, "even_grid")
    assert sched.onsets == tuple(100 * k for k in range(1, 1001))
    gaps = np.diff(sched.onsets)
    assert (gaps == 100).all() and (gaps > sched.duration).all()
    assert sched.onsets[-1] + sched.duration - 1 <= sched.horizon


def test_even_grid_builds_every_feasible_schedule():
    # the floor grid over the legal onsets, as built before it could move:
    # kept wherever valid, and moved only where two onsets would be
    # `duration` apart (46 feasible triples in this range, from (8, 2, 3))
    moved = []
    for horizon in range(1, 80):
        for duration in range(1, 5):
            for s in range(1, horizon // (duration + 1) + 1):
                floor_grid = tuple(k * (horizon - duration + 1) // s for k in range(1, s + 1))
                sched = make_schedule(horizon, s, duration, "even_grid")
                onsets = sched.onsets
                assert len(onsets) == s and onsets[0] >= 1
                assert all(b - a > duration for a, b in zip(onsets, onsets[1:]))
                assert onsets[-1] + duration - 1 <= horizon
                if all(b - a > duration for a, b in zip(floor_grid, floor_grid[1:])):
                    assert onsets == floor_grid, (horizon, s, duration)
                else:
                    moved.append((horizon, s, duration))
    assert len(moved) == 46 and moved[0] == (8, 2, 3)
    assert all(duration >= 3 for _, _, duration in moved)
    assert make_schedule(8, 2, 3).onsets == (1, 6)


def test_explicit_overlap_rejected():
    with pytest.raises(ValueError):
        make_schedule(100, 2, 1, "explicit", onsets=[5, 6])


@pytest.mark.parametrize("s", [0, 1, 3])
def test_explicit_onsets_must_number_s(s):
    with pytest.raises(ValueError, match=rf"s = {s} onsets, got \[5, 20\]"):
        make_schedule(50, s, 1, "explicit", onsets=[5, 20])
    assert make_schedule(50, 2, 1, "explicit", onsets=iter([5, 20])).onsets == (5, 20)


@pytest.mark.parametrize(
    "onsets", [4, 4.0, True, None, "40", b"40", {40: 1}],
    ids=["int", "float", "bool", "None", "str", "bytes", "dict"],
)
def test_onsets_that_are_no_list_are_refused_by_name(onsets):
    # an int raised an unnamed TypeError from the tuple of onsets; a string
    # or a mapping was read element by element
    message = f"^onsets must be a list of integers, got {re.escape(repr(onsets))}$"
    with pytest.raises(ValueError, match=message):
        ChangeSchedule(onsets, 1, 100)
    with pytest.raises(ValueError, match=message):
        ChangeSchedule.from_dict({"onsets": onsets, "duration": 1, "horizon": 100})
    if onsets is not None:  # explicit placement refuses no onsets by its own message
        with pytest.raises(ValueError, match=message):
            make_schedule(100, 1, 1, "explicit", onsets=onsets)


def test_onsets_may_be_any_iterable_of_integers():
    for onsets in ([5, 20], (5, 20), range(5, 21, 15), np.array([5, 20]), iter([5, 20])):
        assert ChangeSchedule(onsets, 1, 50).onsets == (5, 20)
    assert make_schedule(50, 2, 1, "explicit", onsets=np.array([5, 20])).onsets == (5, 20)


def test_explicit_validation():
    with pytest.raises(ValueError):
        ChangeSchedule(onsets=(0,), duration=1, horizon=10)
    with pytest.raises(ValueError):
        ChangeSchedule(onsets=(3, 3), duration=1, horizon=10)
    with pytest.raises(ValueError):
        ChangeSchedule(onsets=(9,), duration=3, horizon=10)
    sched = ChangeSchedule(onsets=(1, 6), duration=4, horizon=10)
    assert sched.affected_times().size == 8


@pytest.mark.parametrize(
    "onsets, duration, horizon, field",
    [
        ((4.7,), 1, 10, "onsets"),
        (("4",), 1, 10, "onsets"),
        ((True,), 1, 10, "onsets"),
        ((4, np.float64(6.0)), 1, 10, "onsets"),
        ((4,), 1.5, 10, "duration"),
        ((4,), True, 10, "duration"),
        ((4,), 1, 10.9, "horizon"),
        ((4,), 1, "10", "horizon"),
    ],
)
def test_schedule_refuses_what_int_would_truncate_or_parse(onsets, duration, horizon, field):
    # int() would build onsets (4,) from 4.7 and "4", and (1,) from True
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ChangeSchedule(onsets, duration, horizon)


def test_schedule_takes_numpy_integers_as_ints():
    sched = ChangeSchedule((np.int64(4), np.uint8(7)), np.int32(1), np.int64(10))
    assert sched == ChangeSchedule((4, 7), 1, 10)
    assert all(type(v) is int for v in (*sched.onsets, sched.duration, sched.horizon))
    assert json.loads(sched.to_json()) == {"onsets": [4, 7], "duration": 1, "horizon": 10}


def test_schedule_from_dict_refuses_non_integers():
    with pytest.raises(ValueError, match="^onsets must be an integer, got 4.7"):
        ChangeSchedule.from_dict({"onsets": [4.7], "duration": 1, "horizon": 10})
    with pytest.raises(ValueError, match="^duration must be an integer, got 1.5"):
        ChangeSchedule.from_dict({"onsets": [4], "duration": 1.5, "horizon": 10})
    with pytest.raises(ValueError, match="^horizon must be an integer, got 10.9"):
        ChangeSchedule.from_dict({"onsets": [4], "duration": 1, "horizon": 10.9})
    # make_schedule names its counts before its grid arithmetic: s = 2.5
    # raised an unnamed TypeError, True built one onset, and a horizon of
    # 100.0 was blamed on the onsets it made
    for args, match in (
        ((100, 2.5, 1), "s must be an integer, got 2.5"),
        ((100, True, 1), "s must be an integer, got True"),
        ((100.0, 2, 1), "horizon must be an integer, got 100.0"),
        ((100, 2, np.float64(1)), "duration must be an integer, got np.float64(1.0)"),
        ((0, 0, 1), "horizon must be >= 1, got 0"),
        ((100, -1, 1), "s must be nonnegative, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            make_schedule(*args)
    assert make_schedule(np.int64(100), np.uint8(2), np.int32(1)) == make_schedule(100, 2, 1)


def test_make_schedule_checks_the_placement_before_anything_else():
    # s = 0 returned a schedule for any placement name
    for s in (0, 2):
        with pytest.raises(ValueError, match="^placement must be one of .*, got 'bogus'"):
            make_schedule(10, s, 1, "bogus")


def test_generated_placements_check_feasibility():
    with pytest.raises(InfeasibleScheduleError):
        make_schedule(100, 60, 1, "even_grid")
    with pytest.raises(InfeasibleScheduleError):
        make_schedule(100, 60, 1, "uniform_random", rng=np.random.default_rng(0))


def test_uniform_random_needs_rng_and_explicit_needs_onsets():
    with pytest.raises(ValueError):
        make_schedule(100, 2, 1, "uniform_random")
    with pytest.raises(ValueError):
        make_schedule(100, 2, 1, "explicit")
    with pytest.raises(ValueError):
        make_schedule(100, 2, 1, "even_grid", onsets=[1, 5])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_uniform_random_schedules_satisfy_invariants(data):
    horizon = data.draw(st.integers(10, 400))
    duration = data.draw(st.integers(1, 5))
    s_max = horizon // (duration + 1)
    s = data.draw(st.integers(0, s_max))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sched = make_schedule(horizon, s, duration, "uniform_random", rng=np.random.default_rng(seed))
    assert sched.s == s
    affected = sched.affected_times()
    assert affected.size == s * duration
    assert set(affected.tolist()) == brute_force_affected(sched)
    if s:
        assert sched.onsets[0] >= 1
        assert sched.onsets[-1] + duration - 1 <= horizon
        assert all(b - a > duration for a, b in zip(sched.onsets, sched.onsets[1:]))


def test_uniform_random_reaches_the_extremes():
    # with many draws both the earliest and the latest legal onset appear
    firsts, lasts = set(), set()
    for seed in range(400):
        sched = make_schedule(12, 2, 2, "uniform_random", rng=np.random.default_rng(seed))
        firsts.add(sched.onsets[0])
        lasts.add(sched.onsets[-1])
    assert 1 in firsts
    assert 11 in lasts


# ---------------------------------------------------------------------------
# affected-set helpers


def test_is_affected_matches_brute_force():
    sched = ChangeSchedule(onsets=(4, 9, 20), duration=3, horizon=30)
    truth = brute_force_affected(sched)
    assert set(sched.affected_times().tolist()) == truth
    for t in range(1, 31):
        assert sched.f1_columns[t - 1] == (t in truth)


# ---------------------------------------------------------------------------
# sequence generation


def test_sequence_replay_is_identical():
    sched = make_schedule(500, 10, 3, "even_grid")
    a = generate_sequence(PAIR, sched, np.random.default_rng(123))
    b = generate_sequence(PAIR, sched, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_pure_nominal_sequence_mean():
    sched = make_schedule(1_000_000, 0, 1)
    x = generate_sequence(PAIR, sched, np.random.default_rng(7))
    assert x.size == sched.horizon
    assert abs(x.mean()) <= 4.0 / math.sqrt(x.size)


def test_fully_transient_sequence_mean():
    horizon = 200_000
    sched = ChangeSchedule(onsets=(1,), duration=horizon, horizon=horizon)
    x = generate_sequence(PAIR, sched, np.random.default_rng(8))
    assert abs(x.mean() - 1.0) <= 4.0 / math.sqrt(horizon)


def test_transient_positions_follow_the_alternative_law():
    sched = make_schedule(5000, 200, 3, "even_grid")
    affected = sched.affected_times() - 1
    values = []
    for seed in range(40):
        x = generate_sequence(PAIR, sched, np.random.default_rng(seed))
        values.append(x[affected])
    pooled = np.concatenate(values)
    assert pooled.size == 40 * affected.size
    assert abs(pooled.mean() - 1.0) <= 4.0 / math.sqrt(pooled.size)


# ---------------------------------------------------------------------------
# serialization


def test_schedule_json_round_trip():
    sched = ChangeSchedule(onsets=(3, 9), duration=2, horizon=20)
    text = sched.to_json()
    assert json.loads(text) == {"onsets": [3, 9], "duration": 2, "horizon": 20}
    assert ChangeSchedule.from_json(text) == sched


def test_restart_stop_table_is_the_onsets_then_censored_and_read_only():
    sched = ChangeSchedule(onsets=(3, 9, 15), duration=2, horizon=20)
    assert sched.restart_stops is sched.restart_stops  # derived once
    assert sched.restart_stops.dtype == np.int64
    assert sched.restart_stops.tolist() == [3, 9, 15, -1]  # index -1 reads -1
    with pytest.raises(ValueError, match="read-only"):
        sched.restart_stops[0] = 4
    copy = pickle.loads(pickle.dumps(sched))
    assert "restart_stops" not in vars(copy) and not copy.restart_stops.flags.writeable
    assert make_schedule(5, 0, 1).restart_stops.tolist() == [-1]


def test_schedule_columns_are_derived_once_and_read_only():
    sched = ChangeSchedule(onsets=(3, 9, 15), duration=2, horizon=20)
    assert sched.onset_times is sched.onset_times  # derived once
    assert sched.f1_columns is sched.f1_columns
    assert np.array_equal(sched.onset_times, np.asarray(sched.onsets))
    assert sched.onset_times.dtype == np.int64
    assert sorted(np.flatnonzero(sched.f1_columns) + 1) == sorted(brute_force_affected(sched))
    assert sched.f1_columns.size == sched.horizon
    assert sched.onset_edges is sched.onset_edges
    assert sched.onset_edges.tolist() == [3, 4, 9, 10, 15, 16]  # each onset, then the next step
    for derived in (sched.onset_times, sched.onset_edges, sched.f1_columns):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] = derived[1]
    # not fields: equality, hashing and the dict form see only the three
    fresh = ChangeSchedule(onsets=(3, 9, 15), duration=2, horizon=20)
    assert fresh == sched and hash(fresh) == hash(sched)
    assert sched.to_dict() == {"onsets": [3, 9, 15], "duration": 2, "horizon": 20}
    # a pickled copy carries none of them: it derives its own, read-only
    # again
    copy = pickle.loads(pickle.dumps(sched))
    assert copy == sched and not {"onset_times", "onset_edges", "f1_columns"} & set(vars(copy))
    for name in ("onset_times", "onset_edges", "f1_columns"):
        assert not getattr(copy, name).flags.writeable
        assert np.array_equal(getattr(copy, name), getattr(sched, name))
    empty = make_schedule(5, 0, 1)
    assert empty.onset_times.size == 0 and not empty.f1_columns.any()
    assert empty.onset_edges.size == 0


def test_sequence_csv_round_trip(tmp_path):
    x = np.array([0.25, -1.5, 3.0000000000000004, 12.125])
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, x)
    assert np.array_equal(read_sequence_csv(path), x)


#: signed zeros, the subnormal and largest magnitudes, non-finite values and
#: two whose 17-digit forms are longer than their shortest repr
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, 0.1, 1 / 3,
]


@pytest.mark.parametrize("values", [EDGE_VALUES, []], ids=["edge_values", "empty"])
def test_sequence_csv_writes_each_value_as_17g(tmp_path, values):
    x = np.array(values, dtype=float)
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, x)
    assert path.read_bytes() == "".join(f"{v:.17g}\n" for v in x).encode("utf-8")
