"""Ground-truth change schedules and realization of the observed stream.

A schedule is the (unknown to the detector) set of onset times at which the
stream switches to the transient law F1 for a fixed number of samples.
Onsets are 1-based, windows are ``[onset, onset + duration - 1]``, and any
two onsets must be more than ``duration`` apart so windows never touch.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .distributions import DistributionPair, _count

Placement = Literal["even_grid", "uniform_random", "explicit"]


class InfeasibleScheduleError(ValueError):
    """Requested schedule parameters cannot satisfy the spacing invariants."""


@dataclass(frozen=True)
class ChangeSchedule:
    """Onset times of transient changes, their common duration, and the horizon.

    Invariants (checked at construction):
      * onsets are strictly increasing positive integers,
      * consecutive onsets differ by more than ``duration`` (non-overlap,
        with at least one nominal sample between windows),
      * the last window ends at or before ``horizon``.

    ``onsets`` is any iterable of integers but a string or a mapping, kept
    as a tuple; an empty one is the no-change regime.  The array views of
    the onsets (:attr:`onset_times`, :attr:`onset_edges`,
    :attr:`restart_stops`, :attr:`f1_columns`) are derived once per
    schedule and are read-only; they are not fields, so equality, hashing
    and :meth:`to_dict` see only the three fields.
    """

    onsets: tuple[int, ...]
    duration: int
    horizon: int

    def __post_init__(self):
        if isinstance(self.onsets, (str, bytes, dict)) or not isinstance(self.onsets, Iterable):
            raise ValueError(f"onsets must be a list of integers, got {self.onsets!r}")
        object.__setattr__(self, "onsets", tuple(_count(g, "onsets", 1) for g in self.onsets))
        object.__setattr__(self, "duration", _count(self.duration, "duration", 1))
        object.__setattr__(self, "horizon", _count(self.horizon, "horizon", 1))
        prev = 0
        for g in self.onsets:
            if prev and g <= prev:
                raise ValueError(f"onsets must be strictly increasing, got {prev} then {g}")
            if prev and g - prev <= self.duration:
                raise ValueError(
                    f"onsets {prev} and {g} are {g - prev} apart; gaps must exceed "
                    f"the duration {self.duration}"
                )
            prev = g
        if self.onsets and self.onsets[-1] + self.duration - 1 > self.horizon:
            raise ValueError(
                f"last transient window ends at {self.onsets[-1] + self.duration - 1}, "
                f"beyond horizon {self.horizon}"
            )

    @property
    def s(self) -> int:
        """Number of change-points."""
        return len(self.onsets)

    @cached_property
    def onset_times(self) -> np.ndarray:
        """The onsets as a read-only int64 array."""
        return _read_only(np.asarray(self.onsets, dtype=np.int64))

    @cached_property
    def onset_edges(self) -> np.ndarray:
        """Read-only uint64 array interleaving each onset ``o`` with ``o + 1``.
        A run ending at time ``e`` ranks ``2 * missed + detected`` among them
        (``side="right"``): ``missed`` onsets come before ``e``, and
        ``detected`` is 1 when ``e`` is an onset."""
        edges = np.repeat(self.onset_times.astype(np.uint64), 2)
        edges[1::2] += 1
        return _read_only(edges)

    @cached_property
    def restart_stops(self) -> np.ndarray:
        """Read-only int64 array of the onsets, then -1: a restart run's stop
        by the index of its onset, or -1 (censored) by index -1."""
        return _read_only(np.append(self.onset_times, -1))

    @cached_property
    def f1_columns(self) -> np.ndarray:
        """Read-only mask over the 0-based time indices: True where F1
        generates the sample."""
        mask = np.zeros(self.horizon, dtype=bool)
        if self.onsets:  # a pure-F0 run's schedule skips the empty index
            mask[self.affected_times() - 1] = True
        return _read_only(mask)

    def __getstate__(self) -> dict:
        # an unpickled copy derives its own read-only arrays: pickle would
        # restore these writeable
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def affected_times(self) -> np.ndarray:
        """All 1-based times generated by F1, in increasing order."""
        starts = self.onset_times
        return (starts[:, None] + np.arange(self.duration, dtype=np.int64)).ravel()

    def to_dict(self) -> dict:
        return {"onsets": list(self.onsets), "duration": self.duration, "horizon": self.horizon}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ChangeSchedule":
        return cls(data["onsets"], data["duration"], data["horizon"])

    @classmethod
    def from_json(cls, text: str) -> "ChangeSchedule":
        return cls.from_dict(json.loads(text))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_schedule(
    horizon: int,
    s: int,
    duration: int,
    placement: Placement = "even_grid",
    rng: np.random.Generator | None = None,
    onsets: Iterable[int] | None = None,
) -> ChangeSchedule:
    """Build a valid schedule of s transient changes over the horizon.

    Placements:
      * ``even_grid`` (default): onsets at floor(k * last / s), k = 1..s,
        with ``last = horizon - duration + 1`` the last legal onset (the
        plain floor(k * horizon / s) grid at duration 1).  Where that grid
        would put two onsets only ``duration`` apart (possible from
        duration 3), the grid is laid on the shrunken range of
        ``uniform_random``'s bijection instead, so every feasible request
        gets a schedule.  Deterministic, used for reproducible experiments.
      * ``uniform_random``: exactly uniform over all valid schedules, via the
        bijection between gap-constrained onset tuples and plain s-subsets of
        a shrunken index range.  Requires ``rng``.
      * ``explicit``: validates the provided ``onsets``, which must number
        ``s``.

    Raises :class:`InfeasibleScheduleError` when ``s * (duration + 1) >
    horizon`` for the generated placements; explicit lists are checked only
    against the schedule invariants.
    """
    s, horizon = _count(s, "s"), _count(horizon, "horizon", 1)
    duration = _count(duration, "duration", 1)
    if placement not in get_args(Placement):
        raise ValueError(f"placement must be one of {get_args(Placement)}, got {placement!r}")
    if placement == "explicit":
        if onsets is None:
            raise ValueError("explicit placement requires onsets")
        schedule = ChangeSchedule(onsets=onsets, duration=duration, horizon=horizon)
        if schedule.s != s:
            raise ValueError(f"explicit placement needs s = {s} onsets, got {[*schedule.onsets]}")
        return schedule
    if onsets is not None:
        raise ValueError(f"onsets are only accepted with explicit placement, not {placement!r}")
    if s == 0:
        return ChangeSchedule(onsets=(), duration=duration, horizon=horizon)
    if s * (duration + 1) > horizon:
        raise InfeasibleScheduleError(
            f"cannot place {s} non-overlapping changes of duration {duration} "
            f"in a horizon of {horizon}: need s*(duration+1) <= horizon"
        )
    if placement == "even_grid":
        # grid over the legal onset range, so the last window still fits;
        # at duration 1 this is the plain floor(k * horizon / s) grid
        last_start = horizon - duration + 1
        chosen = tuple(k * last_start // s for k in range(1, s + 1))
        # the grid's steps are last_start // s or one more, so the windows
        # can touch only if that floor is at most the duration
        if last_start // s <= duration and any(
            b - a <= duration for a, b in zip(chosen, chosen[1:])
        ):
            # the same grid on uniform_random's shrunken range instead: its
            # steps are at least 1, plus the duration, and it ends at last_start
            m = horizon + 1 - s * duration
            chosen = tuple(k * m // s + (k - 1) * duration for k in range(1, s + 1))
        return ChangeSchedule(onsets=chosen, duration=duration, horizon=horizon)
    if rng is None:
        raise ValueError("uniform_random placement requires an rng")
    # Subtracting (i-1)*duration from the i-th onset maps valid schedules
    # one-to-one onto s-subsets of {1, ..., horizon + 1 - s*duration}.
    m = horizon + 1 - s * duration
    base = np.sort(rng.choice(m, size=s, replace=False)) + 1
    chosen = tuple(int(b + i * duration) for i, b in enumerate(base))
    return ChangeSchedule(onsets=chosen, duration=duration, horizon=horizon)


def generate_sequence(
    pair: DistributionPair, schedule: ChangeSchedule, rng: np.random.Generator
) -> np.ndarray:
    """Realize the stream: F1 inside transient windows, F0 elsewhere.

    Returns a float array of length ``schedule.horizon``; index i holds the
    sample at time t = i + 1.  Deterministic given the generator state.
    """
    x = np.asarray(pair.sample("nominal", rng, schedule.horizon), dtype=float)
    affected = schedule.affected_times()
    if affected.size:
        x[affected - 1] = pair.sample("alternative", rng, affected.size)
    return x


def write_sequence_csv(path, x: np.ndarray) -> None:
    """Dump a sequence as single-column decimal text, 17 significant digits
    (each value as ``f"{v:.17g}"`` renders it), one value per line."""
    values = np.asarray(x, dtype=float).tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write(("%.17g\n" * len(values)) % tuple(values))


def read_sequence_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        return np.array([float(line) for line in f if line.strip()], dtype=float)
