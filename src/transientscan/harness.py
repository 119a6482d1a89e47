"""Config-driven experiment runner with seeded, byte-reproducible artifacts.

An experiment is one JSON document (schema below) describing the
distribution pair, the change schedule, a grid of run-length budgets, an
optional grid of post-change means, the trial count, the monitoring mode,
and a master seed.  Sweeps emit the shared report schema
(:data:`transientscan.metrics.CSV_COLUMNS`), one row per grid point.

The CSV is fully deterministic: it embeds the resolved config, the seed,
and the package version as comment lines, and contains nothing
time-dependent.  Wall-clock provenance goes to a sidecar metadata JSON.
A sweep runs its rows in order in one process, so reruns with the same
config produce byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import get_args

import numpy as np

from . import _PRESET_DIR, __version__, preset_names
from .distributions import DistributionPair, pair_from_config
from .metrics import (
    CSV_COLUMNS,
    STREAM_SCHEDULE,
    CurveRow,
    Mode,
    detect_first_any_curves,
    trial_rng,
)
from .sequence_model import Placement, make_schedule

SCHEMA_VERSION = 1

_MODES = get_args(Mode)
_PLACEMENTS = get_args(Placement)
#: keys whose values must be integers (each onset must be one too)
_INT_KEYS = ("horizon", "s", "T", "n_trials", "master_seed")


def _is_int(value) -> bool:
    # JSON's 100.0 and "3" are not counts, and neither is true
    return isinstance(value, int) and not isinstance(value, bool)


def _grid(data: dict, key: str) -> tuple[float, ...]:
    # a list of ints and floats: float() takes JSON's "10" and true, which
    # are neither budgets nor means, and overflows on an int past the floats
    grid = data[key]
    if isinstance(grid, (list, tuple)) and all(_is_int(v) or isinstance(v, float) for v in grid):
        with suppress(OverflowError):
            return tuple(map(float, grid))
    raise ValueError(f"{key} must hold numbers in the float range, got {grid!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description; field names match the JSON keys."""

    pair: DistributionPair
    horizon: int
    s: int
    T: int
    eta_grid: tuple[float, ...]
    n_trials: int
    master_seed: int
    placement: str = "even_grid"
    onsets: tuple[int, ...] | None = None
    mu1_grid: tuple[float, ...] | None = None
    mode: str = "restart"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {self.schema_version}; expected {SCHEMA_VERSION}"
            )
        for key in _INT_KEYS:
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.onsets is not None and not all(map(_is_int, self.onsets)):
            raise ValueError(f"onsets must be integers, got {list(self.onsets)!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        # explicit onsets are the schedule, and the rows report s: both must agree
        if (self.placement == "explicit") != (self.onsets is not None):
            raise ValueError(f"onsets go with explicit placement only, got {self.placement!r}")
        if self.onsets is not None and len(self.onsets) != self.s:
            raise ValueError(f"onsets must list s = {self.s} onsets, got {list(self.onsets)}")
        if not self.eta_grid:
            raise ValueError("eta_grid must be nonempty")
        # JSON's Infinity and NaN parse as floats; eta must be a finite budget
        bad = [eta for eta in self.eta_grid if not 1.0 <= eta < math.inf]
        if bad:
            raise ValueError(f"every eta must be >= 1 and finite, got {bad}")
        if self.mu1_grid is not None and not self.mu1_grid:
            raise ValueError("mu1_grid, when given, must be nonempty")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.n_trials >= 2**63:  # stops and counts are int64, as horizon's times are
            raise ValueError(f"n_trials must be below 2**63, got {self.n_trials}")
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.s and self.s * (self.T + 1) > self.horizon:
            raise ValueError(
                f"infeasible schedule: s*(T+1) = {self.s * (self.T + 1)} exceeds "
                f"horizon {self.horizon}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "schema_version" not in data:
            raise ValueError("config is missing the required schema_version field")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"pair", "horizon", "s", "T", "eta_grid", "n_trials", "master_seed"} - set(data)
        if missing:
            raise ValueError(f"config is missing required keys: {sorted(missing)}")
        kwargs = dict(data)
        kwargs["pair"] = pair_from_config(data["pair"])
        kwargs["eta_grid"] = _grid(data, "eta_grid")
        if data.get("mu1_grid") is not None:
            kwargs["mu1_grid"] = _grid(data, "mu1_grid")
        if data.get("onsets") is not None:
            if not isinstance(data["onsets"], (list, tuple)):
                raise ValueError(f"onsets must be a list of integers, got {data['onsets']!r}")
            kwargs["onsets"] = tuple(data["onsets"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        # field by field, not dataclasses.asdict: that deep-copies the pair,
        # which to_config replaces anyway
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["pair"] = self.pair.to_config()
        out["eta_grid"] = list(self.eta_grid)
        out["mu1_grid"] = list(self.mu1_grid) if self.mu1_grid is not None else None
        out["onsets"] = list(self.onsets) if self.onsets is not None else None
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def build_schedule(self):
        # only uniform_random placement draws: the other placements get no generator
        rng = (
            trial_rng(self.master_seed, STREAM_SCHEDULE)
            if self.placement == "uniform_random"
            else None
        )
        return make_schedule(
            self.horizon, self.s, self.T, self.placement, rng=rng, onsets=self.onsets
        )


def run_eta_sweep(config: ExperimentConfig, *, n_workers: int = 1) -> list[CurveRow]:
    """Report rows over the run-length grid: at the configured pair, or with
    ``mu1_grid`` set, one row per (mean, eta), means outermost, each mean
    re-calibrating.  Every cell is built before any row runs."""
    # bench/workloads.py passes n_workers=1; ROADMAP item 1's benchmark change drops it
    if n_workers != 1:
        raise ValueError(f"a sweep runs in one process: n_workers must be 1, got {n_workers!r}")
    if config.mu1_grid is None:
        keyed = [((), config.pair)]
    else:
        keyed = [
            ((100 + mi,), dataclasses.replace(config.pair, mean1=mu1))
            for mi, mu1 in enumerate(config.mu1_grid)
        ]
    cells = [
        (pair, np.random.SeedSequence(config.master_seed, spawn_key=(*key, gi)), eta)
        for key, pair in keyed
        for gi, eta in enumerate(config.eta_grid)
    ]
    return detect_first_any_curves(cells, config.build_schedule(), config.n_trials, config.mode)


def render_report_csv(rows: list[CurveRow], config: ExperimentConfig) -> str:
    """Deterministic CSV text: provenance comments, header, one line per row."""
    lines = [
        f"# config={config.canonical_json()}",
        f"# master_seed={config.master_seed}",
        f"# package_version={__version__}",
        CSV_COLUMNS,
    ]
    lines.extend(row.to_csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def write_report(rows: list[CurveRow], config: ExperimentConfig, csv_path) -> tuple[Path, Path]:
    """Write the CSV artifact and its sidecar metadata JSON.

    Only the sidecar carries a timestamp; the CSV stays byte-reproducible.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".meta.json")
    text = render_report_csv(rows, config)
    csv_path.write_text(text, encoding="utf-8")
    meta = {
        "config": config.to_dict(),
        "csv_file": csv_path.name,
        "csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "rows": len(rows),
        "package_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return csv_path, meta_path


def run_experiment(config: ExperimentConfig, out_dir, *, name: str = "report") -> tuple[Path, Path]:
    """Run the configured sweep and write artifacts under ``out_dir``: one
    row per (``mu1_grid`` mean, ``eta_grid`` value) when that is set, else
    one per ``eta_grid`` value."""
    rows = run_eta_sweep(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_report(rows, config, out_dir / f"{name}.csv")


def load_preset(name: str) -> ExperimentConfig:
    try:
        text = (Path(_PRESET_DIR) / f"{name}.json").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return ExperimentConfig.from_dict(json.loads(text))
