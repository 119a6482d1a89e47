"""Config-driven experiment runner with seeded, byte-reproducible artifacts.

An experiment is one JSON document (schema below) describing the
distribution pair, the change schedule, a grid of run-length budgets, an
optional grid of post-change means, the trial count, the monitoring mode,
and a master seed.  Sweeps emit the shared report schema
(:data:`transientscan.metrics.CSV_COLUMNS`), one row per grid point.

The CSV is fully deterministic: it embeds the resolved config, the seed,
and the package version as comment lines, and contains nothing
time-dependent.  Wall-clock provenance goes to a sidecar metadata JSON.
``n_workers`` splits a sweep's rows over processes, each row whole in one
process, so reruns with the same config produce byte-identical CSVs for
any worker count.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import _PRESET_DIR, __version__, preset_names
from .distributions import DistributionPair, pair_from_config
from .metrics import (
    CSV_COLUMNS,
    STREAM_SCHEDULE,
    CurveRow,
    _seed_sequence,
    detect_first_any_curves,
    trial_rng,
)
from .sequence_model import make_schedule

SCHEMA_VERSION = 1

_MODES = ("single_shot", "restart")
_PLACEMENTS = ("even_grid", "uniform_random", "explicit")


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
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        if not self.eta_grid:
            raise ValueError("eta_grid must be nonempty")
        if any(eta < 1.0 for eta in self.eta_grid):
            raise ValueError("every eta must be >= 1")
        if self.mu1_grid is not None and not self.mu1_grid:
            raise ValueError("mu1_grid, when given, must be nonempty")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
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
        kwargs["eta_grid"] = tuple(float(e) for e in data["eta_grid"])
        if data.get("mu1_grid") is not None:
            kwargs["mu1_grid"] = tuple(float(m) for m in data["mu1_grid"])
        if data.get("onsets") is not None:
            kwargs["onsets"] = tuple(int(g) for g in data["onsets"])
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
    if config.mu1_grid is None:
        keyed = [((), config.pair)]
    else:
        keyed = [
            ((100 + mi,), dataclasses.replace(config.pair, mean1=mu1))
            for mi, mu1 in enumerate(config.mu1_grid)
        ]
    cells = [
        (pair, _seed_sequence(config.master_seed, *key, gi), eta)
        for key, pair in keyed
        for gi, eta in enumerate(config.eta_grid)
    ]
    return detect_first_any_curves(
        cells, config.build_schedule(), config.n_trials, config.mode, n_workers=n_workers
    )


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


def write_report(
    rows: list[CurveRow],
    config: ExperimentConfig,
    csv_path,
    *,
    n_workers: int = 1,
) -> tuple[Path, Path]:
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
        "n_workers": n_workers,
        "package_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return csv_path, meta_path


def run_experiment(
    config: ExperimentConfig,
    out_dir,
    *,
    n_workers: int = 1,
    name: str = "report",
) -> tuple[Path, Path]:
    """Run the configured sweep and write artifacts under ``out_dir``: one
    row per (``mu1_grid`` mean, ``eta_grid`` value) when that is set, else
    one per ``eta_grid`` value."""
    rows = run_eta_sweep(config, n_workers=n_workers)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_report(rows, config, out_dir / f"{name}.csv", n_workers=n_workers)


def load_preset(name: str) -> ExperimentConfig:
    try:
        text = (Path(_PRESET_DIR) / f"{name}.json").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return ExperimentConfig.from_dict(json.loads(text))
