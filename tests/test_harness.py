import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from transientscan import (
    ExperimentConfig,
    GaussianMeanShift,
    load_preset,
    preset_names,
    run_eta_sweep,
    run_experiment,
    run_mu_sweep,
    write_report,
)
from transientscan.harness import render_report_csv
from transientscan.metrics import CSV_COLUMNS

TINY = {
    "schema_version": 1,
    "pair": {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0},
    "horizon": 400,
    "s": 4,
    "T": 1,
    "placement": "even_grid",
    "eta_grid": [2, 5],
    "mu1_grid": None,
    "n_trials": 200,
    "mode": "restart",
    "master_seed": 99,
}


def tiny_config(**overrides):
    data = dict(TINY)
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# config validation


def test_config_round_trip():
    cfg = tiny_config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert isinstance(cfg.pair, GaussianMeanShift)


def test_config_requires_schema_version():
    data = {k: v for k, v in TINY.items() if k != "schema_version"}
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**TINY, "schema_version": 2})


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict({**TINY, "extra_knob": 3})
    data = {k: v for k, v in TINY.items() if k != "horizon"}
    with pytest.raises(ValueError, match="horizon"):
        ExperimentConfig.from_dict(data)


def test_config_value_validation():
    with pytest.raises(ValueError):
        tiny_config(mode="resume")
    with pytest.raises(ValueError):
        tiny_config(eta_grid=[])
    with pytest.raises(ValueError):
        tiny_config(eta_grid=[0.5, 2])
    with pytest.raises(ValueError):
        tiny_config(s=300)  # s*(T+1) > horizon
    with pytest.raises(ValueError):
        tiny_config(pair={"kind": "gaussian_mean_shift", "mean0": 1.0, "mean1": 1.0, "sigma": 1.0})


def test_mu_sweep_rejects_equal_means():
    cfg = tiny_config(mu1_grid=[0.5, 0.0])  # 0.0 collides with mean0
    with pytest.raises(ValueError):
        run_mu_sweep(cfg)


# ---------------------------------------------------------------------------
# sweeps


def test_eta_sweep_rows():
    rows = run_eta_sweep(tiny_config())
    assert [row.eta for row in rows] == [2.0, 5.0]
    for row in rows:
        assert row.detect_any >= row.detect_first
        assert abs(row.arl - row.eta) <= 5 * row.arl_se
        assert row.seed == 99


def test_mu_sweep_grid_shape():
    cfg = tiny_config(mu1_grid=[0.8, 1.6])
    rows = run_mu_sweep(cfg)
    assert [(row.eta, row.mu1) for row in rows] == [
        (2.0, 0.8),
        (5.0, 0.8),
        (2.0, 1.6),
        (5.0, 1.6),
    ]


def test_mu_sweep_requires_grid():
    with pytest.raises(ValueError):
        run_mu_sweep(tiny_config())


def test_eta_one_boundary_matches_always_alarm_analytics():
    rows = run_eta_sweep(tiny_config(eta_grid=[1], n_trials=150))
    (row,) = rows
    # alarming on every sample detects the first onset surely, misses
    # nothing, and has a run length of exactly 1
    assert row.detect_first == 1.0 and row.detect_any == 1.0
    assert row.avg_missed == 0.0
    assert row.arl == 1.0 and row.arl_se == 0.0


# ---------------------------------------------------------------------------
# artifacts and determinism


def test_report_csv_is_deterministic_and_embeds_provenance():
    cfg = tiny_config()
    a = render_report_csv(run_eta_sweep(cfg), cfg)
    b = render_report_csv(run_eta_sweep(cfg), cfg)
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0].startswith("# config=")
    assert json.loads(lines[0][len("# config=") :]) == cfg.to_dict()
    assert lines[1] == "# master_seed=99"
    assert lines[3] == CSV_COLUMNS
    assert len(lines) == 4 + len(cfg.eta_grid)


def test_readme_schema_block_lists_the_csv_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Report CSV schema", 1)[1]
    block = section.split("```", 2)[1]
    assert "".join(block.split()) == CSV_COLUMNS


def test_worker_count_leaves_csv_bytes_unchanged():
    cfg = tiny_config(n_trials=120)
    one = render_report_csv(run_eta_sweep(cfg, n_workers=1), cfg)
    two = render_report_csv(run_eta_sweep(cfg, n_workers=2), cfg)
    assert one == two


ACCEPTANCE_CSV_SHA256 = "eec9a60c93af65fe75fc5c32b9224d938c9f61929d83c6ecdc5cb8483b34f1fb"


def test_acceptance_preset_report_bytes_are_pinned():
    cfg = load_preset("acceptance")
    digest = hashlib.sha256(render_report_csv(run_eta_sweep(cfg), cfg).encode("utf-8")).hexdigest()
    assert digest == ACCEPTANCE_CSV_SHA256, (
        "the acceptance preset's report CSV changed: the Monte Carlo streams or the "
        f"report format differ (numpy {np.__version__}). If the change is intended, "
        "update ACCEPTANCE_CSV_SHA256 and record the new hash in CHANGES.md."
    )


def test_write_report_artifacts(tmp_path):
    cfg = tiny_config()
    rows = run_eta_sweep(cfg)
    csv_path, meta_path = write_report(rows, cfg, tmp_path / "rep.csv")
    assert csv_path.exists() and meta_path.exists()
    meta = json.loads(meta_path.read_text())
    assert meta["config"] == cfg.to_dict()
    assert meta["rows"] == len(rows)
    assert "generated_at" in meta
    import hashlib

    assert meta["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    # the CSV itself carries no timestamp: reruns are byte-identical
    again, _ = write_report(rows, cfg, tmp_path / "rep2.csv")
    assert again.read_bytes() == csv_path.read_bytes()


def test_run_experiment_auto_sweep(tmp_path):
    csv_path, meta_path = run_experiment(tiny_config(), tmp_path, name="tiny")
    assert csv_path.name == "tiny.csv" and meta_path.name == "tiny.meta.json"
    text = csv_path.read_text()
    assert text.count("\n") == 4 + 2
    cfg_mu = tiny_config(eta_grid=[3], mu1_grid=[0.7, 1.2], n_trials=100)
    csv_mu, _ = run_experiment(cfg_mu, tmp_path, name="mu")
    data_lines = [l for l in csv_mu.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1 + 2  # header plus one row per mu


# ---------------------------------------------------------------------------
# presets


def test_presets_exist_and_load():
    names = preset_names()
    for expected in ("detection_curves", "mean_sweep", "acceptance", "full_scale"):
        assert expected in names
    curves = load_preset("detection_curves")
    assert curves.horizon == 10_000 and curves.s == 100 and curves.T == 1
    assert curves.eta_grid == (5, 10, 20, 50, 100, 200)
    sweep = load_preset("mean_sweep")
    assert sweep.mu1_grid == (0.5, 1.0, 2.0, 3.0)
    full = load_preset("full_scale")
    assert full.horizon == 100_000 and full.s == 1000
    with pytest.raises(ValueError):
        load_preset("does_not_exist")
