import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from transientscan import (
    ExperimentConfig,
    GaussianMeanShift,
    calibrate,
    load_preset,
    preset_names,
    run_eta_sweep,
    run_experiment,
    write_report,
)
from transientscan import harness, metrics
from transientscan.harness import render_report_csv
from transientscan.metrics import CSV_COLUMNS, STREAM_SCHEDULE, CurveRow, trial_rng
from transientscan.sequence_model import make_schedule

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
    # JSON integers have no size limit; one too large for a float is named
    pair = json.loads(f'{{"kind": "gaussian_mean_shift", "mean0": 0, "mean1": 1{"0" * 400}}}')
    with pytest.raises(ValueError, match="mean1 must be finite"):
        tiny_config(pair=pair)


@pytest.mark.parametrize(
    "key, grid",
    [
        ("eta_grid", ["10", 50]),
        ("eta_grid", [True, 50]),
        ("eta_grid", "10"),  # a string iterates as its characters
        ("mu1_grid", ["2", 1.5]),
        ("mu1_grid", [False, 1.5]),
        ("mu1_grid", [None, 1.5]),
        pytest.param("eta_grid", 10, id="eta_grid-bare-10"),  # a number is not a grid
        pytest.param("mu1_grid", 1.5, id="mu1_grid-bare-1.5"),
        pytest.param("eta_grid", [10**400], id="eta_grid-10**400"),
        pytest.param("mu1_grid", [1.5, -(10**400)], id="mu1_grid--10**400"),
    ],
)
def test_config_grids_reject_entries_that_are_not_numbers(key, grid):
    # float() takes "10" and true, though n_trials refuses "300"; iterating
    # a bare number raises TypeError, and float() of an int past the floats
    # OverflowError
    with pytest.raises(ValueError, match=f"{key} must hold numbers"):
        ExperimentConfig.from_dict({**TINY, "eta_grid": [2, 5], key: grid})


@pytest.mark.parametrize(
    "pair, message",
    [
        ({"foo": 2}, "unknown gaussian_mean_shift config key 'foo'"),
        ({"mean0": "0"}, "mean0 must be a number, got '0'"),
        ({"sigma": True}, "sigma must be a number, got True"),
        ({"mean1": None}, "mean1 must be a number, got None"),
        ({"kind": ["gaussian_mean_shift"]}, "unknown distribution kind"),
    ],
)
def test_config_pair_rejects_keys_and_values_it_cannot_hold(pair, message):
    # each would raise TypeError in the pair's constructor
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(pair={**TINY["pair"], **pair})


def test_a_horizon_past_int64_is_named_before_anything_runs():
    # the stops are int64, and numpy raises OverflowError past them
    cfg = tiny_config(horizon=10**400)
    with pytest.raises(ValueError, match=r"horizon must be a positive integer below 2\*\*63"):
        run_eta_sweep(cfg)


def test_a_trial_count_past_int64_is_refused_by_the_config():
    # the config is refused as it is built, before any chunk is made;
    # the largest int64 count is a config (never run here)
    assert tiny_config(n_trials=2**63 - 1).n_trials == 2**63 - 1
    for n in (2**63, 10**400):
        with pytest.raises(ValueError, match=r"^n_trials must be below 2\*\*63"):
            tiny_config(n_trials=n)


@pytest.mark.parametrize("eta", ["Infinity", "-Infinity", "NaN"])
def test_config_rejects_a_non_finite_eta_from_json(eta):
    # JSON allows these; before, the run failed later with an unrelated error
    data = {**TINY, "eta_grid": json.loads(f"[5, {eta}]")}
    with pytest.raises(ValueError, match="every eta must be >= 1 and finite"):
        ExperimentConfig.from_dict(data)


def test_mu_sweep_rejects_equal_means(monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "evaluate_criteria", lambda *a, **k: calls.append(a))
    cfg = tiny_config(mu1_grid=[0.5, 0.0])  # 0.0 collides with mean0
    with pytest.raises(ValueError):
        run_eta_sweep(cfg)
    # every cell is built before any row runs, so the 0.5 rows never start
    assert calls == []


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
    rows = run_eta_sweep(cfg)
    assert [(row.eta, row.mu1) for row in rows] == [
        (2.0, 0.8),
        (5.0, 0.8),
        (2.0, 1.6),
        (5.0, 1.6),
    ]


def test_eta_one_boundary_matches_always_alarm_analytics():
    rows = run_eta_sweep(tiny_config(eta_grid=[1], n_trials=150))
    (row,) = rows
    # alarming on every sample detects the first onset surely, misses
    # nothing, and has a run length of exactly 1
    assert row.detect_first == 1.0 and row.detect_any == 1.0
    assert row.avg_missed == 0.0
    assert row.arl == 1.0 and row.arl_se == 0.0


#: family level of the single-shot sweep's closed-form checks, fixed before running
SINGLE_SHOT_LEVEL = 1e-3


def single_shot_closed_forms(pair, eta, schedule):
    """``(detect_first, detect_any)`` of single-shot runs of the detector
    calibrated to ``eta``: survival products over the time steps.  An F0
    sample survives at ``1 - 1/eta``, an onset's sample hits with ``p1``,
    and each of the ``T - 1`` window samples after it survives at ``1 - p1``."""
    p1 = pair.lr_tail_prob_f1(calibrate(pair, eta).alpha)
    q = np.where(schedule.f1_columns, p1, 1.0 / eta)
    reach = np.concatenate(([1.0], np.cumprod(1.0 - q)[:-1]))  # P(no alarm before t)
    hits = reach[np.asarray(schedule.onsets) - 1] * p1
    return float(hits[0]), float(hits.sum())


def test_single_shot_sweep_meets_the_survival_products():
    # single-shot runs on transient windows take the block layout; each
    # cell takes the exact binomial test, Bonferroni over the checks
    from scipy import stats as scipy_stats

    cfg = tiny_config(mode="single_shot", horizon=100, s=20, T=3, eta_grid=[5, 20], n_trials=2000)
    schedule = cfg.build_schedule()
    assert schedule == make_schedule(100, 20, 3)
    rows = run_eta_sweep(cfg)
    checks = 2 * len(rows)
    for row in rows:
        first, any_ = single_shot_closed_forms(cfg.pair, row.eta, schedule)
        for value, exact in ((row.detect_first, first), (row.detect_any, any_)):
            k = round(value * row.n_trials)
            pvalue = scipy_stats.binomtest(k, row.n_trials, exact).pvalue
            assert pvalue >= SINGLE_SHOT_LEVEL / checks, (row.eta, value, exact, pvalue)


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


def csv_cell(v) -> str:
    """The per-cell rule a CSV line keeps: str as is, integers exact, the rest .17g."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.17g}"


def test_csv_line_formats_each_field_in_column_order():
    # each field's declared type picks the format; rows holding other types
    # (numpy scalars, bool, a float32, NaN, the infinities, -0.0) still print
    # as the per-cell rule does
    rows = [
        CurveRow(
            5, np.float64(1.5), np.int64(100), 1, "restart", 0.1, 0.0, math.nan, math.inf,
            2.0**-1074, 1e17, -0.0, 1 / 3, 7, np.float32(0.1), True, 1e300, 2000, 2**70,
        ),
        CurveRow(
            np.float64(-math.inf), -0.0, 0, np.int64(2**62), "single_shot", np.float64(math.nan),
            np.float64(-0.0), -math.inf, np.float64(1e-300), -1.5, np.float64(2.0**53 + 2),
            math.nan, -math.inf, np.float64(math.inf), -0.0, np.float64(5e-324), 0.0,
            np.int64(1), np.int64(-(2**63)),
        ),
    ]
    for row in rows:
        values = [getattr(row, f.name) for f in dataclasses.fields(row)]
        assert row.to_csv_line() == ",".join(csv_cell(v) for v in values)
    head = ["5", "1.5", "100", "1", "restart", "0.10000000000000001", "0", "nan", "inf"]
    assert rows[0].to_csv_line().split(",")[:9] == head
    head = ["-inf", "-0", "0", str(2**62), "single_shot", "nan", "-0"]
    assert rows[1].to_csv_line().split(",")[:7] == head


def test_config_dict_is_the_field_by_field_dict():
    for cfg in (
        tiny_config(),
        tiny_config(mu1_grid=[0.5, 2.0], placement="explicit", onsets=[40, 90, 200, 399]),
    ):
        expected = dataclasses.asdict(cfg)
        expected.update(
            pair=cfg.pair.to_config(),
            eta_grid=list(cfg.eta_grid),
            mu1_grid=None if cfg.mu1_grid is None else list(cfg.mu1_grid),
            onsets=None if cfg.onsets is None else list(cfg.onsets),
        )
        assert cfg.to_dict() == expected
        assert list(cfg.to_dict()) == list(expected)  # the metadata keeps the field order
        assert cfg.canonical_json() == json.dumps(expected, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("placement", ["even_grid", "uniform_random", "explicit"])
def test_build_schedule_builds_a_generator_only_to_draw(monkeypatch, placement):
    built = []

    def counting_trial_rng(*args):
        built.append(args)
        return trial_rng(*args)

    monkeypatch.setattr(harness, "trial_rng", counting_trial_rng)
    onsets = [50, 120, 300, 390] if placement == "explicit" else None
    cfg = tiny_config(placement=placement, onsets=onsets)
    rng = trial_rng(cfg.master_seed, STREAM_SCHEDULE)
    assert cfg.build_schedule() == make_schedule(
        cfg.horizon, cfg.s, cfg.T, placement, rng=rng, onsets=onsets
    )
    assert built == ([(cfg.master_seed, STREAM_SCHEDULE)] if placement == "uniform_random" else [])


def test_readme_schema_block_lists_the_csv_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Report CSV schema", 1)[1]
    block = section.split("```", 2)[1]
    assert "".join(block.split()) == CSV_COLUMNS


def test_a_sweep_takes_no_worker_count_but_one(monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "evaluate_criteria", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="n_workers must be 1, got 2"):
        run_eta_sweep(tiny_config(), n_workers=2)
    assert calls == []


ACCEPTANCE_CSV_SHA256 = "8a756ad7ab36a99f00b5e7fab3ed88338d3292b4fd66604d11fde0f2f14e3563"


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
    assert set(meta) == {
        "config", "csv_file", "csv_sha256", "rows", "package_version", "generated_at"
    }
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
    for name in names:  # each passes the config checks, the onsets-placement one included
        load_preset(name)
    curves = load_preset("detection_curves")
    assert curves.horizon == 10_000 and curves.s == 100 and curves.T == 1
    assert curves.eta_grid == (5, 10, 20, 50, 100, 200)
    sweep = load_preset("mean_sweep")
    assert sweep.mu1_grid == (0.5, 1.0, 2.0, 3.0)
    full = load_preset("full_scale")
    assert full.horizon == 100_000 and full.s == 1000
    with pytest.raises(ValueError):
        load_preset("does_not_exist")
