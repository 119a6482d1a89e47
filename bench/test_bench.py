"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

import json

import numpy as np
import pytest

import run

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from transientscan import cli, detector, metrics  # noqa: E402


def miscalibrated(pair, eta, **kwargs):
    """A detector that claims ``eta`` but alarms about three times as often."""
    good = detector.calibrate(pair, eta)
    return detector.ShewhartDetector(pair=pair, alpha=good.alpha / 3.0, eta=eta)


# -- negative controls --------------------------------------------------------


def test_miscalibrated_rule_fails_bound_battery():
    def rules(pair):
        return [("miscalibrated@10", miscalibrated(pair, 10.0), 200)]

    w = workloads.BoundBattery(seed=1, make_rules=rules)
    w.setup()
    result = w.run_pass()
    assert result.failed > 0
    assert any("per-onset detection" in msg for msg in result.problems)


def test_miscalibrated_sweep_fails_eta_sweep(monkeypatch):
    monkeypatch.setattr(metrics, "calibrate", miscalibrated)
    w = workloads.EtaSweep(seed=1)
    w.setup()
    result = w.run_pass()
    assert result.failed > 0
    assert any("arl" in msg for msg in result.problems)


def test_miscalibrated_detect_fails_detect_stream(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "calibrate", miscalibrated)
    w = workloads.DetectStream(seed=1, work_dir=tmp_path, n_lines=5_000)
    w.setup()
    result = w.run_pass()
    assert result.failed > 0
    assert result.attempted == 5_000 + 3  # the call, exit code, line count, verdicts


# -- checks hold on correct code ------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_checks_pass_on_two_seeds(seed, tmp_path):
    for w in (
        workloads.BoundBattery(seed),
        workloads.EtaSweep(seed),
        workloads.DetectStream(seed, tmp_path, n_lines=5_000),
    ):
        w.setup()
        result = w.run_pass()
        assert (result.failed, result.problems) == (0, []), w.name
        assert result.attempted > 0 and result.units > 0


def test_inputs_follow_the_seed(tmp_path):
    texts = []
    for seed in (1, 1, 2):
        w = workloads.DetectStream(seed, tmp_path / str(len(texts)), n_lines=1_000)
        w.setup()
        texts.append(w.path.read_text())
    assert texts[0] == texts[1] != texts[2]
    assert workloads.derive_seeds(1, 2, 1) != workloads.derive_seeds(2, 2, 1)


def test_checks_are_bonferroni_corrected():
    assert workloads.check_multiplier(1) > 3.0
    assert workloads.check_multiplier(24) > workloads.check_multiplier(12)
    assert workloads.check_multiplier(24) == pytest.approx(4.6, abs=0.05)


def test_geometric_mean_pvalue_is_exact():
    # one run of length 1 at eta = 2: P(tau = 1) = 1/2, so both tails hold 1/2
    assert workloads.geometric_mean_pvalue(1.0, 1, 2.0) == pytest.approx(1.0)
    # one run of length 5 at eta = 2: upper tail P(tau >= 5) = 1/16
    assert workloads.geometric_mean_pvalue(5.0, 1, 2.0) == pytest.approx(2 / 16)
    assert workloads.geometric_mean_pvalue(100.0, 100, 100.0) > 0.5
    assert workloads.geometric_mean_pvalue(40.0, 100, 100.0) < 1e-6


# -- tracing arithmetic ------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [30.0, 20.0, 10.0, 40.0]


def test_nearest_ancestor_skips_untargeted_spans():
    parent = np.array([-1, 0, 1, 2, 0])
    is_target = np.array([True, False, True, False, False])
    assert tracing.nearest_ancestor(parent, is_target).tolist() == [-1, 0, 0, 2, 0]


def test_wrapped_calls_record_nested_spans():
    tr = tracing.Tracer()

    def inner(x):
        return np.zeros(x)

    inner_t = tr.wrap(inner, "inner", count=tracing._size)
    outer_t = tr.wrap(lambda: [inner_t(3), inner_t(5)], "outer")
    tr.current_pass = 7
    outer_t()
    spans = tr.spans()
    assert [tr.names[i] for i in spans["name_id"]] == ["outer", "inner", "inner"]
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert spans["count"].tolist() == [0, 3, 5]
    assert spans["pass_id"].tolist() == [7, 7, 7]
    assert (spans["end"] >= spans["start"]).all()
    assert spans["start"][1] >= spans["start"][0] and spans["end"][2] <= spans["end"][0]


def test_traced_sweep_reports_layers_and_unwraps():
    original = metrics.simulate_run_lengths
    tr = tracing.Tracer()
    tr.install()
    try:
        w = workloads.EtaSweep(seed=1, n_trials=20)
        tr.current_pass = -1
        w.setup()
        tr.current_pass = 0
        result = w.run_pass()
    finally:
        tr.remove()
    assert metrics.simulate_run_lengths is original
    assert result.failed == 0
    layers = tracing.layer_metrics(tr)
    assert layers["metrics.trials"] == result.units == 2 * 20 * 6
    assert layers["detector.calibrate_calls"] == 6
    assert 0.0 < layers["metrics.draw_efficiency"] < 1.0
    assert layers["harness.sweep_s"] > layers["metrics.self_s"] > 0.0
    assert layers["metrics.rng_constructions"] >= 2 * 20 * 6


# -- the command's output matches BENCHMARK.json ----------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_exactly_the_declared_metrics(trace, section, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    code = run.main(["--workload", "eta_sweep", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
