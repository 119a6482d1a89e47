import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transientscan
from transientscan import (
    ChangeSchedule,
    GaussianMeanShift,
    ShewhartDetector,
    calibrate,
)
from transientscan.cli import main
from transientscan.sequence_model import read_sequence_csv

from oracles import monitor_sequence, run_stream

PAIR = GaussianMeanShift(mean0=0.0, mean1=1.0, sigma=1.0)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_output(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--eta", "100", "--mean0", "0", "--mean1", "1", "--sigma", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(6.211, abs=1e-3)
    assert payload["tail_prob"] == pytest.approx(0.01, abs=1e-9)
    assert payload["eta"] == 100


def test_calibrate_always_alarm(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "--eta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.0
    assert payload["tail_prob"] == 1.0


def test_calibrate_names_a_threshold_that_underflows(capsys):
    code, out, err = run_cli(capsys, "calibrate", "--eta", "2", "--mean1", "40")
    assert (code, out) == (2, "")
    assert "underflows below the smallest positive float" in err


def test_calibrate_rejects_eta_below_one(capsys):
    code, _, err = run_cli(capsys, "calibrate", "--eta", "0.5")
    assert code == 1
    assert "eta must be >= 1" in err


@pytest.mark.parametrize("command", ["calibrate", "detect"])
def test_sigma_whose_square_underflows_is_a_runtime_error(capsys, command):
    # before, this pair passed construction and calibrate divided by 0.0
    pair = ("--mean1", "1e-170", "--sigma", "1e-170")
    code, out, err = run_cli(capsys, command, "--eta", "100", *pair)
    assert (code, out) == (2, "")
    assert f"transientscan {command}: sigma**2" in err


@pytest.mark.parametrize("flag", ["--mean0", "--mean1"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_mean_is_a_runtime_error_naming_it(capsys, flag, value):
    # before, --mean0 inf failed on a NaN threshold that named no input
    code, out, err = run_cli(capsys, "calibrate", "--eta", "10", flag, value)
    assert (code, out) == (2, "")
    assert f"transientscan calibrate: {flag[2:]} must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "--eta", "nan"),
        ("calibrate", "--eta", "inf"),
        ("detect", "--eta", "nan"),
        ("detect", "--eta", "inf"),
        ("detect", "--alpha", "nan"),
    ],
    ids=" ".join,
)
def test_non_finite_thresholds_are_usage_errors(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("9.9\n"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "must be" in err


def test_unknown_flag_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "calibrate", "--eta", "10", "--frobnicate")
    assert code == 1
    # a sweep runs in one process: there is no worker count to set
    code, out, err = run_cli(
        capsys, "experiment", "--preset", "acceptance", "--workers", "1",
        "--out-dir", str(tmp_path / "out"),
    )
    assert (code, out) == (1, "") and "unrecognized arguments: --workers 1" in err
    assert not (tmp_path / "out").exists()


def test_detect_has_no_seed_flag(capsys, monkeypatch):
    # the Gaussian ratio is continuous: no boundary atom, nothing to randomize
    monkeypatch.setattr(sys, "stdin", io.StringIO("9.9\n"))
    code, out, err = run_cli(capsys, "detect", "--eta", "10", "--seed", "1")
    assert code == 1
    assert out == "" and "--seed" in err


# ---------------------------------------------------------------------------
# detect


def test_detect_alarm_exit_code(tmp_path, capsys):
    src = tmp_path / "obs.txt"
    src.write_text("0.5\n0.5\n9.9\n")
    code, out, _ = run_cli(capsys, "detect", "--eta", "100", "--input", str(src))
    assert code == 10
    lines = out.strip().split("\n")
    assert lines[0] == "t,lr,verdict"
    assert lines[1].startswith("1,1,") and lines[1].endswith("continue")
    t, lr, verdict = lines[3].split(",")
    assert (t, verdict) == ("3", "alarm")
    assert float(lr) == pytest.approx(math.exp(9.4), rel=1e-12)
    assert len(lines) == 4  # single-shot stops reading at the alarm


def test_detect_exhausted_on_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    code, out, _ = run_cli(capsys, "detect", "--eta", "100", "--input", str(src))
    assert code == 11
    assert out.strip() == "t,lr,verdict"


def test_detect_reports_bad_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("0.25\nabc\n1.5\n")
    code, _, err = run_cli(capsys, "detect", "--eta", "100", "--input", str(src))
    assert code == 2
    assert "line 2" in err and "abc" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_detect_rejects_non_finite_lines(tmp_path, capsys, value):
    src = tmp_path / "bad.txt"
    src.write_text(f"0.25\n{value}\n1.5\n")
    code, out, err = run_cli(capsys, "detect", "--eta", "100", "--input", str(src))
    assert code == 2
    assert "line 2" in err and value in err
    assert out.strip().split("\n")[1:] == ["1,0.77880078307140488,continue"]


def test_detect_accepts_infinite_alpha(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("9.9\n40\n"))
    code, out, _ = run_cli(capsys, "detect", "--alpha", "inf")
    assert code == 11
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["continue"] * 2


@pytest.mark.parametrize(
    "threshold, verdict, exit_code",
    [(("--alpha", "inf"), "continue", 11), (("--eta", "100"), "alarm", 10)],
    ids=["alpha_inf", "eta_100"],
)
def test_detect_decides_an_overflowing_ratio_on_its_log(
    capsys, monkeypatch, threshold, verdict, exit_code
):
    # l(1e300) = e^(1e300 - 0.5) prints as inf, but its log is finite: it
    # never reaches alpha = inf, and the overflow is not reported as an error
    monkeypatch.setattr(sys, "stdin", io.StringIO("1e300\n"))
    code, out, err = run_cli(capsys, "detect", *threshold)
    assert (code, out, err) == (exit_code, f"t,lr,verdict\n1,inf,{verdict}\n", "")


@pytest.mark.parametrize(
    "mean0, mean1, sigma, threshold",
    [
        (0.0, 1.0, 1.0, ("--eta", "20")),
        (-1.3, 2.1, 0.7, ("--eta", "20")),
        (2.0, -0.4, 3.0, ("--eta", "20")),  # a negative shift
        (0.0, 1.0, 1.0, ("--alpha", "3.3")),
    ],
    ids=["standard", "wide_shift", "negative_shift", "alpha"],
)
def test_detect_writes_each_verdict_as_the_library_computes_it(
    capsys, monkeypatch, mean0, mean1, sigma, threshold
):
    pair = GaussianMeanShift(mean0, mean1, sigma)
    xs = np.random.default_rng(20261018).normal(mean0, 1.5 * sigma, 2000)
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{v:.17g}\n" for v in xs)))
    flags = ("--mean0", str(mean0), "--mean1", str(mean1), "--sigma", str(sigma))
    code, out, _ = run_cli(capsys, "detect", *threshold, *flags, "--restart")
    flag, value = threshold
    if flag == "--eta":
        det = calibrate(pair, float(value))
    else:
        det = ShewhartDetector(pair=pair, alpha=float(value), eta=1.0)
    times = np.arange(1, xs.size + 1)
    mask = det.alarm_mask(times, xs, np.random.default_rng(0))
    lr = [math.exp(v) for v in pair.log_likelihood_ratio(xs)]
    expected = [
        f"{t},{float(v):.17g},{'alarm' if hit else 'continue'}"
        for t, v, hit in zip(times, lr, mask)
    ]
    assert mask.any() and not mask.all() and code == 10
    assert out.splitlines() == ["t,lr,verdict", *expected]


def test_detect_output_bytes_are_pinned(tmp_path, capsys):
    # pinned from the straightforward per-verdict implementation; a faster path
    # must print the same bytes.  The ratio is math.exp of the log ratio, so
    # every host prints them, whichever exp kernel numpy dispatches
    seq_path = tmp_path / "seq.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--horizon", "20000", "--s", "200", "--seed", "5",
        "--sequence-out", str(seq_path),
        "--schedule-out", str(tmp_path / "sched.json"),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "detect", "--eta", "100", "--restart", "--input", str(seq_path)
    )
    assert code == 10 and out.count("\n") == 20001
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "75f21019214f261989de17e1a83c36d820150112caf6f6432dc8bf3294f1ca2a"
    )


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_detect_skips_blank_lines_without_counting_them(tmp_path, capsys, monkeypatch, source):
    text = "0.5\n\n   \n\t0.25 \r\n9.9\n"
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ()
    else:
        path = tmp_path / "obs.txt"
        path.write_bytes(text.encode())
        argv = ("--input", str(path))
    code, out, _ = run_cli(capsys, "detect", "--eta", "100", "--restart", *argv)
    assert code == 10
    lr = [math.exp(PAIR.log_likelihood_ratio(x)) for x in (0.5, 0.25, 9.9)]
    assert out.splitlines() == [
        "t,lr,verdict",
        f"1,{lr[0]:.17g},continue",
        f"2,{lr[1]:.17g},continue",
        f"3,{lr[2]:.17g},alarm",
    ]


def test_detect_error_names_the_physical_line(capsys, monkeypatch):
    # the blank line 2 is skipped but still counted as a line of the input
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.5\n\nabc\n"))
    code, out, err = run_cli(capsys, "detect", "--eta", "100")
    assert code == 2
    assert "line 3" in err and "abc" in err
    assert out.splitlines() == ["t,lr,verdict", "1,1,continue"]


def test_step_run_stream_and_detect_share_one_decision(capsys, monkeypatch):
    det = calibrate(PAIR, 100.0)
    monkeypatch.setattr(ShewhartDetector, "step", lambda self, x, rng=None: (x > 5.0, 0.125))
    assert run_stream(det, [0.0, 6.0]) == 2
    monkeypatch.setattr(sys, "stdin", io.StringIO("0\n6\n"))
    code, out, _ = run_cli(capsys, "detect", "--eta", "100")
    assert code == 10
    assert out.splitlines() == ["t,lr,verdict", "1,0.125,continue", "2,0.125,alarm"]


def test_detect_flag_exclusivity(tmp_path, capsys):
    src = tmp_path / "obs.txt"
    src.write_text("0.5\n")
    code, _, _ = run_cli(
        capsys, "detect", "--eta", "10", "--alpha", "2", "--input", str(src)
    )
    assert code == 1
    code, _, _ = run_cli(capsys, "detect", "--input", str(src))
    assert code == 1


def test_detect_with_explicit_alpha(tmp_path, capsys):
    src = tmp_path / "obs.txt"
    src.write_text("0.5\n0.5\n1.5\n")
    code, out, _ = run_cli(capsys, "detect", "--alpha", "6.211", "--input", str(src))
    assert code == 11  # l(1.5) = e < 6.211: exhausted
    code, out, _ = run_cli(capsys, "detect", "--alpha", "1.5", "--input", str(src))
    assert code == 10
    assert out.strip().split("\n")[-1].startswith("3,")


def test_detect_restart_consumes_everything(tmp_path, capsys):
    src = tmp_path / "obs.txt"
    src.write_text("9.0\n0.0\n9.0\n0.0\n")
    code, out, _ = run_cli(
        capsys, "detect", "--eta", "100", "--restart", "--input", str(src)
    )
    assert code == 10
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 4
    assert [l.split(",")[2] for l in lines] == ["alarm", "continue", "alarm", "continue"]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic(tmp_path, capsys):
    args = [
        "simulate",
        "--horizon", "100", "--s", "0", "--seed", "7",
        "--sequence-out", str(tmp_path / "a.csv"),
        "--schedule-out", str(tmp_path / "a.json"),
    ]
    assert run_cli(capsys, *args)[0] == 0
    args2 = [
        "simulate",
        "--horizon", "100", "--s", "0", "--seed", "7",
        "--sequence-out", str(tmp_path / "b.csv"),
        "--schedule-out", str(tmp_path / "b.json"),
    ]
    assert run_cli(capsys, *args2)[0] == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_feasibility_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--horizon", "100", "--s", "60", "--T", "1",
        "--sequence-out", str(tmp_path / "x.csv"),
        "--schedule-out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "non-overlapping" in err


def test_simulate_schedule_passes_validation(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--horizon", "1000", "--s", "10", "--T", "3", "--placement", "even_grid",
        "--seed", "3",
        "--sequence-out", str(tmp_path / "seq.csv"),
        "--schedule-out", str(tmp_path / "sched.json"),
    )
    assert code == 0
    sched = ChangeSchedule.from_json((tmp_path / "sched.json").read_text())
    assert sched.s == 10 and sched.duration == 3 and sched.horizon == 1000
    x = read_sequence_csv(tmp_path / "seq.csv")
    assert x.size == 1000


def test_simulate_even_grid_fits_a_tight_horizon(tmp_path, capsys):
    # two windows of 3 need 8 samples; the floor grid would put onsets at 3 and 6
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--T", "3", "--horizon", "8", "--s", "2",
        "--sequence-out", str(tmp_path / "seq.csv"),
        "--schedule-out", str(tmp_path / "sched.json"),
    )
    assert code == 0
    sched = ChangeSchedule.from_json((tmp_path / "sched.json").read_text())
    assert sched == ChangeSchedule(onsets=(1, 6), duration=3, horizon=8)
    assert read_sequence_csv(tmp_path / "seq.csv").size == 8


def test_simulate_explicit_onsets(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--horizon", "50", "--s", "2", "--placement", "explicit", "--onsets", "5,20",
        "--sequence-out", str(tmp_path / "seq.csv"),
        "--schedule-out", str(tmp_path / "sched.json"),
    )
    assert code == 0
    sched = ChangeSchedule.from_json((tmp_path / "sched.json").read_text())
    assert sched.onsets == (5, 20)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--s", "3", "--placement", "explicit", "--onsets", "5,20"], "s = 3 onsets, got [5, 20]"),
        (["--s", "0", "--placement", "explicit", "--onsets", "5,20"], "s = 0 onsets, got [5, 20]"),
        (["--s", "3", "--placement", "explicit", "--onsets", "5,,20"], "--onsets must list integers"),
        (["--s", "2", "--placement", "explicit", "--onsets", "5.0,20"], "--onsets must list integers"),
        (["--s", "2", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ],
    ids=["more-s", "s-0", "empty-entry", "float-entry", "negative-seed"],
)
def test_simulate_names_what_it_cannot_use(tmp_path, capsys, flags, message):
    code, out, err = run_cli(
        capsys,
        "simulate", "--horizon", "50", *flags,
        "--sequence-out", str(tmp_path / "seq.csv"),
        "--schedule-out", str(tmp_path / "sched.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("transientscan simulate: ") and message in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# experiment


def test_experiment_runs_config_file(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "pair": {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "sigma": 1.0},
        "horizon": 300,
        "s": 3,
        "T": 1,
        "placement": "even_grid",
        "eta_grid": [3],
        "n_trials": 100,
        "mode": "restart",
        "master_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 0
    csv_path = out_dir / "report.csv"
    assert csv_path.exists() and (out_dir / "report.meta.json").exists()
    first = csv_path.read_bytes()
    code, _, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 0
    assert csv_path.read_bytes() == first


def test_experiment_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"horizon": 10}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert "schema_version" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("null", "config must be a JSON object, got NoneType"),
        ("3", "config must be a JSON object, got int"),
        ("[1, 2]", "config must be a JSON object, got list"),
        ('"x"', "config must be a JSON object, got str"),
    ],
    ids=["null", "number", "list", "string"],
)
def test_experiment_refuses_a_config_that_is_not_an_object(tmp_path, capsys, text, message):
    # null and 3 exited 1 with a TypeError traceback; a list and a string
    # were reported as missing schema_version
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"transientscan experiment: {message}" in err


def test_experiment_names_a_negative_master_seed(tmp_path, capsys):
    cfg = json.loads((Path(transientscan._PRESET_DIR) / "acceptance.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "master_seed": -1}))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert "transientscan experiment: master_seed must be nonnegative, got -1" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_trials", 100.0),
        ("n_trials", True),
        ("s", "3"),
        ("master_seed", 1.5),
        ("horizon", 1000.5),
        ("T", 1.0),
        ("onsets", [4.7, 20]),
        ("onsets", [4, False]),
        ("onsets", 4),
    ],
)
def test_experiment_rejects_a_non_integer_count(tmp_path, capsys, key, value):
    cfg = json.loads((Path(transientscan._PRESET_DIR) / "acceptance.json").read_text())
    cfg[key] = value
    if key == "onsets":
        cfg["placement"] = "explicit"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 2
    assert out == "" and f"{key} must be" in err and "integer" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("eta_grid", 10, "eta_grid"),
        ("mu1_grid", 1.5, "mu1_grid"),
        ("pair", {"kind": "gaussian_mean_shift", "mean0": 0.0, "mean1": 1.0, "foo": 2}, "'foo'"),
        ("pair", {"kind": "gaussian_mean_shift", "mean0": "0", "mean1": 1.0}, "mean0"),
        pytest.param("eta_grid", [10**400], "eta_grid", id="eta_grid-10**400"),
        pytest.param("horizon", 10**400, "horizon", id="horizon-10**400"),
        pytest.param("n_trials", 10**400, "n_trials", id="n_trials-10**400"),
        pytest.param("n_trials", 2**63, "n_trials", id="n_trials-2**63"),
        # the schedule would name T its duration
        pytest.param("T", 0, "T", id="T-0"),
        pytest.param("T", -3, "T", id="T--3"),
    ],
)
def test_experiment_names_the_key_of_a_config_it_cannot_hold(
    tmp_path, capsys, key, value, named
):
    # a TypeError or OverflowError from deep in the run would exit 1 with a traceback
    cfg = json.loads((Path(transientscan._PRESET_DIR) / "acceptance.json").read_text())
    cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert f"transientscan experiment: {named}" in err or f"key {named}" in err
    assert not out_dir.exists()


def test_experiment_rejects_an_infinite_eta(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    preset = (Path(transientscan._PRESET_DIR) / "acceptance.json").read_text()
    out_dir = tmp_path / "out"
    # the config rejects inf; 1e308 is finite, but its run-length horizon
    # 20 * eta is not
    for eta, message in [
        (math.inf, "every eta must be >= 1 and finite, got [inf]"),
        (1e308, "eta must be finite (20 * eta too) to size the run horizon, got 1e+308"),
    ]:
        cfg_path.write_text(json.dumps({**json.loads(preset), "eta_grid": [10, eta]}))
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
        )
        assert (code, out) == (2, ""), eta
        assert message in err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "placement, onsets",
    [
        ("explicit", [4, 20]),  # s is 20
        ("explicit", None),
        ("even_grid", list(range(50, 1001, 50))),  # 20 onsets, but not explicit
        ("uniform_random", [4, 20]),
    ],
)
def test_experiment_rejects_onsets_that_disagree_with_the_placement(
    tmp_path, capsys, placement, onsets
):
    cfg = json.loads((Path(transientscan._PRESET_DIR) / "acceptance.json").read_text())
    cfg.update(placement=placement, onsets=onsets, n_trials=10)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 2
    assert out == "" and "onsets" in err
    assert not out_dir.exists()


def test_experiment_help_lists_every_preset(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--help")
    assert code == 0
    names = transientscan.preset_names()
    assert names and all(name in out for name in names)


def test_experiment_unknown_preset(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--preset", "nope", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "unknown preset" in err


# ---------------------------------------------------------------------------
# simulate | detect round trip against the library scoring


def test_round_trip_matches_library_monitoring(tmp_path, capsys):
    seq_path = tmp_path / "seq.csv"
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--horizon", "400", "--s", "8", "--T", "1", "--seed", "21",
        "--sequence-out", str(seq_path),
        "--schedule-out", str(sched_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "detect", "--eta", "5", "--restart", "--input", str(seq_path)
    )
    assert code == 10
    cli_alarms = [
        int(line.split(",")[0])
        for line in out.strip().split("\n")[1:]
        if line.endswith("alarm")
    ]
    x = read_sequence_csv(seq_path)
    schedule = ChangeSchedule.from_json(sched_path.read_text())
    det = calibrate(PAIR, 5.0)
    # the CLI's alarm set is exactly the per-sample threshold crossings
    times = np.arange(1, schedule.horizon + 1)
    mask = det.alarm_mask(times, x, np.random.default_rng(0))
    assert cli_alarms == times[mask].tolist()
    # and the library's restart outcome agrees on the prefix up to detection
    outcome = monitor_sequence(det, x, schedule, mode="restart")
    assert [t for t, _ in outcome.alarms] == [t for t in cli_alarms if t <= outcome.tau]
    for t, kind in outcome.alarms:
        assert kind == ("true_onset" if t in schedule.onsets else "false_alarm")


# ---------------------------------------------------------------------------
# cold start and the README's examples


def test_cold_start_does_not_import_scipy_stats(tmp_path):
    # scipy is a test dependency only: no command loads any part of it
    probe = (
        "import sys\n"
        "from transientscan.cli import main\n"
        "out = sys.argv[1]\n"
        "commands = [\n"
        "    ['experiment', '--preset', 'acceptance', '--out-dir', out],\n"
        "    ['calibrate', '--eta', '100'],\n"
        "    ['simulate', '--horizon', '400', '--s', '4', '--seed', '3',\n"
        "     '--sequence-out', out + '/seq.csv', '--schedule-out', out + '/sched.json'],\n"
        "    ['detect', '--eta', '5', '--restart', '--input', out + '/seq.csv'],\n"
        "]\n"
        "codes = [main(argv) for argv in commands]\n"
        "assert codes == [0, 0, 0, 10], codes\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(transientscan.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cold_start_does_not_import_the_process_pool():
    # nothing imports a process pool, a sweep included;
    # calibrate and detect load neither numpy, nor the estimators, nor the
    # harness, and the package's lazily resolved names are checked here, in a
    # fresh interpreter, because inside this test run every module is loaded
    probe = (
        "import contextlib, io, sys\n"
        "import transientscan, transientscan.cli\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "assert not [m for m in pool if m in sys.modules], 'process pool imported at start-up'\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "codes = []\n"
        "for argv, text in [(['detect', '--eta', '100'], '0.5\\n9.9\\n'),\n"
        "                   (['detect', '--alpha', 'inf'], '1e300\\n'),\n"
        "                   (['calibrate', '--eta', '100'], '')]:\n"
        "    sys.stdin = io.StringIO(text)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(transientscan.cli.main(argv))\n"
        "    assert 'numpy' not in sys.modules, f'numpy imported by {argv}'\n"
        "assert codes == [10, 11, 0], codes\n"
        "heavy = ('transientscan.metrics', 'transientscan.harness', 'transientscan.sequence_model')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'loaded by calibrate and detect: {loaded}'\n"
        "for name in transientscan.__all__:\n"
        "    value = getattr(transientscan, name)\n"
        "    home = sys.modules[getattr(value, '__module__', 'transientscan')]\n"
        "    assert getattr(home, name) is value, name\n"
        "assert transientscan.run_eta_sweep is transientscan.harness.run_eta_sweep\n"
        "assert transientscan.calibrate is transientscan.detector.calibrate\n"
        "namespace = {}\n"
        "exec('from transientscan import *', namespace)\n"
        "assert set(namespace) - {'__builtins__'} == set(transientscan.__all__)\n"
        "assert set(transientscan.__all__) <= set(dir(transientscan))\n"
        "try:\n"
        "    transientscan.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
        "assert not hasattr(transientscan, 'no_such_name')\n"
        "assert not [m for m in pool if m in sys.modules], 'process pool imported by a name'\n"
        "pair = transientscan.GaussianMeanShift(0.0, 1.0, 1.0)\n"
        "cfg = transientscan.ExperimentConfig(\n"
        "    pair=pair, horizon=200, s=4, T=1, eta_grid=(4.0, 10.0), n_trials=300, master_seed=4\n"
        ")\n"
        "transientscan.run_eta_sweep(cfg)\n"
        "assert not [m for m in pool if m in sys.modules], 'process pool imported by a sweep'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(transientscan.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _readme_example(command):
    """The README "Command line" block for ``command``, as its stdin, argv,
    expected stdout and expected exit code."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```sh\n")[1:]]
    (block,) = [b for b in blocks if f"transientscan {command} " in b.split("\n", 1)[0]]
    first, *lines = block.rstrip("\n").split("\n")
    stdin = ""
    if " | " in first:  # printf 'a\nb\n' | transientscan ...
        feed, first = first.split(" | ", 1)
        stdin = shlex.split(feed.removeprefix("$ "))[1].replace("\\n", "\n")
    argv = shlex.split(first.removeprefix("$ "))[1:]
    code = 0
    if "$ echo $?" in lines:
        at = lines.index("$ echo $?")
        code, lines = int(lines[at + 1]), lines[:at]
    return stdin, argv, "".join(f"{line}\n" for line in lines), code


@pytest.mark.parametrize("command", ["calibrate", "detect"])
def test_readme_command_line_examples_run_as_shown(capsys, monkeypatch, command):
    stdin, argv, expected_out, expected_code = _readme_example(command)
    assert argv[0] == command
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, _ = run_cli(capsys, *argv)
    assert (out, code) == (expected_out, expected_code)
