"""Command-line surface: calibrate, detect, simulate, experiment.

Exit codes: 0 success, 1 usage error, 2 runtime error, and for ``detect``
10 when an alarm was raised, 11 when the input ended without one.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path

# detect runs on these alone; json, the estimators, the sequence model and
# the harness are imported by the commands that use them
from . import __version__, preset_names
from .detector import ShewhartDetector, calibrate
from .distributions import GaussianMeanShift

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_ALARM = 10
EXIT_EXHAUSTED = 11


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _eta_flag(text: str) -> float:
    value = float(text)
    if not 1.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"eta must be >= 1 and finite, got {value}")
    return value


def _alpha_flag(text: str) -> float:
    # inf is accepted (its F0 tail is 0, so the implied eta is inf); NaN is not
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"alpha must be nonnegative, got {value}")
    return value


def _workers_flag(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {value}")
    return value


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean0", type=float, default=0.0, help="nominal mean (default 0)")
    p.add_argument("--mean1", type=float, default=1.0, help="post-change mean (default 1)")
    p.add_argument("--sigma", type=float, default=1.0, help="common std deviation (default 1)")


def _pair_from_args(args) -> GaussianMeanShift:
    return GaussianMeanShift(mean0=args.mean0, mean1=args.mean1, sigma=args.sigma)


def build_parser() -> _Parser:
    parser = _Parser(prog="transientscan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"transientscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cal = sub.add_parser("calibrate", help="solve the threshold equation for a run-length budget")
    p_cal.add_argument("--eta", type=_eta_flag, required=True, help="run-length budget, >= 1")
    _add_pair_flags(p_cal)

    p_det = sub.add_parser("detect", help="stream newline-delimited decimals through the test")
    group = p_det.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta", type=_eta_flag, help="calibrate the threshold from this budget")
    group.add_argument("--alpha", type=_alpha_flag, help="use this threshold directly")
    _add_pair_flags(p_det)
    p_det.add_argument(
        "--input", default="-", help="observations file, or - for standard input (default)"
    )
    p_det.add_argument(
        "--restart",
        action="store_true",
        help="keep monitoring after alarms instead of stopping at the first one",
    )

    p_sim = sub.add_parser("simulate", help="generate a schedule and its observation sequence")
    p_sim.add_argument("--horizon", type=int, required=True)
    p_sim.add_argument("--s", type=int, required=True, help="number of change-points")
    p_sim.add_argument("--T", type=int, default=1, help="transient duration (default 1)")
    p_sim.add_argument(
        "--placement",
        choices=["even_grid", "uniform_random", "explicit"],
        default="even_grid",
    )
    p_sim.add_argument("--onsets", help="comma-separated onset times (explicit placement)")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_pair_flags(p_sim)
    p_sim.add_argument("--sequence-out", default="sequence.csv")
    p_sim.add_argument("--schedule-out", default="schedule.json")

    p_exp = sub.add_parser("experiment", help="run a config-driven sweep and write CSV artifacts")
    src = p_exp.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to an experiment config JSON")
    src.add_argument("--preset", help=f"named built-in config: {', '.join(preset_names())}")
    p_exp.add_argument("--out-dir", default="experiment-out")
    p_exp.add_argument("--name", default="report", help="basename for the output files")
    p_exp.add_argument(
        "--workers", type=_workers_flag, default=1, help="processes the sweep's rows are split over"
    )
    return parser


def cmd_calibrate(args) -> int:
    import json

    pair = _pair_from_args(args)
    det = calibrate(pair, args.eta)
    out = {
        "eta": args.eta,
        "alpha": det.alpha,
        "tail_prob": det.per_sample_alarm_prob(),
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_detect(args) -> int:
    pair = _pair_from_args(args)
    if args.alpha is not None:
        tail = pair.lr_tail_prob_f0(args.alpha)
        implied_eta = 1.0 / tail if tail > 0.0 else math.inf
        det = ShewhartDetector(pair=pair, alpha=args.alpha, eta=max(implied_eta, 1.0))
    else:
        det = calibrate(pair, args.eta)
    step = det.step
    alarmed = False
    # looked up per run, not at import: callers may swap sys.stdin and sys.stdout
    write = sys.stdout.write
    write("t,lr,verdict\n")
    t = 0
    source = nullcontext(sys.stdin) if args.input == "-" else open(args.input, encoding="utf-8")
    with source as lines:
        for line_no, line in enumerate(lines, start=1):
            try:
                x = float(line)  # float() itself ignores surrounding whitespace
            except ValueError:
                if not line.strip():
                    continue
                x = math.nan
            if not math.isfinite(x):
                print(
                    f"line {line_no}: could not parse {line.strip()!r} as a finite number",
                    file=sys.stderr,
                )
                return EXIT_RUNTIME
            t += 1
            hit, lr = step(x)
            write(f"{t},{lr:.17g},{'alarm' if hit else 'continue'}\n")
            if hit:
                alarmed = True
                if not args.restart:
                    break
    return EXIT_ALARM if alarmed else EXIT_EXHAUSTED


def cmd_simulate(args) -> int:
    from .metrics import trial_rng
    from .sequence_model import generate_sequence, make_schedule, write_sequence_csv

    pair = _pair_from_args(args)
    onsets = None
    if args.onsets is not None:
        onsets = tuple(int(v) for v in args.onsets.split(","))
    rng = trial_rng(args.seed)
    schedule = make_schedule(
        args.horizon, args.s, args.T, args.placement, rng=rng, onsets=onsets
    )
    x = generate_sequence(pair, schedule, rng)
    write_sequence_csv(args.sequence_out, x)
    Path(args.schedule_out).write_text(schedule.to_json() + "\n", encoding="utf-8")
    print(f"wrote {args.sequence_out} ({x.size} samples) and {args.schedule_out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .harness import ExperimentConfig, load_preset, run_experiment

    if args.preset is not None:
        config = load_preset(args.preset)
    else:
        config = ExperimentConfig.from_json_file(args.config)
    csv_path, meta_path = run_experiment(
        config, args.out_dir, n_workers=args.workers, name=args.name
    )
    print(f"wrote {csv_path} and {meta_path}")
    return EXIT_OK


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "detect": cmd_detect,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"transientscan {args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
