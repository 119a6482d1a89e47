"""transientscan benchmark: one workload, timed, checked, optionally traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bound_battery --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and bench/README.md): ``bound_battery``,
``eta_sweep`` and ``detect_stream``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it first times untraced passes, then
wraps the program's public boundaries and reports per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout, never
from an installed copy; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"

#: single-threaded numerics, for this process and its children
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

#: set-ups per run, each followed by its share of the timed passes so that
#: they sample the whole run; setup_s is their median
SETUPS = 7
#: fewest timed passes a run makes, whatever --seconds says
MIN_PASSES = 3

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import transientscan, transientscan.cli\n"
    "print(time.perf_counter() - t)\n"
)


class MissingProgram(RuntimeError):
    """The checkout holds no transientscan source to benchmark."""


def import_program():
    """Import transientscan from this checkout's ``src/``."""
    if not (SRC / "transientscan" / "__init__.py").is_file():
        raise MissingProgram(f"no transientscan package under {SRC}")
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import transientscan

    if Path(transientscan.__file__).resolve().parent != SRC / "transientscan":
        raise MissingProgram(f"transientscan was imported from {transientscan.__file__}")
    return transientscan


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
        env={**os.environ, **THREAD_ENV},
    )
    return float(proc.stdout.strip().splitlines()[-1])


def make_workload(name: str, seed: int):
    import workloads

    if name == "bound_battery":
        return workloads.BoundBattery(seed)
    if name == "eta_sweep":
        return workloads.EtaSweep(seed)
    if name == "detect_stream":
        return workloads.DetectStream(seed, OUT)
    raise ValueError(f"unknown workload {name!r}")


def timed_setups(workload, count: int, tracer=None) -> list[float]:
    times = []
    for k in range(count):
        if tracer is not None:
            tracer.current_pass = -1 - k
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def timed_passes(workload, seconds: float, tracer=None) -> list:
    """Timed passes until ``seconds`` of wall clock have gone, at least MIN_PASSES."""
    passes = []
    t_end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        if tracer is not None:
            tracer.current_pass = len(passes)
        passes.append(workload.run_pass())
    return passes


def git_rev() -> str | None:
    """HEAD commit of the checkout, when it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package's files, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = SRC / "transientscan"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, passes: int, **extra) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "n_workers": 1,
        **extra,
    }


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics and the details printed beside them.

    Timings come from the least-disturbed pass, and latencies from the
    least-disturbed latency window: on a shared host the same work takes up
    to half as long again while neighbours are busy, which moves a median
    across runs far more than the minimum.
    """
    import numpy as np

    walls = [p.wall_s for p in passes]
    wall = min(walls)
    p50s = np.concatenate([p.p50_us for p in passes])
    tails = np.concatenate([p.tail_us for p in passes])
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "throughput_per_s": passes[0].units / wall,
        "latency_p50_us": float(p50s.min()),
        "latency_tail_us": float(tails.min()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "tail_percentile": passes[0].tail_percentile,
        "latency_samples_per_window": passes[0].latency_window,
        "latency_windows": int(tails.size),
        "wall_s_median": statistics.median(walls),
    }
    return values, details


#: the names users of each kind of workload know the generic metrics by
_ALIASES = {
    "detect_stream": {
        "throughput_per_s": "samples_per_s",
        "latency_p50_us": "verdict_p50_us",
        "latency_tail_us": "verdict_tail_us",
    },
    "default": {
        "throughput_per_s": "trials_per_s",
        "latency_p50_us": "us_per_trial_p50",
        "latency_tail_us": "us_per_trial_tail",
    },
}


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = "n/a" if isinstance(value, float) and math.isnan(value) else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:6s} {note}")


def select(spec: list[dict], values: dict) -> dict:
    """The metrics BENCHMARK.json lists, with their units."""
    out = {}
    for entry in spec:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def run(args) -> dict:
    import_program()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(args.workload, args.seed)
    print(f"transientscan benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    try:
        if args.trace:
            return traced_run(args, workload, bench_spec)
        return untraced_run(args, workload, bench_spec)
    finally:
        path = getattr(workload, "path", None)
        if path is not None and path.exists():
            path.unlink()


def _outcome(passes) -> tuple[int, int, list[str]]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = sorted({msg for p in passes for msg in p.problems})
    return attempted, failed, problems


def untraced_run(args, workload, bench_spec) -> dict:
    import_times, setup_times, passes = [], [], []
    for _ in range(SETUPS):
        import_times.append(import_seconds())
        setup_times.extend(timed_setups(workload, 1))
        passes.extend(timed_passes(workload, args.seconds / SETUPS))
    import_s = statistics.median(import_times)
    setup_work_s = statistics.median(setup_times)
    values, details = end_to_end(passes, import_s + setup_work_s)
    attempted, failed, problems = _outcome(passes)

    aliases = _ALIASES.get(args.workload, _ALIASES["default"])
    units = {e["name"]: e["unit"] for e in bench_spec["end_to_end"]}
    rows = [
        (aliases.get(name, name), value, units.get(name, ""), f"[{name}]" if name in aliases else "")
        for name, value in values.items()
    ]
    rows.append(("failed_frac", failed / attempted, "ratio", f"({failed}/{attempted})"))
    print_table(rows)
    print(f"  setup_s = import {import_s:.4f} s (median of {SETUPS} fresh interpreters) "
          f"+ workload set-up {setup_work_s:.4f} s (median of {SETUPS})")
    print(f"  least over {len(passes)} passes of {passes[0].units} units each (median wall_s "
          f"{details['wall_s_median']:.6g} s); latency p50 and tail = p{details['tail_percentile']:.4g} "
          f"least over {details['latency_windows']} windows of "
          f"{details['latency_samples_per_window']} samples")
    for msg in problems:
        print(f"  FAILED: {msg}")
    print("provenance " + json.dumps(provenance(args, len(passes), trace_overhead_s=None, **details)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(bench_spec["end_to_end"], values),
    }


def traced_run(args, workload, bench_spec) -> dict:
    import tracer as tracing

    half = args.seconds / 2.0
    workload.setup()
    plain = timed_passes(workload, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        timed_setups(workload, SETUPS, tracer)
        traced = timed_passes(workload, half, tracer)
    finally:
        tracer.remove()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)

    layers = tracing.layer_metrics(tracer)
    plain_wall = min(p.wall_s for p in plain)
    traced_wall = min(p.wall_s for p in traced)
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["cli.lines"] = traced[0].units if args.workload == "detect_stream" else 0
    if args.workload == "detect_stream":
        # detect decides every line it reads: verdicts written per line read
        layers["metrics.draw_efficiency"] = traced[0].units / workload.n_lines
    attempted, failed, problems = _outcome(plain + traced)

    units = {e["name"]: e["unit"] for e in bench_spec["per_layer"]}
    rows = [(name, value, units.get(name, _unit_of(name)), "") for name, value in sorted(layers.items())]
    print_table(rows)
    print(f"  untraced wall_s {plain_wall:.6g} s over {len(plain)} passes; traced wall_s "
          f"{traced_wall:.6g} s over {len(traced)} passes; overhead "
          f"{layers['trace.overhead_s']:.6g} s ({layers['trace.overhead_s'] / plain_wall:.1%})")
    print(f"  spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for msg in problems:
        print(f"  FAILED: {msg}")
    print("provenance " + json.dumps(provenance(
        args,
        len(traced),
        trace_overhead_s=layers["trace.overhead_s"],
        untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        spans=len(tracer.start),
    )))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(bench_spec["per_layer"], layers),
    }


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_trial"):
        return "us"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bound_battery", "eta_sweep", "detect_stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
