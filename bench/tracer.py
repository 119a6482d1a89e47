"""Span tracer for the benchmark's traced run.

The tracer replaces public functions and methods of ``transientscan`` (and
``numpy.random.default_rng``) with wrappers that record one span per call:
name, start, end, parent span and pass id, plus one per-call count (trials
run, samples drawn, samples decided, ...).  Spans live in flat in-memory
arrays and are written out once, after the run.  The program's own source
is not touched: wrappers are installed on the module and class attributes
where callers look the names up, and removed again by :meth:`Tracer.remove`.

All spans come from one thread (the workloads run with ``n_workers=1``), so
the direct children of a span never overlap: a span's self time is its
duration minus the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array

import numpy as np

RNG = "rng.default_rng"
SAMPLE = "distributions.sample"
LLR = "distributions.llr"
CALIBRATION = "distributions.calibration"
GENERATE = "sequence_model.generate_sequence"
ALARM_MASK = "detector.alarm_mask"
STEP = "detector.step"
CALIBRATE = "detector.calibrate"
SWEEP = "harness.run_eta_sweep"
RENDER = "harness.render_report_csv"
CLI = "cli.main"

#: estimator entry points, traced as ``metrics.<name>``
METRICS_FUNCTIONS = (
    "simulate_run_lengths",
    "estimate_optimality_ceiling",
    "estimate_pollak",
    "evaluate_criteria",
    "detect_first_any_curves",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.pass_id = array("q")
        self.count = array("q")
        #: span index -> samples the call needed to reach every trial's
        #: stop, for metrics calls whose public result exposes it
        self.needed: dict[int, int] = {}
        #: id stamped on every span opened from now on: the benchmark sets
        #: it per timed pass (>= 0) and per set-up (< 0)
        self.current_pass = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None, needed=None):
        """Return ``fn`` wrapped so each call records one span named ``name``.

        ``count(args, kwargs, result)`` gives the span's count and
        ``needed(args, kwargs, result)`` the samples the call needed, or None.
        """
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.pass_id.append(tracer.current_pass)
            tracer.end.append(0)
            tracer.count.append(0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if count is not None:
                tracer.count[i] = count(args, kwargs, result)
            if needed is not None:
                value = needed(args, kwargs, result)
                if value is not None:
                    tracer.needed[i] = value
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind(self, modules, original, replacement) -> None:
        """Replace ``original`` wherever one of ``modules`` binds it by name."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the program's public boundaries; undo with :meth:`remove`."""
        import transientscan
        from transientscan import cli, detector, distributions, harness, metrics, sequence_model

        modules = (transientscan, cli, detector, distributions, harness, metrics, sequence_model)

        # metrics looks np.random.default_rng up at call time
        self._patch(np.random, "default_rng", self.wrap(np.random.default_rng, RNG, _one))

        pair_cls = distributions.GaussianMeanShift
        self._patch(pair_cls, "sample", self.wrap(pair_cls.sample, SAMPLE, _size))
        self._patch(
            pair_cls, "log_likelihood_ratio", self.wrap(pair_cls.log_likelihood_ratio, LLR, _size)
        )
        for method in ("lr_quantile_f0", "lr_tail_prob_f0"):
            self._patch(pair_cls, method, self.wrap(getattr(pair_cls, method), CALIBRATION, _one))

        for rule_cls in (
            detector.ShewhartDetector,
            detector.AlwaysStopRule,
            detector.FixedTimeRule,
            detector.BernoulliStopRule,
        ):
            self._patch(rule_cls, "alarm_mask", self.wrap(rule_cls.alarm_mask, ALARM_MASK, _size))
        step = detector.ShewhartDetector.step
        self._patch(detector.ShewhartDetector, "step", self.wrap(step, STEP, _one))

        # metrics binds generate_sequence and calibrate by name at import,
        # so each is wrapped wherever a module binds it
        generate = sequence_model.generate_sequence
        self._rebind(modules, generate, self.wrap(generate, GENERATE, _size))
        self._rebind(modules, detector.calibrate, self.wrap(detector.calibrate, CALIBRATE, _one))

        for fname in METRICS_FUNCTIONS:
            fn = getattr(metrics, fname)
            count = None if fname in _NO_OWN_TRIALS else _bound(fn, _trials)
            needed = _bound(fn, _NEEDED[fname]) if fname in _NEEDED else None
            self._rebind(modules, fn, self.wrap(fn, f"metrics.{fname}", count, needed))
        self._rebind(modules, harness.run_eta_sweep, self.wrap(harness.run_eta_sweep, SWEEP))
        render = harness.render_report_csv
        self._rebind(modules, render, self.wrap(render, RENDER))
        self._rebind(modules, cli.main, self.wrap(cli.main, CLI))

    def remove(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as parallel int64 arrays (times in ns)."""
        return {
            field: np.frombuffer(getattr(self, field), dtype=np.int64).copy()
            for field in ("name_id", "start", "end", "parent", "pass_id", "count")
        }

    def save(self, path) -> None:
        """Write every span, the name table and the needed-sample counts."""
        needed = np.array(sorted(self.needed.items()), dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(path, names=np.array(self.names), needed=needed, **self.spans())


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


def _one(args, kwargs, result) -> int:
    return 1


def _bound(fn, helper):
    """Adapt ``helper(arguments, result)`` to the wrapper's count signature."""
    sig = inspect.signature(fn)

    def call(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return helper(bound.arguments, result)

    return call


# Trials run by a nested, separately wrapped call are counted there:
# evaluate_criteria runs its monitored trials itself and its F0 trials
# through simulate_run_lengths.
_NO_OWN_TRIALS = ("estimate_optimality_ceiling", "detect_first_any_curves")


def _trials(arguments, result) -> int:
    return int(arguments["n_trials"])


def _needed_run_lengths(arguments, result) -> int:
    """F0 runs need the samples up to each stop, or the whole horizon."""
    return int(result.taus.sum()) + result.censored * int(arguments["max_horizon"])


def _needed_restart(arguments, result) -> int | None:
    """Samples restart runs need, from the report's public counts.

    A restart run ends at its first detection.  Every onset before it was
    passed without an alarm, so a run with m missed onsets was detected at
    onset m + 1; an undetected run misses all s onsets and needs the whole
    horizon.  With onsets on an even grid ``d, 2d, ..., s*d`` the report's
    mean missed count and detect-any probability give the total exactly.
    Other schedules, and single-shot runs, do not expose it (None).
    """
    schedule = arguments["schedule"]
    onsets = np.asarray(schedule.onsets)
    s = onsets.size
    if arguments["mode"] != "restart" or s == 0:
        return None
    d = int(onsets[0])
    if not np.array_equal(onsets, d * np.arange(1, s + 1)):
        return None
    n = int(arguments["n_trials"])
    detected = round(result.detect_any_prob.value * n)
    undetected = n - detected
    missed_by_detected = round(result.avg_missed.value * n) - s * undetected
    return d * (missed_by_detected + detected) + schedule.horizon * undetected


_NEEDED = {
    "simulate_run_lengths": _needed_run_lengths,
    "evaluate_criteria": _needed_restart,
}


# ---------------------------------------------------------------------------
# Aggregation


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = (end - start).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def nearest_ancestor(parent, is_target) -> np.ndarray:
    """Index of each span's nearest proper ancestor with ``is_target``, or -1."""
    out = np.full(parent.size, -1, dtype=np.int64)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        hit = np.zeros(parent.size, dtype=bool)
        hit[live] = is_target[anc[live]]
        out[hit] = anc[hit]
        step = live & ~hit
        nxt = np.full(parent.size, -1, dtype=np.int64)
        nxt[step] = parent[anc[step]]
        anc = nxt
    return out


#: additive per-group quantity -> (span name it sums over, field)
_SUMS = {
    "rng_calls": (RNG, "calls"),
    "rng_self": (RNG, "self"),
    "sample_calls": (SAMPLE, "calls"),
    "samples_drawn": (SAMPLE, "count"),
    "sample_self": (SAMPLE, "self"),
    "llr_calls": (LLR, "calls"),
    "llr_self": (LLR, "self"),
    "calibration_self": (CALIBRATION, "self"),
    "generate_calls": (GENERATE, "calls"),
    "generate_self": (GENERATE, "self"),
    "alarm_mask_calls": (ALARM_MASK, "calls"),
    "samples_decided": (ALARM_MASK, "count"),
    "alarm_mask_self": (ALARM_MASK, "self"),
    "step_calls": (STEP, "calls"),
    "step_self": (STEP, "self"),
    "calibrate_calls": (CALIBRATE, "calls"),
    "calibrate_self": (CALIBRATE, "self"),
    "sweep_dur": (SWEEP, "dur"),
    "render_dur": (RENDER, "dur"),
    "cli_self": (CLI, "self"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one timed pass.

    Every additive quantity is summed per set-up (pass id < 0) and per timed
    pass (pass id >= 0); the result adds the median set-up to the median
    pass.  Ratios are formed from those combined sums.  Times are self times
    in seconds, except ``harness.*_s`` (call durations) and
    ``metrics.us_per_trial`` (duration of the outermost metrics calls per
    trial).  A layer that does not run reads 0 calls and NaN for its ratios.
    """
    sp = tracer.spans()
    names = tracer.names
    nid, parent, count, pass_id = sp["name_id"], sp["parent"], sp["count"], sp["pass_id"]
    dur = (sp["end"] - sp["start"]).astype(np.float64)
    own = self_times(sp["start"], sp["end"], parent)

    def by_name(name):
        return nid == (names.index(name) if name in names else -1)

    is_metrics = np.isin(nid, [i for i, n in enumerate(names) if n.startswith("metrics.")])
    owner = nearest_ancestor(parent, is_metrics)
    top_metrics = is_metrics & (owner < 0)

    # samples drawn inside each metrics call whose needed count is known
    owned_sample = by_name(SAMPLE) & (owner >= 0)
    drawn_in = np.bincount(owner[owned_sample], weights=count[owned_sample], minlength=nid.size)
    needed = np.zeros(nid.size)
    has_needed = np.zeros(nid.size, dtype=bool)
    for i, v in tracer.needed.items():
        needed[i] = v
        has_needed[i] = True

    selectors = {key: (by_name(name), field) for key, (name, field) in _SUMS.items()}
    fields = {"calls": np.ones(nid.size), "self": own, "dur": dur, "count": count}

    def group_sums(g):
        out = {key: float(fields[field][g & sel].sum()) for key, (sel, field) in selectors.items()}
        out["trials"] = float(count[g & is_metrics].sum())
        out["metrics_self"] = float(own[g & is_metrics].sum())
        out["metrics_top_dur"] = float(dur[g & top_metrics].sum())
        out["needed"] = float(needed[g & has_needed].sum())
        out["drawn_for_needed"] = float(drawn_in[g & has_needed].sum())
        return out

    setups = [group_sums(pass_id == p) for p in sorted(set(pass_id[pass_id < 0].tolist()))]
    passes = [group_sums(pass_id == p) for p in sorted(set(pass_id[pass_id >= 0].tolist()))]
    c = {}
    for key in passes[0]:
        c[key] = statistics.median(g[key] for g in passes)
        if setups:
            c[key] += statistics.median(g[key] for g in setups)

    ns = 1e-9
    return {
        "metrics.trials": c["trials"],
        "metrics.us_per_trial": c["metrics_top_dur"] * 1e-3 / c["trials"] if c["trials"] else np.nan,
        "metrics.self_s": c["metrics_self"] * ns,
        "metrics.rng_constructions": c["rng_calls"],
        "metrics.rng_setup_s": c["rng_self"] * ns,
        "metrics.draw_efficiency": (
            c["needed"] / c["drawn_for_needed"] if c["drawn_for_needed"] else np.nan
        ),
        "distributions.sample_calls": c["sample_calls"],
        "distributions.samples_drawn": c["samples_drawn"],
        "distributions.sample_s": c["sample_self"] * ns,
        "distributions.llr_calls": c["llr_calls"],
        "distributions.llr_s": c["llr_self"] * ns,
        "distributions.calibration_s": c["calibration_self"] * ns,
        "sequence_model.generate_calls": c["generate_calls"],
        "sequence_model.generate_s": c["generate_self"] * ns,
        "detector.alarm_mask_calls": c["alarm_mask_calls"],
        "detector.samples_decided": c["samples_decided"],
        "detector.alarm_mask_s": c["alarm_mask_self"] * ns,
        "detector.step_calls": c["step_calls"],
        "detector.step_s": c["step_self"] * ns,
        "detector.calibrate_calls": c["calibrate_calls"],
        "detector.calibrate_s": c["calibrate_self"] * ns,
        "harness.sweep_s": c["sweep_dur"] * ns,
        "harness.render_s": c["render_dur"] * ns,
        "cli.self_s": c["cli_self"] * ns,
    }
