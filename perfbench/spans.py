"""Span tracer for the benchmark's traced runs.

The tracer measures sensorgrad from outside the package.  Each target in
``TARGETS`` is replaced by a timing wrapper at every name it is bound to:
the defining module, every ``sensorgrad`` module that imported it with
``from x import y``, and the class attribute for methods.  The benchmark
fails a traced run whose expected call counts come out zero, so a renamed
or re-imported function shows as a failure rather than as a silently
missing measurement.

Spans are kept in memory as ``(name, thread, start, end, units, failed)``
tuples and reduced to per-layer metrics after the run.  ``units`` counts
the work one call did (trials, streams, optimizer iterations), and
``failed`` marks a call that raised.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import threading
import time
from collections import defaultdict


def _one(result) -> int:
    return 1


def _length(result) -> int:
    return len(result)


def _batch_size(result) -> int:
    return result.size


def _iterations(result) -> int:
    return int(result.nit)


# (module, attribute or Class.method, span name, units of work per call).
# ``LAYER_OF`` maps each span name to the layer its self time counts for.
TARGETS = (
    ("sensorgrad.envs.arm", "dart_trials", "envs.arm", _length),
    ("sensorgrad.envs.arm", "dart_trial", "envs.arm", _one),
    ("sensorgrad.envs.cannon", "CannonEnv.sample_trials", "envs.cannon", _length),
    ("sensorgrad.envs.synthetic", "SyntheticEnv.sample_trials", "envs.synthetic", _length),
    ("sensorgrad.dynamics_sensors", "sample_pretraining_states", "dynamics_sensors.pretrain", _one),
    ("sensorgrad.dynamics_sensors", "fit_dynamics_model", "dynamics_sensors.pretrain", _one),
    ("sensorgrad.dynamics_sensors", "encode_dart_batch", "dynamics_sensors.encode", _batch_size),
    ("sensorgrad.encoding", "loo_cost", "encoding.loo_cost", _one),
    ("sensorgrad.encoding", "optimize_projection", "encoding.search", _one),
    ("sensorgrad.encoding", "minimize", "encoding.minimize", _iterations),
    ("sensorgrad.encoding", "estimate_gradient_encoded", "encoding.encoded_fit", _one),
    ("sensorgrad.estimators", "estimate_g1", "estimators.fit", _one),
    ("sensorgrad.estimators", "estimate_g2", "estimators.fit", _one),
    ("sensorgrad.linreg", "ols", "estimators.ols", _one),
    ("sensorgrad.seeding", "substream", "seeding.substream", _one),
    ("sensorgrad.seeding", "children", "seeding.children", _length),
    ("sensorgrad.search", "hill_climb_step", "search.step", _one),
    ("sensorgrad.search", "evaluate_policy", "search.evaluate", _one),
    ("sensorgrad.search", "sample_exploration_policies", "search.explore", _one),
    ("sensorgrad.search", "run_learning_curve", "search.curve", _one),
    ("sensorgrad.experiments", "run_experiment", "experiments.run", _one),
    ("sensorgrad.experiments", "variance_check_experiment", "experiments.variance_check", _one),
    ("sensorgrad.experiments", "prepare_out_dir", "experiments.io", _one),
    ("sensorgrad.experiments", "write_csv", "experiments.io", _one),
    ("sensorgrad.experiments", "write_text", "experiments.io", _one),
)

# Regions record wall and process CPU time (all threads) of a call, for
# ``search.cpu_per_wall``; they take no part in self-time accounting.
REGION_TARGETS = (("sensorgrad.search", "run_learning_curve"),)

# Span name -> layer whose self time it counts towards.  The child
# process records ``cli``, the root span around ``sensorgrad.cli.main``,
# and ``cli.import``, from its first statement to the CLI module being
# imported.  The parent adds ``cli.start``, from the spawn to the child's
# first statement, and ``cli.exit``, from ``main`` returning to the
# process exit (the trace being written, then interpreter teardown).
LAYER_OF = {
    "envs.arm": "envs.arm",
    "envs.cannon": "envs.cannon",
    "envs.synthetic": "envs.synthetic",
    "dynamics_sensors.pretrain": "dynamics_sensors",
    "dynamics_sensors.encode": "dynamics_sensors",
    "encoding.loo_cost": "encoding.loo_cost",
    "encoding.search": "encoding.search",
    "encoding.minimize": "encoding.search",
    "encoding.encoded_fit": "encoding.search",
    "estimators.fit": "estimators",
    "estimators.ols": "estimators",
    "seeding.substream": "seeding",
    "seeding.children": "seeding",
    "search.step": "search",
    "search.evaluate": "search",
    "search.explore": "search",
    # With a thread pool, run_learning_curve's own time on the main thread
    # is the wait for its workers; without one, only its loop overhead.
    "search.curve": "search.wait",
    "experiments.run": "experiments",
    "experiments.variance_check": "experiments",
    "experiments.io": "experiments",
    "cli": "cli",
    "cli.import": "cli.import",
    "cli.start": "cli.start",
    "cli.exit": "cli.exit",
}


class Tracer:
    """Collects spans from wrapped functions, from any thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.regions: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span counting one unit of work."""
        return self._wrapper(fn, name, _one)(*args, **kwargs)

    def _wrapper(self, fn, name: str, units):
        spans = self.spans
        clock = time.perf_counter
        thread = threading.get_native_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, thread(), start, clock(), 0, True))
                raise
            end = clock()
            spans.append((name, thread(), start, end, units(result), False))
            return result

        return wrapper

    def _region(self, fn):
        regions = self.regions
        clock = time.perf_counter
        cpu = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu_start, start = cpu(), clock()
            try:
                return fn(*args, **kwargs)
            finally:
                regions.append((clock() - start, cpu() - cpu_start))

        return wrapper

    def install(self) -> None:
        """Wrap every target at every name it is bound to.

        Call after ``sensorgrad.cli`` is imported, so every module that
        imports a target by name is loaded.
        """
        for module_name, attr, name, units in TARGETS:
            _rebind(module_name, attr, lambda fn: self._wrapper(fn, name, units))
        for module_name, attr in REGION_TARGETS:
            _rebind(module_name, attr, self._region)


def _rebind(module_name: str, attr: str, make_wrapper) -> None:
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        owner = getattr(module, class_name)
        setattr(owner, method, make_wrapper(vars(owner)[method]))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or loaded_name.split(".")[0] != "sensorgrad":
            continue
        namespace = vars(loaded)
        for key in [k for k, v in namespace.items() if v is original]:
            namespace[key] = wrapper


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Spans of one thread nest like the calls that made them, so a span's
    children are the spans that start inside it on the same thread and
    are not inside a deeper child.  Spans on other threads never count
    against each other.
    """
    result = [span[3] - span[2] for span in spans]
    by_thread = defaultdict(list)
    for index, span in enumerate(spans):
        by_thread[span[1]].append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        open_spans: list[int] = []
        for index in indices:
            start, end = spans[index][2], spans[index][3]
            while open_spans and spans[open_spans[-1]][3] <= start:
                open_spans.pop()
            if open_spans:
                result[open_spans[-1]] -= end - start
            open_spans.append(index)
    return result


def percentile_with_tail(values, fraction: float, tail: int = 10):
    """Nearest-rank percentile, or None when fewer than ``tail`` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if not ordered or len(ordered) - rank < tail:
        return None
    return ordered[max(rank - 1, 0)]


def layer_metrics(spans, regions) -> dict:
    """Per-layer metrics computed from one traced run's spans.

    A ratio whose base is zero (a layer that did not run) is reported
    as 0.0, as is a percentile the sample cannot support.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    units = defaultdict(int)
    failed = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    step_ms = []
    for span, self_time in zip(spans, own):
        name = span[0]
        calls[name] += 1
        units[name] += span[4]
        failed[name] += span[5]
        busy[name] += span[3] - span[2]
        self_s[LAYER_OF[name]] += self_time
        if name == "search.step":
            step_ms.append((span[3] - span[2]) * 1e3)

    def ratio(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    streams = units["seeding.substream"] + units["seeding.children"]
    fits = calls["estimators.fit"]
    region_wall = sum(r[0] for r in regions)
    p90 = percentile_with_tail(step_ms, 0.9)
    return {
        "envs.arm.calls": calls["envs.arm"],
        "envs.arm.trials": units["envs.arm"],
        "envs.arm.trials_per_call": ratio(units["envs.arm"], calls["envs.arm"]),
        "envs.arm.ms_per_trial": ratio(busy["envs.arm"], units["envs.arm"], 1e3),
        "envs.arm.self_s": self_s["envs.arm"],
        "dynamics_sensors.pretrain_s": busy["dynamics_sensors.pretrain"],
        "dynamics_sensors.encode_calls": calls["dynamics_sensors.encode"],
        "dynamics_sensors.encode_ms_per_trial": ratio(
            busy["dynamics_sensors.encode"], units["dynamics_sensors.encode"], 1e3
        ),
        "dynamics_sensors.self_s": self_s["dynamics_sensors"],
        "encoding.loo_cost.calls": calls["encoding.loo_cost"],
        "encoding.loo_cost.us_per_eval": ratio(
            busy["encoding.loo_cost"], calls["encoding.loo_cost"], 1e6
        ),
        "encoding.loo_cost.rejected": failed["encoding.loo_cost"],
        "encoding.loo_cost.self_s": self_s["encoding.loo_cost"],
        "encoding.search.calls": calls["encoding.search"],
        "encoding.search.s_per_call": ratio(
            busy["encoding.search"], calls["encoding.search"]
        ),
        "encoding.search.iterations": units["encoding.minimize"],
        "encoding.search.self_s": self_s["encoding.search"],
        "estimators.fits": fits,
        "estimators.us_per_fit": ratio(busy["estimators.fit"], fits, 1e6),
        "estimators.self_s": self_s["estimators"],
        "envs.cannon.trials": units["envs.cannon"],
        "envs.cannon.us_per_trial": ratio(
            busy["envs.cannon"], units["envs.cannon"], 1e6
        ),
        "envs.cannon.self_s": self_s["envs.cannon"],
        "envs.synthetic.trials": units["envs.synthetic"],
        "envs.synthetic.us_per_trial": ratio(
            busy["envs.synthetic"], units["envs.synthetic"], 1e6
        ),
        "envs.synthetic.self_s": self_s["envs.synthetic"],
        "seeding.streams": streams,
        "seeding.us_per_stream": ratio(
            busy["seeding.substream"] + busy["seeding.children"], streams, 1e6
        ),
        "seeding.self_s": self_s["seeding"],
        "search.steps": calls["search.step"],
        "search.step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
        "search.step_ms.p90": 0.0 if p90 is None else p90,
        "search.cpu_per_wall": ratio(sum(r[1] for r in regions), region_wall),
        "search.self_s": self_s["search"],
        "search.wait_s": self_s["search.wait"],
        "experiments.io_s": busy["experiments.io"],
        "experiments.self_s": self_s["experiments"],
        "cli.start_s": busy["cli.start"],
        "cli.import_s": busy["cli.import"],
        "cli.self_s": self_s["cli"],
        "cli.exit_s": busy["cli.exit"],
    }


def arm_ms_per_trial_by_batch(spans) -> dict:
    """Arm integrator time per trial, by the number of trials per call."""
    busy = defaultdict(float)
    trials = defaultdict(int)
    for span in spans:
        if span[0] == "envs.arm" and span[4]:
            busy[span[4]] += span[3] - span[2]
            trials[span[4]] += span[4]
    return {batch: busy[batch] / trials[batch] * 1e3 for batch in sorted(busy)}
