"""Benchmark harness: times sensorgrad CLI invocations on one workload.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each invocation runs ``sensorgrad.cli.main`` in a fresh child process
(``child.py``) on the workload's generated config, with the workload seed
passed as ``--seed``.  The harness repeats invocations for about
``--seconds`` seconds and reports medians.  Every invocation must pass the
output-correctness gate, and all invocations of one run must write the
same bytes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the harness alternates untraced
and traced invocations and reports the per-layer metrics instead.  The
line before it is a JSON object of details: output digests, sample
counts, trial counts, machine stamp and load.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH_DIR))

from spans import arm_ms_per_trial_by_batch, layer_metrics, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# A run must end within 180 s; no invocation starts that could end after this.
HARD_LIMIT_S = 150.0
MIN_UNTRACED = 3
MIN_TRACE_PAIRS = 1

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Metric names the traced run reports, with units.  Ratios whose base is
# zero, and percentiles without ten samples beyond them, read 0.
PER_LAYER_UNITS = {
    "envs.arm.calls": "count",
    "envs.arm.trials": "count",
    "envs.arm.trials_per_call": "trials/call",
    "envs.arm.ms_per_trial": "ms",
    "envs.arm.self_s": "s",
    "dynamics_sensors.pretrain_s": "s",
    "dynamics_sensors.encode_calls": "count",
    "dynamics_sensors.encode_ms_per_trial": "ms",
    "dynamics_sensors.self_s": "s",
    "encoding.loo_cost.calls": "count",
    "encoding.loo_cost.us_per_eval": "us",
    "encoding.loo_cost.rejected": "count",
    "encoding.loo_cost.self_s": "s",
    "encoding.search.calls": "count",
    "encoding.search.s_per_call": "s",
    "encoding.search.iterations": "count",
    "encoding.search.self_s": "s",
    "estimators.fits": "count",
    "estimators.us_per_fit": "us",
    "estimators.self_s": "s",
    "envs.cannon.trials": "count",
    "envs.cannon.us_per_trial": "us",
    "envs.cannon.self_s": "s",
    "envs.synthetic.trials": "count",
    "envs.synthetic.us_per_trial": "us",
    "envs.synthetic.self_s": "s",
    "seeding.streams": "count",
    "seeding.us_per_stream": "us",
    "seeding.self_s": "s",
    "search.steps": "count",
    "search.step_ms.p50": "ms",
    "search.step_ms.p90": "ms",
    "search.retried_steps": "count",
    "search.flagged_trials": "count",
    "search.failed_runs": "count",
    "search.cpu_per_wall": "ratio",
    "search.self_s": "s",
    "search.wait_s": "s",
    "experiments.io_s": "s",
    "experiments.bytes_written": "B",
    "experiments.self_s": "s",
    "cli.start_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.exit_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

# Call counts a traced run must see on each workload.  A zero means a
# wrapper no longer sits where the program calls the function.
EXPECTED_NONZERO = {
    "dart_encode": (
        "envs.arm.calls",
        "dynamics_sensors.pretrain_s",
        "dynamics_sensors.encode_calls",
        "encoding.loo_cost.calls",
        "encoding.search.calls",
        "encoding.search.iterations",
        "estimators.fits",
        "seeding.streams",
        "search.steps",
        "experiments.io_s",
        "cli.import_s",
    ),
    "cannon_sweep": (
        "envs.cannon.trials",
        "estimators.fits",
        "seeding.streams",
        "search.steps",
        "search.cpu_per_wall",
        "experiments.io_s",
        "cli.import_s",
    ),
    "variance_check": (
        "envs.synthetic.trials",
        "estimators.fits",
        "seeding.streams",
        "experiments.io_s",
        "cli.import_s",
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    traced: bool
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    trials: int
    attempted: int
    failed: int
    problems: list
    digest: str
    files: dict
    bytes_written: int
    spans: list
    regions: list
    diagnostics: list


def read_diagnostics(path: Path) -> list[dict]:
    """Rows of a ``diagnostics.csv``, the config-hash line skipped."""
    with open(path, encoding="utf-8", newline="") as handle:
        handle.readline()
        return list(csv.DictReader(handle))


def failed_runs(diagnostics: list[dict]) -> int:
    """Hill-climbing runs that ended in an error row."""
    return len(
        {
            (row["estimator"], row["run"], row.get("noise_scale"))
            for row in diagnostics
            if row["error"]
        }
    )


def failed_share(failed: int, attempted: int) -> float:
    return failed / attempted


def output_digests(out_dir: Path) -> tuple[str, dict, int]:
    """SHA-256 of each output file, one digest over all of them, total bytes."""
    files = {}
    combined = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        data = path.read_bytes()
        size += len(data)
        files[path.name] = hashlib.sha256(data).hexdigest()
        combined.update(f"{path.name} {files[path.name]}\n".encode())
    return combined.hexdigest(), files, size


def check_outputs(workload, out_dir: Path, code: int):
    """Output-correctness gate for one invocation.

    Returns (problems, failed operations, diagnostics rows).  Operations
    are the invocation's hill-climbing runs or its variance check, plus
    the schema check of its output directory.  Missing or unreadable
    outputs fail every operation.
    """
    from sensorgrad.config import ConfigError

    problems = [] if code == 0 else [f"CLI exited with code {code}"]
    try:
        failed, diagnostics = _check_files(workload, out_dir, problems)
    except (OSError, ConfigError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        return problems, workload.operations() + 1, []
    return problems, failed, diagnostics


def _check_files(workload, out_dir: Path, problems: list):
    from sensorgrad.experiments import schema_check

    failed = 0
    lines, schema_ok = schema_check(str(out_dir))
    if not schema_ok:
        failed += 1
        problems.append("schema check: " + "; ".join(lines[1:-1]))
    if workload.subcommand == "variance-check":
        report = (out_dir / "variance_report.txt").read_text(encoding="utf-8")
        if report.splitlines()[-1] != "result: PASS":
            failed += 1
            problems.append("variance check did not report result: PASS")
        return failed, []
    diagnostics = read_diagnostics(out_dir / "diagnostics.csv")
    runs = failed_runs(diagnostics)
    if runs:
        failed += runs
        problems.append(f"{runs} hill-climbing runs ended in an error row")
    with open(out_dir / "learning_curve.csv", encoding="utf-8", newline="") as handle:
        handle.readline()
        completed = {row["runs"] for row in csv.DictReader(handle)}
    if completed != {str(workload.keys["search.runs"])}:
        problems.append(f"learning_curve.csv runs column holds {sorted(completed)}")
    return failed, diagnostics


class Harness:
    """Spawns and gates the invocations of one workload at one seed."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.config_path = work / "workload.cfg"
        self.config_path.write_text(workload.config_text(), encoding="utf-8")
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def invoke(self, traced: bool, timeout: float) -> Invocation:
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        stats_path = self.work / f"stats{self.count}.bin"
        log_path = self.work / f"log{self.count}.txt"
        args = self.workload.cli_args(str(self.config_path), str(out_dir), self.seed)
        command = [
            sys.executable, str(BENCH_DIR / "child.py"), str(stats_path),
            "1" if traced else "0", "--", *args,
        ]
        with open(log_path, "wb") as log:
            spawned = _monotonic()
            child = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            try:
                code = child.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise BenchError(f"invocation {self.count} timed out")
            ended = _monotonic()
        if not stats_path.exists():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"invocation {self.count} wrote no stats:\n{tail}")
        with open(stats_path, "rb") as handle:
            stats = marshal.load(handle)
        spans = stats["spans"]
        if traced:
            # spans[0] is cli.import, which starts at the child's first statement.
            offset = stats["perf_offset"]
            thread, first_statement = spans[0][1], spans[0][2]
            spans.append(
                ("cli.start", thread, spawned - offset, first_statement, 1, False)
            )
            spans.append(
                ("cli.exit", thread, stats["finished"] - offset, ended - offset, 1, False)
            )
        problems, failed, diagnostics = check_outputs(self.workload, out_dir, code)
        digest, files, size = output_digests(out_dir)
        return Invocation(
            traced=traced,
            wall_s=ended - spawned,
            setup_s=stats["imported"] - spawned,
            peak_rss_mb=stats["maxrss_kb"] / 1024.0,
            cpu_s=stats["cpu_s"],
            trials=self.workload.trials(diagnostics),
            attempted=self.workload.operations() + 1,
            failed=failed,
            problems=problems,
            digest=digest,
            files=files,
            bytes_written=size,
            spans=spans,
            regions=stats["regions"],
            diagnostics=diagnostics,
        )


def collect(harness: Harness, seconds: float, trace: bool) -> list[Invocation]:
    """Invocations for about ``seconds``: untraced, or untraced/traced pairs.

    No invocation starts once the typical one would end past the run
    length (after a minimum sample), or past ``HARD_LIMIT_S``.
    """
    pattern = (False, True) if trace else (False,)
    minimum = MIN_TRACE_PAIRS if trace else MIN_UNTRACED
    started = _monotonic()
    invocations = []
    rounds = []
    while True:
        round_start = _monotonic()
        for traced in pattern:
            remaining = HARD_LIMIT_S - (_monotonic() - started)
            invocations.append(harness.invoke(traced, remaining))
        rounds.append(_monotonic() - round_start)
        elapsed = _monotonic() - started
        typical = statistics.median(rounds)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(rounds) >= minimum and elapsed + typical > seconds:
            break
    return invocations


def end_to_end(untraced: list[Invocation]) -> dict:
    wall_s = statistics.median(i.wall_s for i in untraced)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(i.setup_s for i in untraced),
        "trials_per_s": statistics.median(i.trials for i in untraced) / wall_s,
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
    }


def per_layer(untraced: list[Invocation], traced: list[Invocation]) -> dict:
    """Per-layer metrics: medians over the traced invocations."""
    untraced_wall = statistics.median(i.wall_s for i in untraced)
    samples = []
    for invocation in traced:
        metrics = layer_metrics(invocation.spans, invocation.regions)
        rows = invocation.diagnostics
        metrics["search.retried_steps"] = sum(r["retried"] == "true" for r in rows)
        metrics["search.flagged_trials"] = sum(int(r["flagged"]) for r in rows)
        metrics["search.failed_runs"] = failed_runs(rows)
        metrics["experiments.bytes_written"] = invocation.bytes_written
        metrics["trace.overhead_ratio"] = invocation.wall_s / untraced_wall
        metrics["trace.coverage"] = sum(self_times(invocation.spans)) / invocation.wall_s
        samples.append(metrics)
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in PER_LAYER_UNITS
    }


def machine_stamp() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": commit,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Measure one workload; returns (result line, details)."""
    harness = Harness(workload, seed, work)
    load_before = os.getloadavg()[0]
    invocations = collect(harness, seconds, trace)
    load_after = os.getloadavg()[0]
    untraced = [i for i in invocations if not i.traced]
    traced = [i for i in invocations if i.traced]
    problems = [p for i in invocations for p in i.problems]
    digests = sorted({i.digest for i in invocations})
    if len(digests) > 1:
        problems.append(f"invocations wrote different outputs: {digests}")
    if trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
        missing = [n for n in EXPECTED_NONZERO[workload.name] if not metrics[n]]
        if missing:
            problems.append(f"traced run measured no calls for {missing}")
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
    nproc = os.cpu_count() or 1
    result_attempted = sum(i.attempted for i in invocations)
    result_failed = sum(i.failed for i in invocations)
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "invocations": {"untraced": len(untraced), "traced": len(traced)},
        "trials_per_invocation": untraced[0].trials,
        "wall_s": [i.wall_s for i in untraced],
        "traced_wall_s": [i.wall_s for i in traced],
        "cpu_s": [i.cpu_s for i in untraced],
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "output_files": invocations[0].files,
        "problems": problems,
        "failed_share": failed_share(result_failed, result_attempted),
        "load_1min": {"before": load_before, "after": load_after},
        "loaded": max(load_before, load_after) > nproc,
        "machine": machine_stamp(),
    }
    if trace:
        details["arm_ms_per_trial_by_batch"] = [
            arm_ms_per_trial_by_batch(i.spans) for i in traced
        ]
    result = {
        "correct": not problems,
        "attempted": result_attempted,
        "failed": result_failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sensorgrad" / "cli.py").is_file():
        print(f"error: no sensorgrad sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        check=True, timeout=120,
    )
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, details = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(details))
    print(json.dumps(result))
    if result["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
