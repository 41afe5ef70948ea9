"""Record a trajectory point: every workload, end to end and traced.

Usage::

    python3 perfbench/record.py --label NAME

For each workload this makes three untraced runs and two traced runs of
``run.py`` at the default seed, and one untraced run at the
held-out seed.  It prints every end-to-end metric by workload, name and
unit (the median over the untraced default-seed runs).  It checks that
every run passed the correctness gate, that the default-seed runs wrote
identical outputs, that the held-out seed wrote different ones and that
the deterministic counts agree between the traced runs.  It writes
everything to ``perfbench/results/NAME.json`` and exits 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

REPEATS = 3

# Counts that depend only on the config and seed, so two traced runs agree.
DETERMINISTIC_COUNTS = (
    "encoding.loo_cost.calls",
    "seeding.streams",
    "envs.arm.trials",
    "estimators.fits",
    "search.steps",
)


def bench_run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "details": json.loads(lines[-2])}


def record_workload(name: str) -> tuple[dict, list]:
    runs = [bench_run(name, DEFAULT_SEED, 0) for _ in range(REPEATS)]
    traced, retraced = (bench_run(name, DEFAULT_SEED, 1) for _ in range(2))
    held_out = bench_run(name, HELD_OUT_SEED, 0)
    problems = []
    checked = [("run", r) for r in runs]
    checked += [("traced", traced), ("traced", retraced), ("held-out", held_out)]
    for label, entry in checked:
        if not entry["result"]["correct"]:
            problems.append(f"{name} {label}: {entry['details']['problems']}")
    for count in DETERMINISTIC_COUNTS:
        first, second = (t["result"]["metrics"][count]["value"] for t in (traced, retraced))
        if first != second:
            problems.append(f"{name}: {count} read {first} and then {second}")
    digests = {r["details"]["output_sha256"] for r in runs + [traced, retraced]}
    if len(digests) != 1:
        problems.append(f"{name}: default-seed runs wrote different outputs")
    if held_out["details"]["output_sha256"] in digests:
        problems.append(f"{name}: the held-out seed wrote the default seed's outputs")
    metrics = {}
    for metric in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        metrics[metric] = {
            "median": statistics.median(values),
            "values": values,
            "unit": runs[0]["result"]["metrics"][metric]["unit"],
        }
    entry = {
        "end_to_end": metrics,
        "per_layer": {
            metric: value["value"]
            for metric, value in traced["result"]["metrics"].items()
        },
        "default_seed": DEFAULT_SEED,
        "output_sha256": sorted(digests),
        "output_files": runs[0]["details"]["output_files"],
        "held_out_seed": HELD_OUT_SEED,
        "held_out_sha256": held_out["details"]["output_sha256"],
        "held_out_end_to_end": {
            metric: value["value"]
            for metric, value in held_out["result"]["metrics"].items()
        },
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "runs": [r["details"] for r in runs],
        "traced_run": traced["details"],
        "held_out_run": held_out["details"],
    }
    return entry, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    results = {"label": args.label, "repeats": REPEATS}
    problems = []
    for name in WORKLOADS:
        entry, found = record_workload(name)
        results[name] = entry
        problems += found
        for metric, value in entry["end_to_end"].items():
            print(f"{name} {metric} = {value['median']!r} {value['unit']}", flush=True)
    results["machine"] = results[name]["runs"][0]["machine"]
    results["problems"] = problems
    path = BENCH_DIR / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
