"""Self-tests of the benchmark harness; they run no workload.

Run with ``python3 -m pytest perfbench``.
"""

import json
import re
from pathlib import Path

import pytest

import run
from spans import layer_metrics, percentile_with_tail, self_times
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_times_subtract_children_on_their_own_thread_only():
    # Thread 1: root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    # Thread 2: d [2, 9] holds e [3, 5]; d overlaps root in time but is
    # not its child, so it must not reduce root's self time.
    spans = [
        ("root", 1, 0.0, 10.0, 1, False),
        ("a", 1, 1.0, 4.0, 1, False),
        ("b", 1, 2.0, 3.0, 1, False),
        ("c", 1, 5.0, 6.0, 1, False),
        ("d", 2, 2.0, 9.0, 1, False),
        ("e", 2, 3.0, 5.0, 1, False),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 5.0, 2.0]
    # Order of recording must not matter: children finish before parents.
    reordered = [spans[i] for i in (2, 1, 3, 0, 5, 4)]
    assert self_times(reordered) == [1.0, 2.0, 1.0, 6.0, 2.0, 5.0]


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_with_tail(range(1, 100), 0.9) is None
    assert percentile_with_tail(range(1, 101), 0.9) == 90


def test_metric_names_match_the_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(pattern.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    # Every span-derived metric is one the benchmark file declares.
    assert set(layer_metrics([], [])) <= set(run.PER_LAYER_UNITS)
    assert set(run.EXPECTED_NONZERO) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]

    def inputs(seed):
        return workload.config_text(), workload.cli_args("w.cfg", "out", seed)

    assert inputs(DEFAULT_SEED) == inputs(DEFAULT_SEED)
    assert inputs(DEFAULT_SEED) != inputs(HELD_OUT_SEED)
    lines = workload.config_text().splitlines()
    assert not any(line.startswith("seed ") for line in lines)


def test_failed_share_counts_runs_with_an_error_row(tmp_path):
    header = (
        "estimator,run,step,gradient_norm,loo_cost,mean_trial_score,flagged,"
        "retried,eval_mean,eval_std_error,error"
    )
    rows = [
        "ignore_sensors,0,1,0.5,nan,-1.0,0,false,-1.0,0.1,",
        "ignore_sensors,0,2,0.5,nan,-1.0,0,false,-1.0,0.1,",
        "with_sensors,1,1,0.5,nan,-1.0,0,true,-1.0,0.1,",
        "with_sensors,1,2,nan,nan,nan,0,false,nan,nan,rank deficient design",
    ]
    path = tmp_path / "diagnostics.csv"
    path.write_text("# config_hash=abc\n" + header + "\n" + "\n".join(rows) + "\n")
    diagnostics = run.read_diagnostics(path)
    assert run.failed_runs(diagnostics) == 1
    workload = WORKLOADS["cannon_sweep"]
    attempted = workload.operations() + 1
    assert run.failed_share(run.failed_runs(diagnostics), attempted) == 1 / 49
    # The failed step's row draws nothing; the retried step draws twice.
    assert workload.trials(diagnostics) == 3 * (10 + 20) + 10

