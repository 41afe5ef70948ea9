"""The benchmark's traced runs still find the functions they wrap.

``perfbench/spans.py`` rebinds module-level names of
``sensorgrad.experiments`` (the command entry points and the three
writers), of the sampler, estimator and seeding modules that the
variance check runs through, and of the arm, featurization and
projection-search functions of a dart run.  A refactor that inlines a
writer or calls an entry point through a stale reference leaves a span
count at zero, which fails the benchmark; these tests fail first, in
the ordinary test run.
"""

import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import RERUN_CASES
from test_golden import DART_CFG

ROOT = Path(__file__).resolve().parents[1]

# Case name -> (command, config text).
CASES = {command: (command, text) for command, (text, _) in RERUN_CASES.items()}
CASES["dart-run"] = ("run", DART_CFG)

EXPECTED_SPANS = {
    "run": {"experiments.run", "experiments.io"},
    "variance-check": {
        "experiments.variance_check",
        "experiments.io",
        "envs.synthetic",
        "estimators.fit",
        "seeding.substream",
    },
    "encode-search": {
        "experiments.io",
        "encoding.search",
        "encoding.minimize",
        "encoding.loo_cost",
    },
    "dart-run": {
        "experiments.run",
        "envs.arm",
        "dynamics_sensors.pretrain",
        "dynamics_sensors.encode",
        "encoding.search",
        "encoding.minimize",
        "encoding.loo_cost",
    },
}

# Spans whose summed units of work must be positive: the benchmark reads
# ``encoding.search.iterations`` from the ``encoding.minimize`` spans.
NONZERO_UNITS = {
    "encode-search": {"encoding.minimize"},
    "dart-run": {"encoding.minimize"},
}


@pytest.mark.parametrize("case", sorted(EXPECTED_SPANS))
def test_traced_child_records_the_experiment_spans(tmp_path, case):
    command, text = CASES[case]
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text, encoding="utf-8")
    stats = tmp_path / "stats.marshal"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(stats), "1"]
    argv += ["--", command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    result = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    with open(stats, "rb") as handle:
        recorded = marshal.load(handle)
    assert recorded["code"] == 0
    names = {span[0] for span in recorded["spans"]}
    assert EXPECTED_SPANS[case] <= names
    for name in NONZERO_UNITS.get(case, ()):
        assert sum(span[4] for span in recorded["spans"] if span[0] == name) > 0
