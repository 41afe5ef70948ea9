"""The benchmark's traced runs still find the functions they wrap.

``perfbench/spans.py`` rebinds module-level names of
``sensorgrad.experiments`` (the command entry points and the three
writers).  A refactor that inlines a writer or calls an entry point
through a stale reference leaves a span count at zero, which fails the
benchmark; these tests fail first, in the ordinary test run.
"""

import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import RERUN_CASES

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_SPANS = {
    "run": {"experiments.run", "experiments.io"},
    "variance-check": {"experiments.variance_check", "experiments.io"},
    "encode-search": {"experiments.io"},
}


@pytest.mark.parametrize("command", sorted(EXPECTED_SPANS))
def test_traced_child_records_the_experiment_spans(tmp_path, command):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(RERUN_CASES[command][0], encoding="utf-8")
    stats = tmp_path / "stats.marshal"
    env = {k: v for k, v in os.environ.items() if k != "SENSORGRAD_OUT"}
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
    assert EXPECTED_SPANS[command] <= names
