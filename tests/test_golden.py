"""Pinned SHA-256 digests of the output files of small configs.

These digests are the behavioural oracle for refactors: a change that
claims to leave the numbers alone keeps every digest here, and a change
that alters numbers (a new optimizer gradient, a new random-stream
layout) says so and updates the affected digests once.  Floating-point
results can differ in the last digit across BLAS builds, so the digests
hold for one numpy install (recorded with numpy 2.4.6 on x86-64).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensorgrad
from sensorgrad.cli import main
from test_acceptance import RERUN_CASES

# The dart search config cut to 2 runs of 2 steps with a small
# pretraining set; two runs exercise the lockstep batch.
DART_CFG = """\
seed = 20250819
run.environment = dart
run.estimators = ["ignore_sensors", "with_encoding"]
search.initial_policy = [1.6196000000000002, 1.52648, 1.08784, 1.63504, 1.084, 0.48032, 0.45472, 0.12, -0.11943999999999999]
search.trials_per_step = 12
search.exploration_cov = [0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002]
search.steps = 2
search.runs = 2
search.learning_rate = 0.03
search.eval_trials_per_point = 4
search.encoding_dim = 1
search.encode_trials_per_step = 24
search.encode_max_iterations = 10
search.encode_restarts = 2
dart.pretrain_states = 200
"""

GOLDEN = {
    "run": {
        "learning_curve.csv": "849f31df0245ff9cbe2050561366099c199f0e0deb20ca1cab0fdc6a1d6777c2",
        "diagnostics.csv": "575ac350dbfc5932ff658f583bf1b42ba6b5fcbffb3d6f8869e475904e0f437b",
        "config_echo.cfg": "789db86c6071b0b2d2cb614d9fb68c9955a217ebf3c17e80107380731ffdb9a1",
    },
    "variance-check": {
        "variance_report.txt": "024d59a2baf8ebf116d62a9ae78516b26f7575d9e6dedcba6a1ffeb339120bd3",
        "config_echo.cfg": "80d42f00446b01046903404250c6f7cb034bb8c457a6ad63f7583139e3a52d72",
    },
    "encode-search": {
        "projection.csv": "b7731c6a5f6872733b5f93ad1c451ff6da77af600fe61aeee54a28cb30e56fa0",
        "encode_trace.csv": "13a8240e3f3e74479810591a2e7d9acc8336929d83e3aff99943a0bb21e86b22",
        "encode_report.txt": "9e236af0f4f0a6846623ece5afc1a7e9129c80522bf75c650efbc03a339fa1d7",
        "config_echo.cfg": "a4a5cf38d42635811c830d24a94828188d0290761f2152297f49b2687408faa5",
    },
}

# Criterion 11's variance-check world with policy-coupled sensors: the
# sampler's coupled readings and the coupled covariance and bias laws.
COUPLED_CFG = (
    RERUN_CASES["variance-check"][0]
    + "synthetic.policy_sensor_coupling = [[0.6, -0.3], [0.2, 0.5]]\n"
)

COUPLED_GOLDEN = {
    "variance_report.txt": "9f68cd6ed8cad280d5eeb2c84af69534da11a5b49c68860913d6f6a9a5b0cb0b",
    "config_echo.cfg": "a6846e75de9aeed6248e66cd6f08b114859831753cde1c4d115618598ac952e6",
}

# Criterion 11's cannon run swept over two noise scales: both tables gain
# the trailing ``noise_scale`` column.
SWEEP_CFG = RERUN_CASES["run"][0] + "run.noise_scales = [1.0, 2.0]\n"

SWEEP_GOLDEN = {
    "learning_curve.csv": "015439b1e3a4025df68fef161c9fc10af7e97dbc8ac0fc4819833118231b9ea4",
    "diagnostics.csv": "8b263f64f1612994e49eff1826cf582a6171278cb954480fbfb7b96b7599f6b9",
    "config_echo.cfg": "d863c3529010ccc26c43b07af77ca9132805b530f649a64cdb2ed95f95498499",
}

DART_GOLDEN = {
    "learning_curve.csv": "6bf9233f0a80dbe478bf8635e718a1529ad18dcaf87262519d764bd3f8f3a18e",
    "diagnostics.csv": "06a23a19315b6d3dffb5e4a6723ebfc4db435ac0704be0697e5d69ce68ac61ec",
    "config_echo.cfg": "68b25d4b83d0b92dd574dfd5347e2b9900feafbf59cd3b29fc488bc45f9b9195",
}


def _output_digests(tmp_path, command, text, names, *flags):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names
    }


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_small_configs_keep_their_output_digests(tmp_path, command):
    text, _ = RERUN_CASES[command]
    expected = GOLDEN[command]
    assert _output_digests(tmp_path, command, text, expected) == expected


def test_coupled_variance_check_keeps_its_digests(tmp_path):
    digests = _output_digests(tmp_path, "variance-check", COUPLED_CFG, COUPLED_GOLDEN)
    assert digests == COUPLED_GOLDEN


def test_noise_scale_sweep_keeps_its_digests(tmp_path):
    digests = _output_digests(tmp_path, "run", SWEEP_CFG, SWEEP_GOLDEN)
    assert digests == SWEEP_GOLDEN


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tiny_dart_run_keeps_its_digests_at_any_thread_count(tmp_path, threads):
    digests = _output_digests(
        tmp_path, "run", DART_CFG, DART_GOLDEN, "--threads", threads
    )
    assert digests == DART_GOLDEN


def test_tiny_dart_run_keeps_its_digests_on_two_blas_threads(tmp_path):
    # A fresh interpreter: BLAS reads its thread count once, when loaded.
    cfg = tmp_path / "job.cfg"
    cfg.write_text(DART_CFG, encoding="utf-8")
    out = tmp_path / "out"
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sensorgrad.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, "-m", "sensorgrad.cli", "run"]
    argv += ["--config", str(cfg), "--out", str(out)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DART_GOLDEN
    }
    assert digests == DART_GOLDEN
