"""Pinned SHA-256 digests of the output files of small configs.

These digests are the behavioural oracle for refactors: a change that
claims to leave the numbers alone keeps every digest here, and a change
that alters numbers (a new optimizer gradient, a new random-stream
layout) says so and updates the affected digests once.  Floating-point
results can differ in the last digit across BLAS builds, so the digests
hold for one numpy/scipy install (recorded with numpy 2.4.6 and scipy
1.17.1 on x86-64).
"""

import hashlib

import pytest

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
        "learning_curve.csv": "d1f4336af7afe2976405b25a883d137c0b93a21d953d9ea2af75b09317475d2a",
        "diagnostics.csv": "b93c710c7d652ff55edc8064f78ae4783efeb7f06c2c7f270a33df1fe6eceb53",
        "config_echo.cfg": "789db86c6071b0b2d2cb614d9fb68c9955a217ebf3c17e80107380731ffdb9a1",
    },
    "variance-check": {
        "variance_report.txt": "0a8c0286f7a9f3724a59af6dfedca8c151c9dde8eafcb85a96a3e8f1892f321c",
        "config_echo.cfg": "80d42f00446b01046903404250c6f7cb034bb8c457a6ad63f7583139e3a52d72",
    },
    "encode-search": {
        "projection.csv": "94548aeccd793daab765d308f2dc45f061c14881bba8fbf8df3435959a192f22",
        "encode_trace.csv": "c0b8eb3a3e639e84dffa65a1f2a756157d2590e161426ec17d0857c3b51db5c8",
        "encode_report.txt": "53abd6c57e011bc297f486852a1dce88dc65cf4ad0cdbdbc3138f5bcb8a701e9",
        "config_echo.cfg": "67db15e540a098958f187596704c05b7a72c91cfe264fe3e87463363aa217e86",
    },
}

# Criterion 11's variance-check world with policy-coupled sensors: the
# correlated sampler and the coupled covariance and bias laws.
COUPLED_CFG = (
    RERUN_CASES["variance-check"][0]
    + "synthetic.policy_sensor_coupling = [[0.6, -0.3], [0.2, 0.5]]\n"
)

COUPLED_GOLDEN = {
    "variance_report.txt": "ef48f3c1648b3cf956367c33a11746f26edc846e63b5fac42389a921f2c30204",
    "config_echo.cfg": "a6846e75de9aeed6248e66cd6f08b114859831753cde1c4d115618598ac952e6",
}

# Criterion 11's cannon run swept over two noise scales: both tables gain
# the trailing ``noise_scale`` column.
SWEEP_CFG = RERUN_CASES["run"][0] + "run.noise_scales = [1.0, 2.0]\n"

SWEEP_GOLDEN = {
    "learning_curve.csv": "cece0680bb3215c43b6d9dc3f59699b7959d5031fb28f192dab553cb10ab3ebf",
    "diagnostics.csv": "7c45aeff99018a2cf4a926804a34db0d159e4143003d2ed59260cb2247b363de",
    "config_echo.cfg": "d863c3529010ccc26c43b07af77ca9132805b530f649a64cdb2ed95f95498499",
}

DART_GOLDEN = {
    "learning_curve.csv": "b78719725880b0a65a035355417efee333af505e3ad1a7c7a8ec2be891ac0edf",
    "diagnostics.csv": "3494329f7664780a942fe4026ee4d764d4abd1c8eb7d2d77393e86f15958a942",
    "config_echo.cfg": "68b25d4b83d0b92dd574dfd5347e2b9900feafbf59cd3b29fc488bc45f9b9195",
}


@pytest.fixture(autouse=True)
def clean_out_env(monkeypatch):
    monkeypatch.delenv("SENSORGRAD_OUT", raising=False)


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
