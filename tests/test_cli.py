"""Command line behavior: exit codes, output files, determinism."""

import ast
import copy
import csv
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sensorgrad
from sensorgrad import experiments, search
from sensorgrad.experiments import DIAGNOSTICS, LEARNING_CURVE
from sensorgrad.cli import main
from sensorgrad.config import Config, canonical_text, load_config
from sensorgrad.dynamics_sensors import DartEnv
from sensorgrad.envs.cannon import CannonEnv
from sensorgrad.envs.synthetic import SyntheticEnv
from test_golden import DART_CFG

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RUN_CFG = """\
seed = 7
run.environment = cannon
run.estimators = ["ignore_sensors", "with_sensors"]
cannon.control_noise_diag = [1.0, 4.0]
search.initial_policy = [16.0, 0.7853981633974483]
search.trials_per_step = 8
search.exploration_cov = [0.25, 0.0025]
search.steps = 2
search.runs = 2
search.learning_rate = 0.1
search.step_rule = "normalized"
search.eval_trials_per_point = 4
"""

VARIANCE_CFG = """\
seed = 11
synthetic.true_gradient = [1.5, -0.7]
synthetic.sensor_slope = [0.8, -1.2]
synthetic.output_variance = 0.09
synthetic.sensor_cov = [[0.2, -0.05], [-0.05, 0.4]]
synthetic.exploration_cov = [[0.5, 0.1], [0.1, 0.3]]
variance.trials_per_batch = 12
variance.replications = 2000
"""

ENCODE_CFG = """\
seed = 5
encode.raw_dim = 8
encode.samples = 40
encode.target_dim = 1
encode.policy_dim = 2
encode.max_iterations = 25
encode.min_cosine = 0.9
"""

RUN_FILES = ("learning_curve.csv", "diagnostics.csv", "config_echo.cfg")


def write_cfg(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_writes_the_documented_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("config hash ")
    assert stdout.count("wrote ") == 3
    for name in RUN_FILES:
        assert (out / name).exists()
    curve_lines = (out / "learning_curve.csv").read_text().splitlines()
    assert curve_lines[0].startswith("# config_hash=")
    assert curve_lines[1] == "step,estimator,mean_value,std_error,runs"
    assert len(curve_lines) == 2 + 2 * 2
    diag_lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(diag_lines) == 2 + 2 * 2 * 2


def test_reruns_and_thread_counts_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    first, second, third = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    assert main(["run", "--config", cfg, "--out", str(second)]) == 0
    assert (
        main(["run", "--config", cfg, "--out", str(third), "--threads", "3"]) == 0
    )
    for name in RUN_FILES:
        reference = (first / name).read_bytes()
        assert (second / name).read_bytes() == reference
        assert (third / name).read_bytes() == reference


def test_seed_flag_overrides_the_config_seed(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    base, other = tmp_path / "base", tmp_path / "other"
    assert main(["run", "--config", cfg, "--out", str(base)]) == 0
    assert main(["run", "--config", cfg, "--out", str(other), "--seed", "99"]) == 0
    assert "seed = 99" in (other / "config_echo.cfg").read_text()
    assert (
        (base / "learning_curve.csv").read_bytes()
        != (other / "learning_curve.csv").read_bytes()
    )


ENCODING_RUN_CFG = RUN_CFG.replace(
    '["ignore_sensors", "with_sensors"]', '["with_encoding"]'
) + "search.encode_trials_per_step = 8\n"


def test_a_search_batch_too_small_for_any_projection_names_the_cause(tmp_path):
    # 3 trials cannot fit a leave-one-out regression on 2 policy
    # coordinates and 1 projected sensor, whatever the projection.
    text = ENCODING_RUN_CFG.replace("encode_trials_per_step = 8", "encode_trials_per_step = 3")
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:]))
    assert {row["run"] for row in rows} == {"0", "1"}
    for row in rows:
        assert row["error"] == (
            "insufficient samples: n=3 < d+d_s+3=6 for leave-one-out fits"
        )


SENSOR_COV = "[[0.2, -0.05], [-0.05, 0.4]]"

# (command, config text, text the error must hold): each must exit 2
# before any trial, pretraining, replication or search runs.
BAD_SETTING_CASES = {
    "run-singular-cov": (
        "run",
        RUN_CFG.replace("[0.25, 0.0025]", "[0.25, 0.0]"),
        "key 'search.exploration_cov' must be positive definite",
    ),
    "run-cov-three-entries": (
        "run",
        RUN_CFG.replace("[0.25, 0.0025]", "[0.25, 0.0025, 0.01]"),
        "key 'search.exploration_cov' must be 2 x 2",
    ),
    "run-asymmetric-cov": (
        "run",
        RUN_CFG.replace("[0.25, 0.0025]", "[[0.25, 0.01], [0.0, 0.0025]]"),
        "key 'search.exploration_cov' must be symmetric",
    ),
    "variance-check-singular-cov": (
        "variance-check",
        VARIANCE_CFG.replace("[[0.5, 0.1], [0.1, 0.3]]", "[[0.5, 0.5], [0.5, 0.5]]"),
        "key 'synthetic.exploration_cov' must be positive definite",
    ),
    "dart-unknown-key": (
        "run",
        DART_CFG + "dart.pretrain_state = 200\n",
        "unknown key 'dart.pretrain_state'",
    ),
    "cannon-run-dart-key": (
        "run",
        RUN_CFG + "dart.pretrain_states = 2000\n",
        "unknown key 'dart.pretrain_states'",
    ),
    "dart-run-cannon-key": (
        "run",
        DART_CFG + "cannon.control_noise_diag = [1.0, 4.0]\n",
        "unknown key 'cannon.control_noise_diag'",
    ),
    "cannon-encode-restarts": (
        "run",
        ENCODING_RUN_CFG + "search.encode_restarts = 0\n",
        "key 'search.encode_restarts' must be at least 1",
    ),
    "cannon-encode-max-iterations": (
        "run",
        ENCODING_RUN_CFG + "search.encode_max_iterations = -1\n",
        "key 'search.encode_max_iterations' must be nonnegative",
    ),
    "run-steps": (
        "run",
        RUN_CFG.replace("search.steps = 2", "search.steps = -1"),
        "key 'search.steps' must be nonnegative",
    ),
    "run-runs": (
        "run",
        RUN_CFG.replace("search.runs = 2", "search.runs = 0"),
        "key 'search.runs' must be positive",
    ),
    "cannon-smoke-encode-key-without-encoding": (
        "run",
        (CONFIG_DIR / "cannon_smoke.cfg").read_text() + "search.encode_restarts = 3\n",
        "unknown key 'search.encode_restarts'",
    ),
    "dart-encode-restarts": (
        "run",
        DART_CFG.replace("search.encode_restarts = 2", "search.encode_restarts = 0"),
        "key 'search.encode_restarts' must be at least 1",
    ),
    "encode-restarts": (
        "encode-search",
        ENCODE_CFG + "encode.restarts = 2\n",
        "unknown key 'encode.restarts'",
    ),
    "encode-max-iterations": (
        "encode-search",
        ENCODE_CFG.replace("encode.max_iterations = 25", "encode.max_iterations = -1"),
        "key 'encode.max_iterations' must be nonnegative",
    ),
    "encode-samples": (
        "encode-search",
        ENCODE_CFG.replace("encode.samples = 40", "encode.samples = 5"),
        "key 'encode.samples' must be at least",
    ),
    "encode-target-dim-0": (
        "encode-search",
        ENCODE_CFG.replace("encode.target_dim = 1", "encode.target_dim = 0"),
        "key 'encode.target_dim' must lie in [1, raw_dim]",
    ),
    "encode-target-dim-above-raw-dim": (
        "encode-search",
        ENCODE_CFG.replace("encode.target_dim = 1", "encode.target_dim = 9"),
        "key 'encode.target_dim' must lie in [1, raw_dim]",
    ),
    "variance-sensor-cov-not-psd": (
        "variance-check",
        VARIANCE_CFG.replace(SENSOR_COV, "[[-0.2, 0.0], [0.0, 0.4]]"),
        "key 'synthetic.sensor_cov' must be positive definite",
    ),
    # A sensor direction without variance can never be fitted by g2.
    "variance-singular-sensor-cov": (
        "variance-check",
        VARIANCE_CFG.replace(SENSOR_COV, "[[0.2, 0.0], [0.0, 0.0]]"),
        "key 'synthetic.sensor_cov' must be positive definite",
    ),
    "variance-coupled-singular-sensor-cov": (
        "variance-check",
        VARIANCE_CFG.replace(SENSOR_COV, "[[0.2, 0.0], [0.0, 0.0]]")
        + "synthetic.policy_sensor_coupling = [[0.6, -0.3], [0.2, 0.5]]\n",
        "key 'synthetic.sensor_cov' must be positive definite",
    ),
    "variance-sensor-cov-asymmetric": (
        "variance-check",
        VARIANCE_CFG.replace(SENSOR_COV, "[[0.2, -0.05], [0.05, 0.4]]"),
        "key 'synthetic.sensor_cov' must be symmetric",
    ),
    "variance-negative-output-variance": (
        "variance-check",
        VARIANCE_CFG.replace("output_variance = 0.09", "output_variance = -0.09"),
        "key 'synthetic.output_variance' must be nonnegative",
    ),
    "variance-sensor-slope-longer-than-sensor-cov": (
        "variance-check",
        VARIANCE_CFG.replace("[0.8, -1.2]", "[0.8, -1.2, 0.5]"),
        "key 'synthetic.sensor_cov' must be 3 x 3",
    ),
    "variance-coupling-one-row": (
        "variance-check",
        VARIANCE_CFG + "synthetic.policy_sensor_coupling = [[0.6, -0.3]]\n",
        "key 'synthetic.policy_sensor_coupling' must be 2 x 2",
    ),
    "run-infinite-learning-rate": (
        "run",
        RUN_CFG.replace("learning_rate = 0.1", "learning_rate = 1e999"),
        ":10: value for 'search.learning_rate' holds a non-finite number: '1e999'",
    ),
    "variance-batch-5": (
        "variance-check",
        VARIANCE_CFG.replace("trials_per_batch = 12", "trials_per_batch = 5"),
        "key 'variance.trials_per_batch' must be at least",
    ),
    "variance-batch-0": (
        "variance-check",
        VARIANCE_CFG.replace("trials_per_batch = 12", "trials_per_batch = 0"),
        "key 'variance.trials_per_batch' must be at least",
    ),
    "run-negative-seed": (
        "run",
        RUN_CFG.replace("seed = 7", "seed = -1"),
        "key 'seed' must be nonnegative",
    ),
    "variance-negative-seed": (
        "variance-check",
        VARIANCE_CFG.replace("seed = 11", "seed = -1"),
        "key 'seed' must be nonnegative",
    ),
    "encode-negative-seed": (
        "encode-search",
        ENCODE_CFG.replace("seed = 5", "seed = -1"),
        "key 'seed' must be nonnegative",
    ),
    "cannon-negative-noise-scale": (
        "run",
        RUN_CFG + "run.noise_scales = [1.0, -2.0]\n",
        "key 'run.noise_scales' entries must be nonnegative",
    ),
    "cannon-negative-control-noise": (
        "run",
        RUN_CFG.replace("[1.0, 4.0]", "[1.0, -4.0]"),
        "key 'cannon.control_noise_diag' entries must be nonnegative",
    ),
    "cannon-repeated-noise-scale": (
        "run",
        RUN_CFG + "run.noise_scales = [1.0, 1.0]\n",
        "key 'run.noise_scales' repeats an entry",
    ),
    "run-repeated-estimator": (
        "run",
        RUN_CFG.replace(
            '["ignore_sensors", "with_sensors"]', '["with_sensors", "with_sensors"]'
        ),
        "key 'run.estimators' repeats an entry",
    ),
    "dart-pretrain-states": (
        "run",
        DART_CFG.replace("dart.pretrain_states = 200", "dart.pretrain_states = 29"),
        "key 'dart.pretrain_states' must be at least 30",
    ),
    "dart-pretrain-policy-cov": (
        "run",
        DART_CFG + "dart.pretrain_policy_cov = -0.01\n",
        "key 'dart.pretrain_policy_cov' must be nonnegative",
    ),
    "cannon-policy-length": (
        "run",
        RUN_CFG.replace("0.7853981633974483]", "0.7853981633974483, 1.0]").replace(
            "[0.25, 0.0025]", "[0.25, 0.0025, 0.01]"
        ),
        "key 'search.initial_policy' must have 2 entries for the cannon environment",
    ),
    "dart-initial-policy-width": (
        "run",
        DART_CFG.replace(", -0.11943999999999999]", "]").replace(
            "0.002, 0.002]", "0.002]"
        ),
        "key 'search.initial_policy' must have 9 entries for the dart environment",
    ),
    "cannon-encoding-dim": (
        "run",
        ENCODING_RUN_CFG + "search.encoding_dim = 3\n",
        "key 'search.encoding_dim' must be at most 2",
    ),
    "dart-encoding-dim": (
        "run",
        DART_CFG.replace("search.encoding_dim = 1", "search.encoding_dim = 11"),
        "key 'search.encoding_dim' must be at most 10",
    ),
    "run-output-dir": (
        "run",
        RUN_CFG + 'output.dir = "elsewhere"\n',
        "unknown key 'output.dir'",
    ),
    # A world with no policy coordinate would pass the check vacuously.
    "variance-empty-true-gradient": (
        "variance-check",
        VARIANCE_CFG.replace("[1.5, -0.7]", "[]").replace(
            "[[0.5, 0.1], [0.1, 0.3]]", "[]"
        ),
        "key 'synthetic.true_gradient' must be nonempty",
    ),
    "encode-raw-dim-0": (
        "encode-search",
        ENCODE_CFG.replace("encode.raw_dim = 8", "encode.raw_dim = 0"),
        "key 'encode.raw_dim' must be positive",
    ),
    "encode-policy-dim-0": (
        "encode-search",
        ENCODE_CFG.replace("encode.policy_dim = 2", "encode.policy_dim = 0"),
        "key 'encode.policy_dim' must be positive",
    ),
    "run-learning-rate-0": (
        "run",
        RUN_CFG.replace("learning_rate = 0.1", "learning_rate = 0"),
        "key 'search.learning_rate' must be positive",
    ),
    "run-step-rule": (
        "run",
        RUN_CFG.replace('"normalized"', "adam"),
        "key 'search.step_rule' must be one of normalized, fixed_rate, got 'adam'",
    ),
    "run-unknown-estimator": (
        "run",
        RUN_CFG.replace('"with_sensors"]', '"scores_only"]'),
        "key 'run.estimators' entries must be one of ignore_sensors, with_sensors, "
        "with_encoding, got 'scores_only'",
    ),
    "run-environment": (
        "run",
        RUN_CFG.replace("environment = cannon", "environment = moon"),
        "key 'run.environment' must be one of cannon, dart, got 'moon'",
    ),
    "run-trials-per-step": (
        "run",
        RUN_CFG.replace("trials_per_step = 8", "trials_per_step = 0"),
        "key 'search.trials_per_step' must be positive",
    ),
    "run-eval-trials-per-point": (
        "run",
        RUN_CFG.replace("eval_trials_per_point = 4", "eval_trials_per_point = 0"),
        "key 'search.eval_trials_per_point' must be positive",
    ),
    "cannon-encode-trials-per-step": (
        "run",
        ENCODING_RUN_CFG.replace("encode_trials_per_step = 8", "encode_trials_per_step = -1"),
        "key 'search.encode_trials_per_step' must be positive",
    ),
    # The projection search always runs on its own batch.
    "cannon-encode-trials-per-step-zero": (
        "run",
        ENCODING_RUN_CFG.replace("encode_trials_per_step = 8", "encode_trials_per_step = 0"),
        "key 'search.encode_trials_per_step' must be positive",
    ),
    "cannon-encode-trials-per-step-missing": (
        "run",
        ENCODING_RUN_CFG.replace("search.encode_trials_per_step = 8\n", ""),
        "missing required key 'search.encode_trials_per_step'",
    ),
    "variance-replications": (
        "variance-check",
        VARIANCE_CFG.replace("replications = 2000", "replications = 1"),
        "key 'variance.replications' must be at least 2",
    ),
    # Integers beyond the float range parse (a seed may be one), but no
    # float reader takes them.
    "run-learning-rate-beyond-float-range": (
        "run",
        RUN_CFG.replace("learning_rate = 0.1", f"learning_rate = {10**400}"),
        "key 'search.learning_rate' holds an integer beyond the float range",
    ),
    "variance-true-gradient-entry-beyond-float-range": (
        "variance-check",
        VARIANCE_CFG.replace("[1.5, -0.7]", f"[1.5, {-(10**400)}]"),
        "key 'synthetic.true_gradient' holds an integer beyond the float range",
    ),
    "variance-exploration-cov-entry-beyond-float-range": (
        "variance-check",
        VARIANCE_CFG.replace("0.3]]", f"{10**400}]]"),
        "key 'synthetic.exploration_cov' holds an integer beyond the float range",
    ),
    "cannon-noise-beyond-float-range": (
        "run",
        RUN_CFG.replace("[1.0, 4.0]", f"[{10**400}, 4.0]"),
        "key 'cannon.control_noise_diag' holds an integer beyond the float range",
    ),
    # Python reads no integer literal over 4,300 digits.
    "run-over-long-seed": (
        "run",
        RUN_CFG.replace("seed = 7", "seed = 1" + "0" * 5000),
        ":1: value for 'seed' is too large to read (Exceeds the limit",
    ),
    "variance-over-long-replications": (
        "variance-check",
        VARIANCE_CFG.replace("replications = 2000", "replications = 1" + "0" * 5000),
        ":8: value for 'variance.replications' is too large to read (Exceeds",
    ),
}

# The task constants of the cannon and the arm are the world defaults:
# their old keys, set here to those defaults, are unknown in the run of
# their own environment.
REMOVED_WORLD_KEYS = {
    "cannon.sensor_noise_diag": "[0.01, 0.04]",
    "cannon.gravity": "9.8",
    "cannon.target_range": "40.816326530612244",
    "dart.kp": "[300.0, 70.0, 3.3]",
    "dart.kd": "[14.0, 3.2, 0.15]",
    "dart.torque_mult_std": "[0.2, 0.2, 0.2]",
    "dart.torque_add_std": "[0.5, 0.5, 0.5]",
    "dart.release_time_std": "0.01",
    "dart.start_posture": "[1.9, 2.0, 0.6]",
    "dart.target_position": "[2.44, 0.0]",
}
for key, value in REMOVED_WORLD_KEYS.items():
    base = RUN_CFG if key.startswith("cannon.") else DART_CFG
    BAD_SETTING_CASES[f"removed-{key}"] = (
        "run",
        base + f"{key} = {value}\n",
        f"unknown key '{key}'",
    )

# encode-search always plants one direction, at fixed slope and noise:
# the keys that set them, at the values they held, are unknown.
REMOVED_ENCODE_KEYS = {
    "encode.signal_scale": "2.0",
    "encode.noise_std": "0.1",
    "encode.planted": "true",
}
for key, value in REMOVED_ENCODE_KEYS.items():
    BAD_SETTING_CASES[f"removed-{key}"] = (
        "encode-search",
        ENCODE_CFG + f"{key} = {value}\n",
        f"unknown key '{key}'",
    )


@pytest.fixture
def no_work(monkeypatch):
    """Make every trial sampler, the dart pretraining and the projection
    search raise, where the commands bind them: work that runs ends the
    command with exit 3, not 2."""

    def work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for env in (CannonEnv, DartEnv, SyntheticEnv):
        monkeypatch.setattr(env, "sample_trials", work)
    monkeypatch.setattr(experiments, "sample_pretraining_states", work)
    for module in (experiments, search):
        monkeypatch.setattr(module, "optimize_projection", work)


@pytest.mark.parametrize("case", list(BAD_SETTING_CASES))
def test_a_bad_setting_is_a_config_error_before_any_work(
    tmp_path, capsys, no_work, case
):
    command, text, message = BAD_SETTING_CASES[case]
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def _out_holding_another_configs_file(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "learning_curve.csv").write_text("# config_hash=" + "0" * 64 + "\n")
    return out, "holds files from a different config"


def _out_that_is_a_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    return out, "unusable output directory"


def _empty_out(tmp_path):
    return "", "unusable output directory"


def _out_holding_a_directory_named_like_an_output(tmp_path):
    out = tmp_path / "out"
    (out / "learning_curve.csv").mkdir(parents=True)
    return out, "learning_curve.csv exists and is not a file"


@pytest.mark.parametrize(
    "make_out",
    [
        _out_holding_another_configs_file,
        _out_that_is_a_file,
        _empty_out,
        _out_holding_a_directory_named_like_an_output,
    ],
    ids=["other-config", "file", "empty", "output-name-directory"],
)
def test_an_unusable_output_directory_is_a_config_error_before_any_work(
    tmp_path, capsys, no_work, make_out
):
    out, message = make_out(tmp_path)
    cfg = write_cfg(tmp_path, DART_CFG)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [("run", RUN_CFG), ("variance-check", VARIANCE_CFG), ("encode-search", ENCODE_CFG)],
    ids=["run", "variance-check", "encode-search"],
)
def test_a_negative_seed_flag_is_a_config_error_before_any_work(
    tmp_path, capsys, no_work, command, text
):
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out, "--seed", "-1"]) == 2
    assert "key 'seed' must be nonnegative" in capsys.readouterr().err


class _Checked(BaseException):
    """Raised in place of the work once a config passes the key check."""


@pytest.fixture
def stop_at_key_check(monkeypatch, no_work):
    """Stop a command once its config passes the key check; returns the
    list that gets the keys read from each config that passed."""
    return _stop_at_key_check(monkeypatch)


def _stop_at_key_check(monkeypatch):
    check = Config.check_unknown
    keys_read = []

    def check_then_stop(self):
        check(self)
        keys_read.append(set(self.read))
        raise _Checked

    monkeypatch.setattr(Config, "check_unknown", check_then_stop)
    return keys_read


def _command_of(path):
    commands = {"run": "run", "variance": "variance-check", "encode": "encode-search"}
    sections = {key.split(".")[0] for key in load_config(path).values}
    (command,) = [commands[section] for section in sections if section in commands]
    return command


def _run_to_the_key_check(path, out):
    with pytest.raises(_Checked):
        main([_command_of(path), "--config", str(path), "--out", str(out)])


SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_every_shipped_config_passes_the_key_check(tmp_path, stop_at_key_check, path):
    _run_to_the_key_check(path, tmp_path / "out")


@pytest.mark.parametrize(
    "text",
    [
        ENCODING_RUN_CFG + "search.encoding_dim = 2\n",
        DART_CFG.replace("search.encoding_dim = 1", "search.encoding_dim = 10"),
    ],
    ids=["cannon", "dart"],
)
def test_an_encoding_as_wide_as_the_sensors_passes_the_key_check(
    tmp_path, stop_at_key_check, text
):
    _run_to_the_key_check(write_cfg(tmp_path, text), tmp_path / "out")


@pytest.mark.parametrize(
    "command, text",
    [("run", RUN_CFG), ("variance-check", VARIANCE_CFG), ("encode-search", ENCODE_CFG)],
    ids=["run", "variance-check", "encode-search"],
)
def test_a_seed_beyond_the_float_range_passes_the_key_check(
    tmp_path, stop_at_key_check, command, text
):
    cfg = write_cfg(tmp_path, re.sub(r"^seed = \d+", f"seed = {10**400}", text))
    with pytest.raises(_Checked):
        main([command, "--config", cfg, "--out", str(tmp_path / "out")])


HUGE = 10**400
# Any JSON value a config line can hold, weighted towards the edges: huge
# and negative integers, extreme floats, empty and nested lists.
_SCALARS = st.one_of(
    st.sampled_from([HUGE, -HUGE, 0, 1, -1]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)


def test_no_config_value_exits_3_before_the_key_check(
    tmp_path, capsys, stop_at_key_check
):
    """A shipped config with one key set to any JSON value either passes
    the key check or exits 2 naming a key its command reads (the key
    itself, or the partner of a cross-key check)."""
    read = {}
    for path in SHIPPED_CONFIGS:
        _run_to_the_key_check(path, tmp_path / path.stem)
        read.setdefault(_command_of(path), set()).update(stop_at_key_check[-1])
    configs = {path: load_config(path).values for path in SHIPPED_CONFIGS}
    pairs = [(path, key) for path, values in configs.items() for key in sorted(values)]

    @settings(max_examples=450, deadline=None, derandomize=True)
    @given(pair=st.sampled_from(pairs), value=JSON_VALUES)
    def one_value(pair, value):
        path, key = pair
        command = _command_of(path)
        cfg = write_cfg(tmp_path, canonical_text({**configs[path], key: value}))
        try:
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        except _Checked:
            return
        err = capsys.readouterr().err
        named = set(re.findall(r"key '([^']+)'", err))
        assert code == 2 and named and named <= read[command], err

    one_value()


# Magnitudes past which products and squares leave the float range.
_MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1, -1]),
    st.integers(150, 308) | st.integers(-308, -150),
)
_EXTREME_SCALARS = _SCALARS | _MAGNITUDES
EXTREME_VALUES = st.one_of(
    _EXTREME_SCALARS,
    st.lists(_EXTREME_SCALARS, max_size=3),
    st.lists(st.lists(_EXTREME_SCALARS, max_size=3), max_size=3),
)


@st.composite
def _values_near(draw, shipped):
    """Any value, or ``shipped`` with one number set to an extreme magnitude."""
    if draw(st.booleans()):
        return draw(EXTREME_VALUES)
    if not isinstance(shipped, list):
        return draw(_MAGNITUDES)
    value = copy.deepcopy(shipped)
    row = value
    while isinstance(row[0], list):
        row = row[draw(st.integers(0, len(row) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(_MAGNITUDES)
    return value


def _at_small_counts(path):
    """A shipped config's values at the counts a run to the end uses: 1 dart
    or 2 cannon runs and steps, 50 replications, 30 pretraining states."""
    values = dict(load_config(path).values)
    lanes = 1 if values.get("run.environment") == "dart" else 2
    small = {
        "search.runs": lanes, "search.steps": lanes,
        "variance.replications": 50, "dart.pretrain_states": 30,
    }
    return {**values, **{key: n for key, n in small.items() if key in values}}


def _may_be_nan(name, row, column, values) -> bool:
    """Whether the README documents this output cell as possibly NaN."""
    if name == LEARNING_CURVE.name:
        return row["runs"] == "0"
    return name == DIAGNOSTICS.name and (
        row["error"] != ""
        or (column == "loo_cost" and row["estimator"] != "with_encoding")
        or (column == "eval_std_error" and values.get("search.eval_trials_per_point") == 1)
    )


def _unexplained_nonfinite(out, values) -> list:
    """The non-finite numbers in ``out``'s result files outside the cells
    the README documents as possibly NaN."""
    found = []
    for path in sorted(out.iterdir()) if out.exists() else []:
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        if path.suffix == ".txt":
            found += [line for line in lines if re.search(r"\b(nan|inf)\b", line)]
        elif path.suffix == ".csv":
            for row in csv.DictReader(lines):
                for column, cell in row.items():
                    try:
                        finite = np.isfinite(float(cell))
                    except ValueError:
                        continue
                    if not finite and not (
                        cell == "nan" and _may_be_nan(path.name, row, column, values)
                    ):
                        found.append((path.name, column, row))
    return found


def _run_to_the_end(tmp_path, capsys, command, values):
    """Run ``command`` on ``values`` into a fresh directory; returns the exit
    code, stderr, the numpy warnings raised and the output directory."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = write_cfg(tmp_path, canonical_text(values))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", cfg, "--out", str(out)])
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, capsys.readouterr().err, warned, out


def _check_the_end(code, err, warned, out, values):
    """Exit 0, 1 or 2 with no numpy warning; only exit 2 writes to stderr,
    one ``config error:`` line; no unexplained non-finite number in a file."""
    assert code in (0, 1, 2) and not warned, (code, err, warned)
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    assert _unexplained_nonfinite(out, values) == []


def test_no_config_value_exits_3_or_warns_after_the_key_check(
    tmp_path, capsys, monkeypatch
):
    """A shipped config at small counts, with one key set to any JSON value
    or to its shipped value with one number at an extreme magnitude, runs to
    its end as ``_check_the_end`` requires, and an exit 2 names a key its
    command reads."""
    read = {}
    with monkeypatch.context() as patch:
        keys_read = _stop_at_key_check(patch)
        for path in SHIPPED_CONFIGS:
            _run_to_the_key_check(path, tmp_path / path.stem)
            read.setdefault(_command_of(path), set()).update(keys_read[-1])
    configs = {path: _at_small_counts(path) for path in SHIPPED_CONFIGS}
    pairs = [(path, key) for path, values in configs.items() for key in sorted(values)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def one_value(data):
        path, key = data.draw(st.sampled_from(pairs))
        small = configs[path]
        value = data.draw(_values_near(load_config(path).values[key]))
        if key != "seed" and type(small[key]) is int and type(value) is int:
            # A count above the small one only makes the run longer.
            assume(value <= small[key])
        values = {**small, key: value}
        code, err, warned, out = _run_to_the_end(tmp_path, capsys, _command_of(path), values)
        _check_the_end(code, err, warned, out, values)
        if code == 2:
            named = set(re.findall(r"key '([^']+)'", err))
            assert named and named <= read[_command_of(path)], err

    one_value()


_DART_POLICY = load_config(CONFIG_DIR / "dart_search.cfg").values["search.initial_policy"]

# Values that pass the key check but once overflowed in a simulator call, a
# step, a scaled covariance, the dart pretraining or the variance check's
# covariances: (config, changed keys, exit code, the keys an exit 2 names).
OVERFLOWING_VALUES = {
    "cannon-noise-scale": ("cannon_smoke.cfg", {"run.noise_scales": [1e200]}, 0, set()),
    "cannon-scaled-noise": (
        "cannon_smoke.cfg",
        {"cannon.control_noise_diag": [1e308, 4.0], "run.noise_scales": [4.0]},
        2, {"cannon.control_noise_diag", "run.noise_scales"},
    ),
    "variance-gradient": (
        "variance_check.cfg", {"synthetic.true_gradient": [1e308, -0.7]},
        2, {"synthetic.true_gradient", "synthetic.exploration_cov"},
    ),
    "variance-estimates-covariance": (
        "variance_check_correlated.cfg", {"synthetic.true_gradient": [1.5, -1e150]},
        2, {"synthetic.true_gradient", "synthetic.policy_sensor_coupling"},
    ),
    "variance-coupling": (
        "variance_check_correlated.cfg",
        {"synthetic.policy_sensor_coupling": [[1e308, -0.3], [0.2, 1e308]]},
        2, {"synthetic.true_gradient", "synthetic.policy_sensor_coupling"},
    ),
    "dart-exploration": (
        "dart_search.cfg", {"search.exploration_cov": [1e300] + [0.002] * 8}, 0, set()
    ),
    "dart-fixed-rate": (
        "dart_search.cfg",
        {"search.step_rule": "fixed_rate", "search.learning_rate": 1e308}, 0, set(),
    ),
    "dart-pretrain-cov": (
        "dart_search.cfg", {"dart.pretrain_policy_cov": 1e300},
        2, {"dart.pretrain_policy_cov", "search.initial_policy"},
    ),
    "dart-initial-policy": (
        "dart_search.cfg", {"search.initial_policy": [1e300] + _DART_POLICY[1:]},
        2, {"dart.pretrain_policy_cov", "search.initial_policy"},
    ),
}


@pytest.mark.parametrize("case", list(OVERFLOWING_VALUES))
def test_a_value_that_overflows_after_the_key_check_exits_0_or_2(
    tmp_path, capsys, case
):
    name, changes, expected, keys = OVERFLOWING_VALUES[case]
    path = CONFIG_DIR / name
    values = {**_at_small_counts(path), **changes}
    code, err, warned, out = _run_to_the_end(tmp_path, capsys, _command_of(path), values)
    _check_the_end(code, err, warned, out, values)
    assert code == expected
    assert keys <= set(re.findall(r"key '([^']+)'", err))


def test_the_readme_lists_the_keys_the_shipped_configs_read(
    tmp_path, stop_at_key_check
):
    for path in SHIPPED_CONFIGS:
        _run_to_the_key_check(path, tmp_path / path.stem)
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Keys by subcommand", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([a-z_]+\.[a-z_]+|seed)`", section))
    assert set().union(*stop_at_key_check) == listed


def test_a_seedless_config_needs_the_seed_flag(tmp_path, capsys):
    text = "\n".join(
        line for line in RUN_CFG.splitlines() if not line.startswith("seed")
    )
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    assert "missing required key 'seed'" in capsys.readouterr().err
    assert (
        main(["run", "--config", cfg, "--out", str(tmp_path / "o2"), "--seed", "4"])
        == 0
    )


def test_missing_and_unknown_keys_exit_2(tmp_path, capsys):
    text = "\n".join(
        line for line in RUN_CFG.splitlines() if "control_noise_diag" not in line
    )
    cfg = write_cfg(tmp_path, text, "missing.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    assert "cannon.control_noise_diag" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, RUN_CFG + "search.momentum = 0.9\n", "extra.cfg")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
    assert "search.momentum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("run", RUN_CFG, "search.encode_gradient_step"),
        ("encode-search", ENCODE_CFG, "encode.gradient_step"),
    ],
    ids=["run", "encode-search"],
)
def test_removed_gradient_step_keys_are_unknown(tmp_path, capsys, command, text, key):
    cfg = write_cfg(tmp_path, text + f"{key} = 0.0001\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_an_output_directory_never_mixes_configs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["run", "--config", cfg, "--out", out, "--seed", "99"]) == 2
    assert "different config" in capsys.readouterr().err


def test_output_directory_resolution_order(tmp_path, monkeypatch):
    flag_dir = tmp_path / "flagged"
    default_dir = tmp_path / "sensorgrad_out"
    cfg = write_cfg(tmp_path, RUN_CFG)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert flag_dir.is_dir() and not default_dir.exists()
    assert main(["run", "--config", cfg]) == 0
    assert default_dir.is_dir()
    assert main(["schema-check"]) == 0


def test_schema_check_validates_and_flags_corruption(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["schema-check", "--out", str(out)]) == 0
    assert "result: PASS" in capsys.readouterr().out
    curve = out / "learning_curve.csv"
    curve.write_text(
        curve.read_text().replace("ignore_sensors", "ignore_sensors,stray"),
        encoding="utf-8",
    )
    assert main(["schema-check", "--out", str(out)]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    assert main(["schema-check", "--out", str(tmp_path / "absent")]) == 2


def test_variance_check_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, VARIANCE_CFG)
    out = tmp_path / "out"
    assert main(["variance-check", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "result: PASS" in stdout
    assert (out / "variance_report.txt").exists()
    assert main(["schema-check", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "name, key, value",
    [
        (
            "variance_check.cfg",
            "synthetic.exploration_cov",
            "[[0.5, 0.1], [0.1000000001, 0.3]]",
        ),
        (
            "variance_check_correlated.cfg",
            "synthetic.sensor_cov",
            "[[0.2, -0.05], [-0.0500000001, 0.4]]",
        ),
    ],
    ids=["exploration-cov", "correlated-sensor-cov"],
)
def test_a_covariance_the_key_check_accepts_passes_the_variance_check(
    tmp_path, capsys, name, key, value
):
    # Asymmetric by 1e-10, inside the 1e-9 symmetry tolerance of the key
    # check: the laws symmetrize it, as the samplers do.
    lines = (CONFIG_DIR / name).read_text().splitlines()
    text = "".join(
        f"{key} = {value}\n" if line.startswith(key) else line + "\n"
        for line in lines
    )
    cfg = write_cfg(tmp_path, text)
    assert main(["variance-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("scale", ["1e300", "1e-24"])
@pytest.mark.parametrize(
    "name", ["variance_check.cfg", "variance_check_correlated.cfg"]
)
def test_exploration_out_of_scale_with_the_sensors_is_a_config_error(
    tmp_path, capsys, name, scale
):
    # Both covariances pass the key check, but the policy and sensor
    # columns of every joint design lie more than the rank rule's 1e10
    # apart: the first fit refuses, and no file is written.
    text = re.sub(
        r"(?m)^synthetic\.exploration_cov = .*$",
        f"synthetic.exploration_cov = [[{scale}, 0.0], [0.0, {scale}]]",
        (CONFIG_DIR / name).read_text(),
    )
    cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
    assert main(["variance-check", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "key 'synthetic.exploration_cov'" in err
    assert "key 'synthetic.sensor_cov'" in err
    assert not out.exists()


def test_a_command_whose_score_overflows_ends_each_run_in_an_error_row(tmp_path, capsys):
    # Every trial's score overflows: each trial is flagged, the step and its
    # retry fail on an empty batch, and no numpy warning reaches stderr.
    error = "insufficient samples: every trial was flagged"
    for speed in ("1e78", "1e300"):
        text = (CONFIG_DIR / "cannon_smoke.cfg").read_text().replace(
            "[16.0, 0.7853981633974483]", f"[{speed}, 0.7]"
        )
        cfg, out = write_cfg(tmp_path, text, f"{speed}.cfg"), tmp_path / speed
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:])
        columns = ("estimator", "run", "step", "flagged", "retried", "error")
        assert [tuple(r[c] for c in columns) for r in rows] == [
            (estimator, str(run), "1", "10", "true", error)
            for estimator in ("ignore_sensors", "with_sensors")
            for run in range(3)
        ]


def test_a_score_sum_that_overflows_ends_each_run_in_an_error_row(tmp_path, capsys):
    # Each score at these speeds is finite, but ten of them (at 3e77), or
    # their squares (at 1e77), sum past the float range: every estimator
    # refuses the batch by name, and no numpy warning reaches stderr.
    for speed, total in (("3e77", "sum"), ("1e77", "sum of squares")):
        text = (CONFIG_DIR / "cannon_smoke.cfg").read_text().replace(
            "[16.0, 0.7853981633974483]", f"[{speed}, 0.7]"
        )
        text = text.replace('"with_sensors"]', '"with_sensors", "with_encoding"]')
        text += "search.encode_trials_per_step = 10\n"
        cfg, out = write_cfg(tmp_path, text, f"{speed}.cfg"), tmp_path / speed
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:])
        message = f"scores too large to regress: their {total} overflows"
        assert [(r["estimator"], r["run"], r["step"], r["error"]) for r in rows] == [
            (estimator, str(run), "1", message)
            for estimator in ("ignore_sensors", "with_sensors", "with_encoding")
            for run in range(3)
        ]


def test_scores_whose_squares_overflow_are_a_config_error(tmp_path, capsys):
    # The scores and their sums are finite, but their sums of squares, and
    # with them the residual sums and the draws' covariances, are not: the
    # first fit refuses, no numpy warning reaches stderr, and no file is
    # written.
    text = (CONFIG_DIR / "variance_check.cfg").read_text().replace(
        "synthetic.true_gradient = [1.5, -0.7]", "synthetic.true_gradient = [1e200, -0.7]"
    )
    cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
    assert main(["variance-check", "--config", cfg, "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: {cfg}: key 'synthetic.true_gradient'")
    assert err.endswith("(scores too large to regress: their sum of squares overflows)")
    assert not out.exists()


def _variance_cfg_with(tmp_path, values):
    """``variance_check.cfg`` with the given keys set to the given values."""
    text = (CONFIG_DIR / "variance_check.cfg").read_text()
    for key, value in values.items():
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    return write_cfg(tmp_path, text)


@pytest.mark.parametrize(
    "key, value",
    [
        ("synthetic.exploration_cov", "[1e308, 1e308]"),
        ("synthetic.sensor_cov", "[1e308, 0.4]"),
    ],
    ids=["exploration", "sensor"],
)
def test_a_covariance_at_the_float_range_is_a_config_error(tmp_path, capsys, key, value):
    # The covariance's root does not overflow, but the scores drawn at its
    # scale do: the first fit refuses them, with no numpy warning and no file.
    cfg, out = _variance_cfg_with(tmp_path, {key: value}), tmp_path / "out"
    assert main(["variance-check", "--config", cfg, "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: {cfg}: key 'synthetic.true_gradient'")
    assert "set scales the regressions cannot fit" in err
    assert not out.exists()


def test_covariance_laws_past_the_float_range_are_a_config_error(tmp_path, capsys):
    # Tiny covariances give laws whose entries are finite but whose
    # Frobenius norms overflow: no relative error can be computed.
    tiny = "[1e-300, 1e-300]"
    values = {
        "synthetic.exploration_cov": tiny,
        "synthetic.sensor_cov": tiny,
        "variance.replications": 200,
    }
    cfg, out = _variance_cfg_with(tmp_path, values), tmp_path / "out"
    assert main(["variance-check", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {cfg}: key 'synthetic.exploration_cov' sets covariance "
        "laws whose Frobenius norm overflows"
    ]
    assert not out.exists()


def test_a_huge_exploration_covariance_ends_each_run_in_an_error_row(tmp_path, capsys):
    text = (CONFIG_DIR / "cannon_smoke.cfg").read_text().replace(
        "search.exploration_cov = [0.25, 0.0025]", "search.exploration_cov = [1e308, 0.0025]"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:]))
    # Most shots fly off the scale and are flagged; too few are left to fit.
    assert len(rows) == 6
    for row in rows:
        assert row["step"] == "1" and int(row["flagged"]) > 0
        error = row["error"]
        assert error.startswith("insufficient samples") or error == "degenerate exploration"


def test_a_command_outside_the_physical_range_is_scored(tmp_path, capsys):
    # A negative speed scores like any command: the range formula clamps
    # the executed speed, and every run steps to the end.
    text = (CONFIG_DIR / "cannon_smoke.cfg").read_text().replace(
        "[16.0, 0.7853981633974483]", "[-1.0, 0.7]"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:]))
    assert len(rows) == 2 * 3 * 5 and not any(row["error"] for row in rows)


def test_encode_search_round_trip_and_threshold_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ENCODE_CFG)
    out = tmp_path / "out"
    assert main(["encode-search", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "result: PASS" in stdout
    assert "cosine_to_planted" in stdout
    for name in ("projection.csv", "encode_trace.csv", "encode_report.txt"):
        assert (out / name).exists()
    assert main(["schema-check", "--out", str(out)]) == 0
    # No projection reaches a cosine above 1.
    unreachable = ENCODE_CFG.replace("min_cosine = 0.9", "min_cosine = 1.5")
    bad_cfg = write_cfg(tmp_path, unreachable, "unreachable.cfg")
    code = main(["encode-search", "--config", bad_cfg, "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_thread_count_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RUN_CFG)
    code = main(
        ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]
    )
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_config_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["run"])
    capsys.readouterr()


def _fresh_interpreter(code, env):
    """Run ``code`` in a new interpreter that imports this checkout's sensorgrad."""
    package_root = str(Path(sensorgrad.__file__).resolve().parents[1])
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _imports_scipy(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            return True
    return False


def test_importing_the_cli_leaves_scipy_unloaded():
    sources = sorted(Path(sensorgrad.__file__).parent.rglob("*.py"))
    assert [path.name for path in sources if _imports_scipy(path)] == []
    # A fresh interpreter: this test process has imported scipy already.
    code = (
        "import importlib, pkgutil, sys, sensorgrad.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by the cli'\n"
        "import sensorgrad\n"
        "path, prefix = sensorgrad.__path__, 'sensorgrad.'\n"
        "names = [m.name for m in pkgutil.walk_packages(path, prefix)]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "wanted = ['encoding', 'dynamics_sensors', 'search', 'experiments']\n"
        "assert {prefix + n for n in wanted + ['envs.arm']} <= set(names), names\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by a sensorgrad module'\n"
    )
    result = _fresh_interpreter(code, os.environ)
    assert result.returncode == 0, result.stderr


def test_a_bare_package_import_loads_neither_numpy_nor_a_submodule():
    # The package root re-exports nothing: each name is imported from
    # the module that defines it.
    code = (
        "import sys, sensorgrad\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
        "          or m.startswith('sensorgrad.')]\n"
        "assert loaded == [], loaded\n"
    )
    result = _fresh_interpreter(code, os.environ)
    assert result.returncode == 0, result.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, imports, expected",
    [
        (None, "sensorgrad", ["1", "1", "1"]),
        ("2", "sensorgrad", ["2", "1", "1"]),
        # Numpy's BLAS has chosen its threads already: nothing is set, so
        # child processes do not inherit a value this process never ran on.
        (None, "numpy, sensorgrad", ["unset", "unset", "unset"]),
    ],
    ids=["unset", "openblas-2", "numpy-first"],
)
def test_importing_sensorgrad_runs_blas_in_one_thread_unless_set(
    preset, imports, expected
):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        f"import os, {imports}\n"
        f"print(*(os.environ.get(name, 'unset') for name in {BLAS_THREAD_VARIABLES!r}))\n"
    )
    result = _fresh_interpreter(code, env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == expected


def test_the_package_reads_no_environment_variable_but_the_blas_defaults():
    package = Path(sensorgrad.__file__).parent
    touched = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("environ", "environb", "getenv", "getenvb", "putenv"):
                touched.setdefault(path.relative_to(package).as_posix(), []).append(node)
    assert list(touched) == ["__init__.py"] and len(touched["__init__.py"]) == 1
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    (loop,) = [node for node in ast.walk(init) if isinstance(node, ast.For)]
    assert ast.literal_eval(loop.iter) == BLAS_THREAD_VARIABLES
    assert [ast.unparse(line) for line in loop.body] == [
        "os.environ.setdefault(_name, '1')"
    ]
