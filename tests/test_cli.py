"""Command line behavior: exit codes, output files, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensorgrad
from sensorgrad import dynamics_sensors, encoding
from sensorgrad.cli import main
from sensorgrad.config import Config, load_config
from sensorgrad.envs.arm import DartEnv
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
encode.signal_scale = 2.0
encode.noise_std = 0.1
encode.planted = true
encode.max_iterations = 25
encode.restarts = 2
encode.min_cosine = 0.9
"""

RUN_FILES = ("learning_curve.csv", "diagnostics.csv", "config_echo.cfg")


@pytest.fixture(autouse=True)
def clean_out_env(monkeypatch):
    monkeypatch.delenv("SENSORGRAD_OUT", raising=False)


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
)

# (command, config text, text the error must hold): each must exit 2
# before any trial, pretraining, replication or search runs.
BAD_SETTING_CASES = {
    "run-singular-cov": (
        "run",
        RUN_CFG.replace("[0.25, 0.0025]", "[0.25, 0.0]"),
        "exploration covariance must be positive definite",
    ),
    "variance-check-singular-cov": (
        "variance-check",
        VARIANCE_CFG.replace("[[0.5, 0.1], [0.1, 0.3]]", "[[0.5, 0.5], [0.5, 0.5]]"),
        "exploration covariance must be positive definite",
    ),
    "dart-unknown-key": (
        "run",
        DART_CFG + "dart.pretrain_state = 200\n",
        "unknown key 'dart.pretrain_state'",
    ),
    "cannon-run-dart-key": (
        "run",
        RUN_CFG + "dart.kp = [1.0, 1.0, 1.0]\n",
        "unknown key 'dart.kp'",
    ),
    "dart-run-cannon-key": (
        "run",
        DART_CFG + "cannon.gravity = 9.8\n",
        "unknown key 'cannon.gravity'",
    ),
    "cannon-encode-restarts": (
        "run",
        ENCODING_RUN_CFG + "search.encode_restarts = 0\n",
        "encode_restarts must be at least 1",
    ),
    "cannon-encode-max-iterations": (
        "run",
        ENCODING_RUN_CFG + "search.encode_max_iterations = -1\n",
        "encode_max_iterations must be nonnegative",
    ),
    "dart-encode-restarts": (
        "run",
        DART_CFG.replace("search.encode_restarts = 2", "search.encode_restarts = 0"),
        "encode_restarts must be at least 1",
    ),
    "encode-restarts": (
        "encode-search",
        ENCODE_CFG.replace("encode.restarts = 2", "encode.restarts = 0"),
        "invalid encode settings: restarts must be at least 1",
    ),
    "encode-max-iterations": (
        "encode-search",
        ENCODE_CFG.replace("encode.max_iterations = 25", "encode.max_iterations = -1"),
        "invalid encode settings: max_iterations must be non-negative",
    ),
    "encode-samples": (
        "encode-search",
        ENCODE_CFG.replace("encode.samples = 40", "encode.samples = 5"),
        "key 'encode.samples' must be at least",
    ),
    "encode-unplanted-min-cosine": (
        "encode-search",
        ENCODE_CFG.replace("encode.planted = true", "encode.planted = false"),
        "unknown key 'encode.min_cosine'",
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
}


@pytest.fixture
def no_work(monkeypatch):
    """Make every trial sampler, the dart pretraining and the projection
    search raise: work that runs ends the command with exit 3, not 2."""

    def work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for env in (CannonEnv, DartEnv, SyntheticEnv):
        monkeypatch.setattr(env, "sample_trials", work)
    monkeypatch.setattr(dynamics_sensors, "sample_pretraining_states", work)
    monkeypatch.setattr(encoding, "optimize_projection", work)


@pytest.mark.parametrize("case", list(BAD_SETTING_CASES))
def test_a_bad_setting_is_a_config_error_before_any_work(
    tmp_path, capsys, no_work, case
):
    command, text, message = BAD_SETTING_CASES[case]
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


class _Checked(BaseException):
    """Raised in place of the work once a config passes the key check."""


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.name
)
def test_every_shipped_config_passes_the_key_check(
    tmp_path, monkeypatch, no_work, path
):
    check = Config.check_unknown

    def check_then_stop(self):
        check(self)
        raise _Checked

    monkeypatch.setattr(Config, "check_unknown", check_then_stop)
    commands = {"run": "run", "variance": "variance-check", "encode": "encode-search"}
    sections = {key.split(".")[0] for key in load_config(path).values}
    (command,) = [commands[section] for section in sections if section in commands]
    with pytest.raises(_Checked):
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])


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
    cfg_dir = tmp_path / "configured"
    env_dir = tmp_path / "from_env"
    cfg_with_dir = write_cfg(
        tmp_path, RUN_CFG + f'output.dir = "{cfg_dir}"\n', "withdir.cfg"
    )
    assert main(["run", "--config", cfg_with_dir, "--out", str(flag_dir)]) == 0
    assert flag_dir.is_dir() and not cfg_dir.exists()
    assert main(["run", "--config", cfg_with_dir]) == 0
    assert cfg_dir.is_dir()
    plain_cfg = write_cfg(tmp_path, RUN_CFG)
    monkeypatch.setenv("SENSORGRAD_OUT", str(env_dir))
    assert main(["run", "--config", plain_cfg]) == 0
    assert env_dir.is_dir()
    monkeypatch.delenv("SENSORGRAD_OUT")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", plain_cfg]) == 0
    assert (tmp_path / "sensorgrad_out").is_dir()


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
    drowned = ENCODE_CFG.replace("noise_std = 0.1", "noise_std = 40.0")
    bad_cfg = write_cfg(tmp_path, drowned, "drowned.cfg")
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


def test_importing_the_cli_leaves_scipy_unloaded():
    # A fresh interpreter: this test process has imported scipy already.
    code = (
        "import sys, sensorgrad.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        "import sensorgrad\n"
        "assert callable(sensorgrad.loo_cost)\n"
        "assert issubclass(sensorgrad.EncodingError, ValueError)\n"
        "import sensorgrad.encoding\n"
        "assert sensorgrad.encoding.EncodingError is sensorgrad.EncodingError\n"
    )
    package_root = str(Path(sensorgrad.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
