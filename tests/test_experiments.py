"""The output declarations: writers and schema-check read the same spec."""

import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sensorgrad.cli import main
from sensorgrad.experiments import (
    COMMANDS,
    DIAGNOSTICS,
    HASH_PREFIX,
    _deviation_in_ses,
    schema_check,
)
from sensorgrad.search import StepRecord
from test_acceptance import RERUN_CASES
from test_golden import SWEEP_CFG

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Each command's tiny config; the sweep adds the trailing noise_scale column.
CASES = {
    "run": ("run", RERUN_CASES["run"][0]),
    "sweep": ("run", SWEEP_CFG),
    "variance-check": ("variance-check", RERUN_CASES["variance-check"][0]),
    "encode-search": ("encode-search", RERUN_CASES["encode-search"][0]),
}


@pytest.fixture(autouse=True)
def clean_out_env(monkeypatch):
    monkeypatch.delenv("SENSORGRAD_OUT", raising=False)


def _run(tmp_path, command, text):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_diagnostics_header_is_the_step_record_fields_in_order(tmp_path):
    names = [field.name for field in fields(StepRecord)]
    assert DIAGNOSTICS.header() == names
    out = _run(tmp_path, *CASES["run"])
    lines = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(HASH_PREFIX)
    assert lines[1] == ",".join(names)


def test_a_sweep_without_rows_still_declares_its_noise_scale_column(tmp_path):
    out = _run(tmp_path, "run", SWEEP_CFG.replace("search.steps = 2", "search.steps = 0"))
    for name in ("learning_curve.csv", "diagnostics.csv"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and lines[1].endswith(",noise_scale")
    assert schema_check(str(out))[1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_written_file_passes_its_own_declaration(tmp_path, case):
    command, text = CASES[case]
    out = _run(tmp_path, command, text)
    declared = COMMANDS[command].files
    assert sorted(p.name for p in out.iterdir()) == sorted(f.name for f in declared)
    for file in declared:
        path = out / file.name
        claimed = path.read_text(encoding="utf-8").splitlines()[0][len(HASH_PREFIX):]
        assert file.check(path, claimed) is None
    lines, ok = schema_check(str(out))
    assert ok, lines


def test_schema_check_requires_exactly_one_commands_file_set(tmp_path, capsys):
    cfg = CONFIG_DIR / "encode_planted.cfg"
    out = tmp_path / "out"
    assert main(["encode-search", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["schema-check", "--out", str(out)]) == 0

    extra = tmp_path / "extra"
    shutil.copytree(out, extra)
    hash_line = (out / "config_echo.cfg").read_text(encoding="utf-8").splitlines()[0]
    (extra / "profile.txt").write_text(hash_line + "\nwall 1.0 s\n", encoding="utf-8")
    assert main(["schema-check", "--out", str(extra)]) == 1
    assert "profile.txt: not a documented output file" in capsys.readouterr().out

    missing = tmp_path / "missing"
    shutil.copytree(out, missing)
    (missing / "encode_trace.csv").unlink()
    assert main(["schema-check", "--out", str(missing)]) == 1
    assert "not the output set of one command" in capsys.readouterr().out


@pytest.mark.parametrize(
    "mean, se, expected",
    [
        ([1.0 + 1e-12, -2.0], [0.0, 0.5], [0.0, 0.0]),
        ([1.3, -2.5], [0.1, 0.25], [0.3 / 0.1, 0.5 / 0.25]),
        ([1.5, -2.0], [0.0, 0.0], [np.inf, 0.0]),
    ],
    ids=["exact_even_at_zero_se", "finite", "zero_se"],
)
def test_deviation_in_standard_errors_branches(mean, se, expected):
    mean, target, se = np.array(mean), np.array([1.0, -2.0]), np.array(se)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        devs = _deviation_in_ses(mean, target, se)
    assert devs == pytest.approx(expected, rel=1e-12)
    # The per-element loop the array expression replaced, as the reference.
    reference = []
    for diff, error in zip(np.abs(mean - target), se):
        if diff < 1e-9:
            reference.append(0.0)
        elif error > 0.0:
            reference.append(diff / error)
        else:
            reference.append(np.inf)
    assert np.array_equal(devs, reference)
