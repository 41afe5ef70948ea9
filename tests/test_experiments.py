"""The output declarations: writers and schema-check read the same spec."""

import csv
import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sensorgrad.cli import main
from sensorgrad.config import Config, parse_config_text
from sensorgrad.experiments import (
    COMMANDS,
    DIAGNOSTICS,
    HASH_PREFIX,
    LEARNING_CURVE,
    _deviation_in_ses,
    format_cell,
    run_tables,
    schema_check,
)
from sensorgrad.search import StepRecord
from test_acceptance import RERUN_CASES
from test_golden import DART_CFG, SWEEP_CFG

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Each command's tiny config; the sweep adds the trailing noise_scale column.
CASES = {
    "run": ("run", RERUN_CASES["run"][0]),
    "sweep": ("run", SWEEP_CFG),
    "variance-check": ("variance-check", RERUN_CASES["variance-check"][0]),
    "encode-search": ("encode-search", RERUN_CASES["encode-search"][0]),
}


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


def _csv_rows(path) -> list:
    """A written CSV's rows as dicts of cells, the config-hash line skipped."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        return list(csv.DictReader(handle))


def _curve_from_diagnostics(rows) -> list:
    """``learning_curve.csv``'s rows recomputed from ``diagnostics.csv``'s:
    per (noise scale, estimator) and step, the mean and standard error of
    the evaluations over the runs without an error row (at least one)."""
    groups = {}
    for row in rows:
        groups.setdefault((row.get("noise_scale"), row["estimator"]), []).append(row)
    curve = []
    for (scale, estimator), group in groups.items():
        failed = {row["run"] for row in group if row["error"]}
        by_run = {}
        for row in group:
            if row["run"] not in failed:
                by_run.setdefault(row["run"], []).append(float(row["eval_mean"]))
        values = np.array(list(by_run.values()))
        runs = values.shape[0]
        errors = np.zeros(values.shape[1])
        if runs > 1:
            errors = values.std(axis=0, ddof=1) / np.sqrt(runs)
        for step, (mean, error) in enumerate(zip(values.mean(axis=0), errors), start=1):
            cells = dict(
                step=step, estimator=estimator, mean_value=mean, std_error=error, runs=runs
            )
            if scale is not None:
                cells["noise_scale"] = scale
            curve.append({name: format_cell(cell) for name, cell in cells.items()})
    return curve


@pytest.mark.parametrize(
    "text", [RERUN_CASES["run"][0], SWEEP_CFG, DART_CFG], ids=["run", "sweep", "dart"]
)
def test_the_learning_curve_is_its_recomputation_from_the_diagnostics(tmp_path, text):
    out = _run(tmp_path, "run", text)
    curve = _csv_rows(out / "learning_curve.csv")
    assert curve and curve == _curve_from_diagnostics(_csv_rows(out / "diagnostics.csv"))


RUN_TEXT = RERUN_CASES["run"][0]


def _curve_rows(text) -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, tables = run_tables(Config(parse_config_text(text)))
    extra, rows = tables[LEARNING_CURVE.name]
    assert extra == 0
    return rows


@pytest.mark.parametrize(
    "text, cells",
    [
        # One trial per step is too few to fit: every run fails at step 1.
        (
            RUN_TEXT.replace("trials_per_step = 8", "trials_per_step = 1"),
            [["nan", "nan", "0"]] * 4,
        ),
        (RUN_TEXT.replace("search.steps = 2", "search.steps = 0"), []),
    ],
    ids=["no-completed-run", "zero-steps"],
)
def test_learning_curve_rows_at_the_edges(text, cells):
    rows = _curve_rows(text)
    assert [[format_cell(cell) for cell in row[2:]] for row in rows] == cells


def test_one_run_has_a_zero_standard_error():
    rows = _curve_rows(RUN_TEXT.replace("search.runs = 2", "search.runs = 1"))
    assert [row[3:] for row in rows] == [[0.0, 1]] * 4
    assert all(np.isfinite(row[2]) for row in rows)
