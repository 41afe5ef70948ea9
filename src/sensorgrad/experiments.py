"""Experiment harness behind the command line.

Turns parsed configurations into worlds, runs the four experiment
kinds (learning-curve runs, variance-law validation, projection
search, output schema validation), and owns the output-file
conventions: every file starts with a ``# config_hash=`` line tying it
to the exact configuration, floats are written with ``repr`` so reruns
are byte-identical, and nothing time- or host-dependent is ever
written.

Each output file is declared once, as a ``CsvFile`` (typed columns and
optional trailing columns) or a ``TextFile``, and each config-driven
command once, in ``COMMANDS``: its compute function and its file set.
The writers and ``schema_check`` both read these declarations;
``diagnostics.csv``'s columns are ``StepRecord``'s fields, and
``learning_curve.csv`` is aggregated from the same records.  A command
checks its output directory before any work and creates it to write.

A command accepts exactly the config keys that its readers read: each
compute function reads and validates all of its keys, then calls
``Config.check_unknown`` before any trial, pretraining, replication or
search runs.  A key's own bounds are stated where it is read
(``cfg.get_int("encode.raw_dim", positive=True)``); the checks here tie
keys together and name the key they refuse, and no settings object
checks a value again.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Callable, get_type_hints

import numpy as np

from .config import (
    Config,
    ConfigError,
    canonical_text,
    config_hash,
    parse_config_text,
)
from .dynamics_sensors import DartEnv, fit_dynamics_model, sample_pretraining_states
from .encoding import EncodingSearchConfig, optimize_projection
from .envs.arm import ArmWorld
from .envs.cannon import CannonEnv, CannonWorld
from .envs.synthetic import SyntheticEnv, SyntheticWorld
from .estimators import (
    EstimationError,
    TrialBatch,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
)
from .linreg import quad_feature_count
from .search import (
    ESTIMATORS,
    STEP_RULES,
    SearchConfig,
    StepRecord,
    run_learning_curve,
    sample_exploration_policies,
)
from .seeding import ENCODE, EVAL, LEARN, PRETRAIN, VARIANCE, psd_sqrt, substream

__all__ = [
    "HASH_PREFIX",
    "COMMANDS",
    "prepare_out_dir",
    "write_csv",
    "write_text",
    "run_experiment",
    "variance_check",
    "variance_check_experiment",
    "replicate_gradients",
    "encode_search",
    "encode_search_experiment",
    "schema_check",
]

HASH_PREFIX = "# config_hash="

_DEG2 = (np.pi / 180.0) ** 2

# ---------------------------------------------------------------------------
# output conventions
# ---------------------------------------------------------------------------


def format_cell(value) -> str:
    """Deterministic text for one CSV cell (repr round-trip for floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _file_hash_line(path) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
    except (OSError, UnicodeDecodeError):
        return None
    if first.startswith(HASH_PREFIX):
        return first[len(HASH_PREFIX):]
    return None


def prepare_out_dir(out_dir, cfg_hash: str):
    """Refuse, by ``ConfigError``, an output directory that is neither
    absent (it is created to write) nor holding this config's files only,
    or that holds a non-file under an output file's name."""
    try:
        names = sorted(os.listdir(out_dir))
    except OSError as exc:
        if out_dir and isinstance(exc, FileNotFoundError):
            return
        raise ConfigError(f"unusable output directory {out_dir}: {exc}") from exc
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            if name in _OUTPUT_FILES:
                raise ConfigError(f"output path {path} exists and is not a file")
            continue
        existing = _file_hash_line(path)
        if existing is not None and existing != cfg_hash:
            raise ConfigError(
                f"output directory {out_dir} holds files from a different "
                f"config (found hash {existing[:12]}.., expected "
                f"{cfg_hash[:12]}..): refusing to mix results"
            )


def write_csv(path, cfg_hash: str, header, rows) -> None:
    buffer = io.StringIO()
    buffer.write(HASH_PREFIX + cfg_hash + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


def write_text(path, cfg_hash: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(HASH_PREFIX + cfg_hash + "\n")
        for line in lines:
            handle.write(line + "\n")


def _matrix_lines(label: str, matrix: np.ndarray) -> list:
    lines = [label]
    for row in np.atleast_2d(matrix):
        lines.append("  [" + ", ".join(repr(float(v)) for v in row) + "]")
    return lines


def _vector_text(vector: np.ndarray) -> str:
    return "[" + ", ".join(repr(float(v)) for v in np.asarray(vector).ravel()) + "]"


# ---------------------------------------------------------------------------
# output files: one declaration each, read by the writers and schema_check
# ---------------------------------------------------------------------------


def _parses(kind: type, cell: str) -> bool:
    """Whether ``cell`` is how ``format_cell`` writes a value of ``kind``."""
    if kind is bool:
        return cell in ("true", "false")
    try:
        kind(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class CsvFile:
    """A CSV output: columns mapped to their kinds, then optional trailing ones.

    ``tail`` names trailing ``float`` columns: a plain name is one optional
    column (a sweep's ``noise_scale``), a name with ``{}`` is any number of
    numbered columns (``c{}`` gives ``c0``, ``c1``, ...).  The file's
    content is (number of trailing columns, rows).
    """

    name: str
    columns: dict
    tail: str | None = None

    def header(self, extra: int = 0) -> list:
        return [*self.columns] + [self.tail.format(j) for j in range(extra)]

    def write(self, path, cfg_hash: str, content) -> None:
        extra, rows = content
        write_csv(path, cfg_hash, self.header(extra), rows)

    def check(self, path, claimed: str) -> str | None:
        """The first way the file breaks this declaration, or None."""
        with open(path, "r", encoding="utf-8") as handle:
            handle.readline()
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return "missing header row"
            extra = max(len(header) - len(self.columns), 0)
            if self.tail is None or ("{}" not in self.tail and header != self.header(1)):
                extra = 0
            if header != self.header(extra):
                return (
                    f"header {header} does not match the documented schema "
                    f"{self.header(extra)}"
                )
            kinds = [*self.columns.values()] + [float] * extra
            for row_number, row in enumerate(reader, start=3):
                if len(row) != len(header):
                    return f"row {row_number} has {len(row)} cells, expected {len(header)}"
                for kind, cell, column in zip(kinds, row, header):
                    if not _parses(kind, cell):
                        return (
                            f"row {row_number} column '{column}' holds "
                            f"unparseable value {cell!r}"
                        )
        return None

    def row(self, values: dict, tail: list) -> list:
        """The cells of ``values`` in column order, then ``tail``."""
        return [values[name] for name in self.columns] + tail


@dataclass(frozen=True)
class TextFile:
    """A text output, one line per entry; ``echo`` marks the config echo,
    whose body must hash to the value its hash line claims."""

    name: str
    echo: bool = False

    def write(self, path, cfg_hash: str, lines) -> None:
        write_text(path, cfg_hash, lines)

    def check(self, path, claimed: str) -> str | None:
        """The first way the file breaks this declaration, or None."""
        if not self.echo:
            return None
        with open(path, "r", encoding="utf-8") as handle:
            body = "".join(handle.readlines()[1:])
        try:
            actual = config_hash(parse_config_text(body, source=self.name))
        except ConfigError as exc:
            return f"unparseable config echo: {exc}"
        if actual != claimed:
            return f"config echo hashes to {actual[:12]}.. but claims {claimed[:12]}.."
        return None


LEARNING_CURVE = CsvFile(
    "learning_curve.csv",
    dict(step=int, estimator=str, mean_value=float, std_error=float, runs=int),
    tail="noise_scale",
)
DIAGNOSTICS = CsvFile("diagnostics.csv", get_type_hints(StepRecord), tail="noise_scale")
PROJECTION = CsvFile("projection.csv", dict(raw_index=int), tail="c{}")
ENCODE_TRACE = CsvFile("encode_trace.csv", dict(iteration=int, cost=float))
VARIANCE_REPORT = TextFile("variance_report.txt")
ENCODE_REPORT = TextFile("encode_report.txt")
CONFIG_ECHO = TextFile("config_echo.cfg", echo=True)


# ---------------------------------------------------------------------------
# world and search-config builders
# ---------------------------------------------------------------------------


def build_cannon_world(cfg: Config) -> CannonWorld:
    """Cannon world from config: the actuation noise is the (speed, angle)
    diagonal ``cannon.control_noise_diag``, the angle in degrees^2; the
    read noise is the ``CannonWorld`` default."""
    key = "cannon.control_noise_diag"
    diag = cfg.get_vector(key, minimum=0.0)
    if diag.shape[0] != 2:
        raise ConfigError(f"{cfg.source}: key '{key}' must have 2 entries")
    return CannonWorld(control_noise_cov=np.diag([diag[0], diag[1] * _DEG2]))


def build_search_config(cfg: Config, estimators) -> SearchConfig:
    """The search settings of the listed estimators; the exploration covariance
    is d x d for a d-entry policy, and only ``with_encoding`` reads the encoding keys."""
    policy = cfg.get_vector("search.initial_policy")
    config = SearchConfig(
        initial_policy=policy,
        trials_per_step=cfg.get_int("search.trials_per_step", positive=True),
        exploration_cov=cfg.get_cov("search.exploration_cov", policy.shape[0]),
        steps=cfg.get_int("search.steps", minimum=0),
        runs=cfg.get_int("search.runs", positive=True),
        seed=cfg.get_int("seed"),
        estimators=tuple(estimators),
        step_rule=cfg.get_str(
            "search.step_rule", SearchConfig.step_rule, choices=STEP_RULES
        ),
        learning_rate=cfg.get_float(
            "search.learning_rate", SearchConfig.learning_rate, positive=True
        ),
        eval_trials_per_point=cfg.get_int(
            "search.eval_trials_per_point",
            SearchConfig.eval_trials_per_point,
            positive=True,
        ),
    )
    if "with_encoding" not in estimators:
        return config
    default = SearchConfig.encoding
    encoding = replace(
        default,
        target_dim=cfg.get_int("search.encoding_dim", default.target_dim, minimum=0),
        max_iterations=cfg.get_int(
            "search.encode_max_iterations", default.max_iterations, minimum=0
        ),
    )
    # Accepted for compatibility and must be at least 1; the search makes one start.
    cfg.get_int("search.encode_restarts", 1, minimum=1)
    return replace(
        config,
        encode_trials_per_step=cfg.get_int("search.encode_trials_per_step", positive=True),
        encoding=encoding,
    )


def _read_environments(cfg: Config, config: SearchConfig):
    """Read the environment keys and check the search config against the
    environment; returns a function that builds the environment per
    noise scale, pretraining the dart model if needed."""
    environment = cfg.get_str("run.environment", choices=("cannon", "dart"))
    scales = cfg.get_vector(
        "run.noise_scales", [1.0], nonempty=True, minimum=0.0, distinct=True
    ).tolist()
    if environment == "cannon":
        world = build_cannon_world(cfg)
        with np.errstate(over="ignore"):
            if not np.isfinite(world.control_noise_cov * max(scales)).all():
                raise ConfigError(
                    f"{cfg.source}: key 'cannon.control_noise_diag' and key 'run.noise_scales' "
                    "set an actuation noise covariance past the float range"
                )
        # A (speed, angle) policy; the sensors read its actuation error.
        policy_dim = width = 2
        build = lambda: [(s, CannonEnv(world.scaled(s))) for s in scales]
    else:
        if scales != [1.0]:
            raise ConfigError(
                f"{cfg.source}: key 'run.noise_scales' applies to the cannon "
                "environment only"
            )
        world = ArmWorld()
        # The estimators see the encoded sensors: one residual spline
        # coefficient per policy knot, then the release time.
        policy_dim, width = world.policy_dim, world.policy_dim + 1
        fewest = quad_feature_count(2 * world.dof) + 2  # for the dynamics model
        count = cfg.get_int("dart.pretrain_states", 2000, minimum=fewest)
        spread = cfg.get_float("dart.pretrain_policy_cov", 0.01, minimum=0.0)

        def build():
            states = sample_pretraining_states(
                world,
                count,
                substream(config.seed, PRETRAIN),
                policy_mean=config.initial_policy,
                policy_cov=spread * np.eye(world.policy_dim),
            )
            try:
                model = fit_dynamics_model(world, states)
            except ValueError as exc:
                raise ConfigError(
                    f"{cfg.source}: key 'dart.pretrain_policy_cov' and key "
                    "'search.initial_policy' set pretraining rollouts the dynamics "
                    f"model cannot fit ({exc})"
                ) from exc
            return [(1.0, DartEnv(world, model))]

    if config.initial_policy.shape[0] != policy_dim:
        raise ConfigError(
            f"{cfg.source}: key 'search.initial_policy' must have "
            f"{policy_dim} entries for the {environment} environment"
        )
    if "with_encoding" in config.estimators and config.encoding.target_dim > width:
        raise ConfigError(
            f"{cfg.source}: key 'search.encoding_dim' must be at most {width}, "
            f"the sensor width of the {environment} environment"
        )
    return build


# ---------------------------------------------------------------------------
# run experiment
# ---------------------------------------------------------------------------


def _curve_rows(records, config: SearchConfig, estimator: str, tail) -> list:
    """``learning_curve.csv``'s rows from ``estimator``'s step records: per
    step, the mean and standard error of the evaluations over the runs
    that completed (a run with an error row does not count)."""
    records = [record for record in records if record.estimator == estimator]
    failed = {record.run for record in records if record.error}
    runs = config.runs - len(failed)
    values = np.array([r.eval_mean for r in records if r.run not in failed])
    values = values.reshape(runs, config.steps)
    means = errors = np.full(config.steps, np.nan)
    if runs > 0:
        means, errors = values.mean(axis=0), np.zeros(config.steps)
    if runs > 1:
        errors = values.std(axis=0, ddof=1) / np.sqrt(runs)
    point = dict(estimator=estimator, runs=runs)
    return [
        LEARNING_CURVE.row(dict(point, step=step, mean_value=mean, std_error=error), tail)
        for step, (mean, error) in enumerate(zip(means, errors), start=1)
    ]


def run_tables(cfg: Config):
    """Learning-curve and diagnostics rows for a run config.

    Returns (lines, ok, tables), tables mapping ``learning_curve.csv``
    and ``diagnostics.csv`` to their content.  Both come from the step
    records of the runs; the ``noise_scale`` column ends both files only
    when the sweep has more than one scale, keeping the single-scale
    files at their pinned columns.
    """
    estimators = cfg.get_str_list(
        "run.estimators", nonempty=True, distinct=True, choices=ESTIMATORS
    )
    config = build_search_config(cfg, estimators)
    build_environments = _read_environments(cfg, config)
    cfg.check_unknown()
    environments = build_environments()
    sweep = len(environments) > 1
    learning_rows = []
    diag_rows = []
    for scale, env in environments:
        tail = [scale] if sweep else []
        records = run_learning_curve(env, config)
        for name in estimators:
            learning_rows += _curve_rows(records, config, name, tail)
        for record in records:
            values = vars(replace(record, step=record.step + 1))
            diag_rows.append(DIAGNOSTICS.row(values, tail))
    tables = {
        LEARNING_CURVE.name: (int(sweep), learning_rows),
        DIAGNOSTICS.name: (int(sweep), diag_rows),
    }
    return [f"config hash {cfg.hash()}"], True, tables


def run_experiment(cfg: Config, out_dir):
    """Execute a run config and write its output files."""
    return _execute(COMMANDS["run"], cfg, out_dir)


# ---------------------------------------------------------------------------
# variance check
# ---------------------------------------------------------------------------

# Replications drawn and fitted together: a memory bound on the rows and
# on the stacked SVD, not a setting.  The gradients do not depend on it;
# the test suite pins the same bits at chunk sizes 1, 7, 512 and 1,300.
REPLICATION_CHUNK = 512


def _deviation_in_ses(mean, target, se) -> np.ndarray:
    """|mean - target| in standard errors, tolerating exact estimators."""
    diff = np.abs(mean - target)
    ratio = np.divide(diff, se, out=np.full_like(diff, np.inf), where=se > 0.0)
    return np.where(diff < 1e-9, 0.0, ratio)


def variance_check(cfg: Config):
    """Monte Carlo validation of the covariance and bias laws.

    Returns (report lines, ok, tables), tables mapping
    ``variance_report.txt`` to the report lines.  The generative world
    is zero mean and the estimators run uncentered, the regime where the
    covariance laws are exact.  Covariance checks use a 10% relative
    Frobenius limit (empirical norm below 1e-12 when a law predicts
    exact recovery), mean checks a 3-standard-error limit.
    """
    a_pi = cfg.get_vector("synthetic.true_gradient", nonempty=True)
    a_s = cfg.get_vector("synthetic.sensor_slope")
    d, ds = a_pi.shape[0], a_s.shape[0]
    s2 = cfg.get_float("synthetic.output_variance", minimum=0.0)
    # A sensor direction without variance makes every joint design singular.
    sigma_s = cfg.get_cov("synthetic.sensor_cov", ds)
    sigma_e = cfg.get_cov("synthetic.exploration_cov", d)
    coupling = cfg.get_matrix("synthetic.policy_sensor_coupling", d, ds, [[0.0] * ds] * d)
    n = cfg.get_int("variance.trials_per_batch")
    reps = cfg.get_int("variance.replications", 20000, minimum=2)
    seed = cfg.get_int("seed")
    if n < d + ds + 2:
        raise ConfigError(
            f"{cfg.source}: key 'variance.trials_per_batch' must be at least "
            f"d + d_s + 2 = {d + ds + 2}"
        )
    cfg.check_unknown()
    world = SyntheticWorld(a_pi, a_s, s2, sigma_s, coupling)
    env = SyntheticEnv(world)
    keys = ["true_gradient", "sensor_slope", "output_variance", "exploration_cov", "sensor_cov"]
    keys += ["policy_sensor_coupling"] * cfg.has("synthetic.policy_sensor_coupling")
    named = [f"key 'synthetic.{key}'" for key in keys]
    scale_keys = f"{cfg.source}: {', '.join(named[:-1])} and {named[-1]} set scales"
    try:
        g1_draws, g2_draws = replicate_gradients(env, sigma_e, n, reps, seed)
    except EstimationError as exc:
        raise ConfigError(f"{scale_keys} the regressions cannot fit ({exc})") from exc

    pred1 = predicted_variance_g1(world, sigma_e, n)
    pred2 = predicted_variance_g2(world, sigma_e, n)
    g2_target, g2_target_label = a_pi, "true gradient"
    if world.coupled:
        g2_target = a_pi + predicted_bias_g2(world)
        g2_target_label += " plus predicted coupling bias"

    lines = [
        f"replications = {reps}, n = {n}, d = {d}, d_s = {ds}, "
        f"coupled = {'yes' if world.coupled else 'no'}"
    ]
    ok = True

    for name, draws, pred, target, target_label in (
        ("g1", g1_draws, pred1, a_pi, "true gradient"),
        ("g2", g2_draws, pred2, g2_target, g2_target_label),
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            pred_norm = float(np.linalg.norm(pred))
            exact = pred_norm < 1e-15
            empirical = np.cov(draws.T)
            error = float(
                np.linalg.norm(empirical) if exact
                else np.linalg.norm(empirical - pred) / pred_norm
            )
        if not np.isfinite(pred_norm):
            raise ConfigError(
                f"{cfg.source}: key 'synthetic.exploration_cov' sets covariance laws "
                "whose Frobenius norm overflows"
            )
        if not np.isfinite(error):
            raise ConfigError(f"{scale_keys} whose estimates' covariance overflows")
        lines += _matrix_lines(f"{name} predicted covariance:", pred)
        lines += _matrix_lines(f"{name} empirical covariance:", empirical)
        if exact:
            what, limit = "law predicts exact recovery; empirical covariance norm", 1e-12
        else:
            what, limit = "relative Frobenius error", 0.1
        cov_ok = error < limit if exact else error <= limit
        ok = ok and cov_ok
        lines.append(f"{name} {what} {error!r} (limit {limit!r}): " + ("ok" if cov_ok else "FAIL"))
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        devs = _deviation_in_ses(mean, target, se)
        dev_ok = bool(np.all(devs <= 3.0))
        ok = ok and dev_ok
        lines.append(f"{name} empirical mean {_vector_text(mean)}")
        lines.append(f"{name} expected mean ({target_label}) {_vector_text(target)}")
        lines.append(
            f"{name} mean deviation {_vector_text(devs)} standard errors "
            "(limit 3): " + ("ok" if dev_ok else "FAIL")
        )
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return lines, ok, {VARIANCE_REPORT.name: lines}


def replicate_gradients(env, exploration_cov, n: int, reps: int, seed: int):
    """Both estimators on ``reps`` independent zero-mean batches of ``n`` trials.

    The policies, drawn around the zero policy, come from one stream,
    ``substream(seed, VARIANCE, LEARN)``, and the trial noise from
    another, ``substream(seed, VARIANCE, EVAL)``; replication ``r``
    takes rows ``[r*n, (r+1)*n)`` of both.  The rows are drawn
    ``REPLICATION_CHUNK`` replications at a time, read on from the same
    two generators, which bounds memory without changing a bit.  Each
    chunk is reshaped to a stacked (count, n, ...) batch and fitted by
    one uncentered call of each estimator.  Returns the (reps, d) arrays
    of g1 and g2 gradients, d being the width of ``exploration_cov``.
    """
    d = exploration_cov.shape[0]
    nominal = np.zeros(d)
    policy_rng = substream(seed, VARIANCE, LEARN)
    noise_rng = substream(seed, VARIANCE, EVAL)
    g1_draws = np.empty((reps, d))
    g2_draws = np.empty((reps, d))
    root = psd_sqrt(exploration_cov)
    for first in range(0, reps, REPLICATION_CHUNK):
        count = min(REPLICATION_CHUNK, reps - first)
        policies = sample_exploration_policies(
            nominal, exploration_cov, count * n, policy_rng, root=root
        )
        trials = env.sample_trials(policies, noise_rng)
        stack = TrialBatch(
            trials.policies.reshape(count, n, -1),
            trials.scores.reshape(count, n),
            trials.sensors.reshape(count, n, -1),
            trials.flagged.reshape(count, n),
        )
        g1_draws[first : first + count] = estimate_g1(stack, center=False).gradient
        g2_draws[first : first + count] = estimate_g2(stack, center=False).gradient
    return g1_draws, g2_draws


def variance_check_experiment(cfg: Config, out_dir):
    """Run the variance check and persist its report."""
    return _execute(COMMANDS["variance-check"], cfg, out_dir)


# ---------------------------------------------------------------------------
# encoding search
# ---------------------------------------------------------------------------


# The generated problem's score: slope along the planted direction, and
# the standard deviation of its noise.
_PLANTED_SLOPE = 2.0
_PLANTED_NOISE_STD = 0.1


def encode_search(cfg: Config):
    """Projection search on a generated raw-sensor problem.

    Returns (report lines, ok, tables), tables mapping each output file
    but the config echo to its content.  The scores follow a single
    hidden direction through the raw sensors, and the report carries the
    recovered cosine.  The trace has one row per optimizer iteration
    actually performed.
    """
    raw_dim = cfg.get_int("encode.raw_dim", positive=True)
    samples = cfg.get_int("encode.samples")
    target_dim = cfg.get_int("encode.target_dim")
    policy_dim = cfg.get_int("encode.policy_dim", 2, positive=True)
    floor = cfg.get_float("encode.min_cosine") if cfg.has("encode.min_cosine") else None
    seed = cfg.get_int("seed")
    if not 1 <= target_dim <= raw_dim:
        raise ConfigError(
            f"{cfg.source}: key 'encode.target_dim' must lie in [1, raw_dim]"
        )
    if samples < policy_dim + target_dim + 3:
        raise ConfigError(
            f"{cfg.source}: key 'encode.samples' must be at least policy_dim + "
            f"target_dim + 3 = {policy_dim + target_dim + 3} for leave-one-out fits"
        )
    search = EncodingSearchConfig(
        target_dim=target_dim,
        max_iterations=cfg.get_int(
            "encode.max_iterations", EncodingSearchConfig.max_iterations, minimum=0
        ),
    )
    cfg.check_unknown()

    data_rng = substream(seed, ENCODE, 0)
    a_pi = data_rng.normal(size=policy_dim)
    policies = data_rng.normal(size=(samples, policy_dim))
    raw = data_rng.normal(size=(samples, raw_dim))
    direction = data_rng.normal(size=raw_dim)
    direction /= np.linalg.norm(direction)
    sensor_part = _PLANTED_SLOPE * (raw @ direction)
    noise = _PLANTED_NOISE_STD * data_rng.normal(size=samples)
    scores = policies @ a_pi + sensor_part + noise
    projection = optimize_projection(TrialBatch(policies, scores, raw), search)

    initial_cost = float(projection.cost_trace[0])
    iterations = len(projection.cost_trace) - 1
    lines = [
        f"samples = {samples}, raw_dim = {raw_dim}, target_dim = {target_dim}",
        f"initial loo cost {initial_cost!r}",
        f"final loo cost {projection.cost!r}",
        f"iterations performed {iterations}",
    ]
    cosine = float(np.linalg.norm(projection.matrix.T @ direction))
    lines.append(f"cosine_to_planted {cosine!r}")
    ok = floor is None or cosine >= floor
    if floor is not None:
        lines.append(f"cosine limit {floor!r}: " + ("ok" if ok else "FAIL"))
    lines.append("result: " + ("PASS" if ok else "FAIL"))

    projection_rows = [[i, *row] for i, row in enumerate(projection.matrix)]
    tables = {
        PROJECTION.name: (target_dim, projection_rows),
        ENCODE_TRACE.name: (0, list(enumerate(projection.cost_trace[1:], start=1))),
        ENCODE_REPORT.name: lines,
    }
    return lines, ok, tables


def encode_search_experiment(cfg: Config, out_dir):
    """Run the projection search and write its output files."""
    return _execute(COMMANDS["encode-search"], cfg, out_dir)


# ---------------------------------------------------------------------------
# commands and schema check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One config-driven subcommand, declared once.

    ``help`` is its CLI help.  ``compute`` maps the config to (stdout
    lines, ok, tables), tables holding the content of each of ``files``
    but the config echo; it refuses, before any work, a key it does not
    read.  ``entry`` names the module-level function that runs the
    command; the CLI looks it up by name at call time, so a wrapper
    rebound to that name (the benchmark tracer's) sees every call.
    """

    entry: str
    help: str
    compute: Callable
    files: tuple


COMMANDS = {
    "run": Command(
        "run_experiment",
        "run a learning-curve experiment",
        run_tables,
        (LEARNING_CURVE, DIAGNOSTICS, CONFIG_ECHO),
    ),
    "variance-check": Command(
        "variance_check_experiment",
        "validate the estimator covariance laws",
        variance_check,
        (VARIANCE_REPORT, CONFIG_ECHO),
    ),
    "encode-search": Command(
        "encode_search_experiment",
        "search for a sensor projection",
        encode_search,
        (PROJECTION, ENCODE_TRACE, ENCODE_REPORT, CONFIG_ECHO),
    ),
}

_OUTPUT_FILES = {file.name: file for c in COMMANDS.values() for file in c.files}


def _execute(command: Command, cfg: Config, out_dir):
    """Check the output directory, compute ``command`` and write its
    files: (stdout lines, ok, paths)."""
    cfg_hash = cfg.hash()
    prepare_out_dir(out_dir, cfg_hash)
    lines, ok, tables = command.compute(cfg)
    tables[CONFIG_ECHO.name] = canonical_text(cfg.values).splitlines()
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"unusable output directory {out_dir}: {exc}") from exc
    paths = []
    for file in command.files:
        paths.append(os.path.join(out_dir, file.name))
        file.write(paths[-1], cfg_hash, tables[file.name])
    return lines, ok, paths


def schema_check(out_dir):
    """Validate the files of one output directory.

    Returns (report lines, ok): the file names must be exactly one
    command's declared set, every file must carry the config-hash line,
    all hashes must agree, each file must match its declaration (CSV
    headers and cell kinds; the config echo hashes to the value it
    claims).
    """
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    names = sorted(
        name
        for name in os.listdir(out_dir)
        if os.path.isfile(os.path.join(out_dir, name))
    )
    if not names:
        raise ConfigError(f"output directory {out_dir} holds no files")
    problems = []
    file_sets = {
        command: sorted(file.name for file in spec.files)
        for command, spec in COMMANDS.items()
    }
    if names not in file_sets.values():
        problems.append(
            f"files {names} are not the output set of one command: "
            + "; ".join(f"{c} writes {fs}" for c, fs in file_sets.items())
        )
    hashes = {}
    for name in names:
        path = os.path.join(out_dir, name)
        claimed = _file_hash_line(path)
        if claimed is None:
            problems.append(f"{name}: missing config-hash line")
            continue
        hashes[name] = claimed
        file = _OUTPUT_FILES.get(name)
        problem = file.check(path, claimed) if file else "not a documented output file"
        if problem:
            problems.append(f"{name}: {problem}")
    if len(set(hashes.values())) > 1:
        problems.append(
            "files carry mixed config hashes: "
            + ", ".join(f"{k}={v[:12]}.." for k, v in sorted(hashes.items()))
        )
    lines = [f"checked {len(names)} files in {out_dir}"]
    lines += problems
    ok = not problems
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return lines, ok
