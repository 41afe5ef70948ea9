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
``diagnostics.csv``'s columns are ``StepRecord``'s fields.

A command accepts exactly the config keys that its readers read: each
compute function reads and validates all of its keys, then calls
``Config.check_unknown`` before any trial, pretraining, replication or
search runs.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Callable, get_type_hints

import numpy as np

from .config import Config, ConfigError, canonical_text, config_hash, parse_config_text
from .envs.arm import ArmWorld, DartEnv
from .envs.cannon import CannonEnv, CannonWorld
from .envs.synthetic import SyntheticEnv, SyntheticWorld
from .estimators import (
    NoiseSpec,
    TrialBatch,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
)
from .search import (
    ESTIMATORS,
    SearchConfig,
    StepRecord,
    check_exploration_cov,
    run_learning_curve,
    sample_exploration_policies,
)
from .seeding import ENCODE, EVAL, LEARN, PRETRAIN, VARIANCE, substream

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
    """Create the output directory; refuse one holding other-config files."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            continue
        existing = _file_hash_line(path)
        if existing is not None and existing != cfg_hash:
            raise ConfigError(
                f"output directory {out_dir} holds files from a different "
                f"config (found hash {existing[:12]}.., expected "
                f"{cfg_hash[:12]}..): refusing to mix results"
            )
    return out_dir


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


def _speed_angle_cov(cfg: Config, key: str) -> np.ndarray:
    """A (speed, angle) covariance from its diagonal, the angle in degrees^2."""
    diag = cfg.get_vector(key)
    if diag.shape[0] != 2:
        raise ConfigError(f"{cfg.source}: key '{key}' must have 2 entries")
    if np.any(diag < 0.0):
        raise ConfigError(f"{cfg.source}: key '{key}' entries must be nonnegative")
    return np.diag([diag[0], diag[1] * _DEG2])


def build_cannon_world(cfg: Config) -> CannonWorld:
    """Cannon world from config; an absent optional key keeps the
    ``CannonWorld`` default."""
    defaults = CannonWorld()
    sensor_key = "cannon.sensor_noise_diag"
    return CannonWorld(
        control_noise_cov=_speed_angle_cov(cfg, "cannon.control_noise_diag"),
        sensor_noise_cov=(
            _speed_angle_cov(cfg, sensor_key)
            if cfg.has(sensor_key)
            else defaults.sensor_noise_cov
        ),
        gravity=cfg.get_float("cannon.gravity", defaults.gravity),
        target_range=cfg.get_float("cannon.target_range", defaults.target_range),
    )


def build_arm_world(cfg: Config) -> ArmWorld:
    defaults = ArmWorld()
    def triple(key, fallback):
        value = cfg.get_vector(key, np.array(fallback))
        if value.shape[0] != 3:
            raise ConfigError(f"{cfg.source}: key '{key}' must have 3 entries")
        return tuple(float(v) for v in value)

    target = cfg.get_vector("dart.target_position", np.array(defaults.target_position))
    if target.shape[0] != 2:
        raise ConfigError(
            f"{cfg.source}: key 'dart.target_position' must have 2 entries"
        )
    return ArmWorld(
        kp=triple("dart.kp", defaults.kp),
        kd=triple("dart.kd", defaults.kd),
        torque_mult_std=triple("dart.torque_mult_std", defaults.torque_mult_std),
        torque_add_std=triple("dart.torque_add_std", defaults.torque_add_std),
        release_time_std=cfg.get_float(
            "dart.release_time_std", defaults.release_time_std
        ),
        start_posture=triple("dart.start_posture", defaults.start_posture),
        target_position=tuple(float(v) for v in target),
    )


# Optional search keys, each named after the ``SearchConfig`` field it
# sets; an absent key leaves that field's default.
_SEARCH_OPTIONS = {
    "step_rule": Config.get_str,
    "learning_rate": Config.get_float,
    "eval_trials_per_point": Config.get_int,
    "encoding_dim": Config.get_int,
    "encode_trials_per_step": Config.get_int,
    "encode_max_iterations": Config.get_int,
    "encode_restarts": Config.get_int,
}


def build_search_config(cfg: Config, estimator: str) -> SearchConfig:
    options = {
        name: read(cfg, f"search.{name}")
        for name, read in _SEARCH_OPTIONS.items()
        if cfg.has(f"search.{name}")
    }
    settings = dict(
        initial_policy=cfg.get_vector("search.initial_policy"),
        trials_per_step=cfg.get_int("search.trials_per_step"),
        exploration_cov=cfg.get_cov("search.exploration_cov"),
        steps=cfg.get_int("search.steps"),
        runs=cfg.get_int("search.runs"),
        seed=cfg.get_int("seed"),
        estimator=estimator,
        **options,
    )
    try:
        return SearchConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid search settings: {exc}") from exc


def _read_environments(cfg: Config):
    """Read the environment keys; returns a function that builds the
    environment per noise scale, pretraining the dart model if needed."""
    environment = cfg.get_str("run.environment")
    scales = [float(s) for s in cfg.get_vector("run.noise_scales", np.array([1.0]))]
    if not scales:
        raise ConfigError(f"{cfg.source}: key 'run.noise_scales' must be nonempty")
    if environment == "cannon":
        world = build_cannon_world(cfg)
        return lambda: [(s, CannonEnv(world, noise_scale=s)) for s in scales]
    if environment == "dart":
        if scales != [1.0]:
            raise ConfigError(
                f"{cfg.source}: key 'run.noise_scales' applies to the cannon "
                "environment only"
            )
        world = build_arm_world(cfg)
        initial = cfg.get_vector("search.initial_policy")
        if initial.shape[0] != world.policy_dim:
            raise ConfigError(
                f"{cfg.source}: key 'search.initial_policy' must have "
                f"{world.policy_dim} entries for the dart environment"
            )
        count = cfg.get_int("dart.pretrain_states", 2000)
        spread = cfg.get_float("dart.pretrain_policy_cov", 0.01)
        seed = cfg.get_int("seed")

        def pretrained():
            from .dynamics_sensors import fit_dynamics_model, sample_pretraining_states

            states = sample_pretraining_states(
                world,
                count,
                substream(seed, PRETRAIN),
                policy_mean=initial,
                policy_cov=spread * np.eye(world.policy_dim),
            )
            return [(1.0, DartEnv(world, fit_dynamics_model(world, states)))]

        return pretrained
    raise ConfigError(
        f"{cfg.source}: key 'run.environment' must be cannon or dart, "
        f"got {environment!r}"
    )


# ---------------------------------------------------------------------------
# run experiment
# ---------------------------------------------------------------------------


def run_tables(cfg: Config):
    """Learning-curve and diagnostics rows for a run config.

    Returns (tables, curves): tables maps ``learning_curve.csv`` and
    ``diagnostics.csv`` to their content, and curves maps (noise_scale,
    estimator) to the LearningCurve.  The ``noise_scale`` column ends
    both files only when the sweep has more than one scale, keeping the
    single-scale files at their pinned columns.
    """
    estimators = cfg.get_str_list("run.estimators")
    if not estimators:
        raise ConfigError(f"{cfg.source}: key 'run.estimators' must be nonempty")
    for name in estimators:
        if name not in ESTIMATORS:
            raise ConfigError(
                f"{cfg.source}: key 'run.estimators' holds unknown estimator "
                f"{name!r} (choose from {', '.join(ESTIMATORS)})"
            )
    if len(set(estimators)) != len(estimators):
        raise ConfigError(f"{cfg.source}: key 'run.estimators' repeats an entry")
    configs = {name: build_search_config(cfg, name) for name in estimators}
    build_environments = _read_environments(cfg)
    cfg.check_unknown()
    environments = build_environments()
    sweep = len(environments) > 1
    learning_rows = []
    diag_rows = []
    curves = {}
    for scale, env in environments:
        tail = [scale] if sweep else []
        for estimator in estimators:
            curve = run_learning_curve(env, configs[estimator])
            curves[(scale, estimator)] = curve
            for step, (mean, error) in enumerate(
                zip(curve.mean_values, curve.std_errors), start=1
            ):
                point = dict(
                    step=step,
                    estimator=estimator,
                    mean_value=mean,
                    std_error=error,
                    runs=curve.completed_runs,
                )
                learning_rows.append(LEARNING_CURVE.row(point, tail))
            for record in curve.diagnostics:
                values = vars(replace(record, step=record.step + 1))
                diag_rows.append(DIAGNOSTICS.row(values, tail))
    tables = {
        LEARNING_CURVE.name: (int(sweep), learning_rows),
        DIAGNOSTICS.name: (int(sweep), diag_rows),
    }
    return tables, curves


def _run_outputs(cfg: Config):
    tables, _ = run_tables(cfg)
    return [f"config hash {cfg.hash()}"], True, tables


def run_experiment(cfg: Config, out_dir):
    """Execute a run config and write its output files."""
    return _execute(COMMANDS["run"], cfg, out_dir)


# ---------------------------------------------------------------------------
# variance check
# ---------------------------------------------------------------------------

# Replications whose rows are drawn together: a memory bound, not a
# setting.  The draws do not depend on it; the sampler is elementwise,
# and the test suite pins that the policies' BLAS product rounds each
# row alike at chunk sizes 7, 512 and 1,300.
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
    a_pi = cfg.get_vector("synthetic.true_gradient")
    a_s = cfg.get_vector("synthetic.sensor_slope")
    s2 = cfg.get_float("synthetic.output_variance")
    sigma_s = cfg.get_cov("synthetic.sensor_cov")
    sigma_e = cfg.get_cov("synthetic.exploration_cov")
    coupling = (
        cfg.get_matrix("synthetic.policy_sensor_coupling")
        if cfg.has("synthetic.policy_sensor_coupling")
        else None
    )
    n = cfg.get_int("variance.trials_per_batch")
    reps = cfg.get_int("variance.replications", 20000)
    seed = cfg.get_int("seed")
    if reps < 2:
        raise ConfigError(f"{cfg.source}: key 'variance.replications' must be >= 2")
    d = a_pi.shape[0]
    ds = a_s.shape[0]
    if n < d + ds + 2:
        raise ConfigError(
            f"{cfg.source}: key 'variance.trials_per_batch' must be at least "
            f"d + d_s + 2 = {d + ds + 2}"
        )
    coupled = coupling is not None and bool(np.any(coupling != 0.0))
    try:
        noise = NoiseSpec(
            output_variance=s2, sensor_cov=sigma_s, policy_sensor_coupling=coupling
        )
        world = SyntheticWorld(a_pi, a_s, 0.0, noise)
        check_exploration_cov(sigma_e, d)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid synthetic world: {exc}") from exc
    cfg.check_unknown()
    env = SyntheticEnv(world, correlated=coupled)
    g1_draws, g2_draws = replicate_gradients(env, sigma_e, n, reps, seed)

    pred1 = predicted_variance_g1(sigma_e, noise, a_s, n, d)
    pred2 = predicted_variance_g2(sigma_e, noise, n, d, ds)
    if coupled:
        g2_target = a_pi + predicted_bias_g2(noise, a_s)
        g2_target_label = "true gradient plus predicted coupling bias"
    else:
        g2_target = a_pi
        g2_target_label = "true gradient"

    lines = [
        f"replications = {reps}, n = {n}, d = {d}, d_s = {ds}, "
        f"coupled = {'yes' if coupled else 'no'}"
    ]
    ok = True

    for name, draws, pred, target, target_label in (
        ("g1", g1_draws, pred1, a_pi, "true gradient"),
        ("g2", g2_draws, pred2, g2_target, g2_target_label),
    ):
        empirical = np.cov(draws.T)
        lines += _matrix_lines(f"{name} predicted covariance:", pred)
        lines += _matrix_lines(f"{name} empirical covariance:", empirical)
        pred_norm = float(np.linalg.norm(pred))
        if pred_norm < 1e-15:
            emp_norm = float(np.linalg.norm(empirical))
            exact_ok = emp_norm < 1e-12
            ok = ok and exact_ok
            lines.append(
                f"{name} law predicts exact recovery; empirical covariance "
                f"norm {emp_norm!r} (limit 1e-12): "
                + ("ok" if exact_ok else "FAIL")
            )
        else:
            rel = float(np.linalg.norm(empirical - pred) / pred_norm)
            rel_ok = rel <= 0.10
            ok = ok and rel_ok
            lines.append(
                f"{name} relative Frobenius error {rel!r} (limit 0.1): "
                + ("ok" if rel_ok else "FAIL")
            )
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
    two generators, which bounds memory without changing a bit.  Both
    estimators run uncentered.  Returns the (reps, d) arrays of g1 and
    g2 gradients.
    """
    nominal = np.zeros(env.policy_dim)
    policy_rng = substream(seed, VARIANCE, LEARN)
    noise_rng = substream(seed, VARIANCE, EVAL)
    g1_draws = np.empty((reps, env.policy_dim))
    g2_draws = np.empty((reps, env.policy_dim))
    for first in range(0, reps, REPLICATION_CHUNK):
        count = min(REPLICATION_CHUNK, reps - first)
        policies = sample_exploration_policies(
            nominal, exploration_cov, count * n, policy_rng
        )
        trials = env.sample_trials(policies, noise_rng)
        for i in range(count):
            batch = trials.rows(slice(i * n, (i + 1) * n))
            g1_draws[first + i] = estimate_g1(batch, center=False).gradient
            g2_draws[first + i] = estimate_g2(batch, center=False).gradient
    return g1_draws, g2_draws


def variance_check_experiment(cfg: Config, out_dir):
    """Run the variance check and persist its report."""
    return _execute(COMMANDS["variance-check"], cfg, out_dir)


# ---------------------------------------------------------------------------
# encoding search
# ---------------------------------------------------------------------------


def encode_search(cfg: Config):
    """Projection search on a generated raw-sensor problem.

    Returns (report lines, ok, tables), tables mapping each output file
    but the config echo to its content.  With ``encode.planted`` the
    scores follow a single hidden direction through the raw sensors and
    the report carries the recovered cosine; otherwise every raw
    coordinate feeds the score.  The trace has one row per optimizer
    iteration actually performed.
    """
    from .encoding import EncodingSearchConfig, optimize_projection

    raw_dim = cfg.get_int("encode.raw_dim")
    samples = cfg.get_int("encode.samples")
    target_dim = cfg.get_int("encode.target_dim")
    policy_dim = cfg.get_int("encode.policy_dim", 2)
    signal_scale = cfg.get_float("encode.signal_scale", 2.0)
    noise_std = cfg.get_float("encode.noise_std", 0.1)
    planted = cfg.get_bool("encode.planted", True)
    # The cosine limit exists only for a planted direction.
    has_floor = planted and cfg.has("encode.min_cosine")
    floor = cfg.get_float("encode.min_cosine") if has_floor else None
    max_iterations = cfg.get_int(
        "encode.max_iterations", EncodingSearchConfig.max_iterations
    )
    restarts = cfg.get_int("encode.restarts", EncodingSearchConfig.restarts)
    seed = cfg.get_int("seed")
    if raw_dim < 1 or policy_dim < 1:
        raise ConfigError(f"{cfg.source}: encode dimensions must be positive")
    if not 0 <= target_dim <= raw_dim:
        raise ConfigError(
            f"{cfg.source}: key 'encode.target_dim' must lie in [0, raw_dim]"
        )
    if planted and target_dim < 1:
        raise ConfigError(
            f"{cfg.source}: key 'encode.target_dim' must be >= 1 when a "
            "direction is planted"
        )
    if samples < policy_dim + target_dim + 3:
        raise ConfigError(
            f"{cfg.source}: key 'encode.samples' must be at least policy_dim + "
            f"target_dim + 3 = {policy_dim + target_dim + 3} for leave-one-out fits"
        )
    try:
        search = EncodingSearchConfig(
            target_dim=target_dim,
            max_iterations=max_iterations,
            restarts=restarts,
            seed=int(substream(seed, ENCODE, 1).integers(0, 2**32)),
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid encode settings: {exc}") from exc
    cfg.check_unknown()

    data_rng = substream(seed, ENCODE, 0)
    a_pi = data_rng.normal(size=policy_dim)
    policies = data_rng.normal(size=(samples, policy_dim))
    raw = data_rng.normal(size=(samples, raw_dim))
    if planted:
        direction = data_rng.normal(size=raw_dim)
        direction /= np.linalg.norm(direction)
        sensor_part = signal_scale * (raw @ direction)
    else:
        direction = None
        slopes = data_rng.normal(size=raw_dim)
        sensor_part = raw @ slopes
    scores = policies @ a_pi + sensor_part + noise_std * data_rng.normal(size=samples)
    projection = optimize_projection(TrialBatch(policies, scores, raw, raw), search)

    initial_cost = float(projection.cost_trace[0])
    iterations = len(projection.cost_trace) - 1
    lines = [
        f"samples = {samples}, raw_dim = {raw_dim}, target_dim = {target_dim}",
        f"initial loo cost {initial_cost!r}",
        f"final loo cost {projection.cost!r}",
        f"iterations performed {iterations}",
    ]
    ok = projection.cost <= initial_cost + 1e-12
    if not ok:
        lines.append("FAIL: final cost above initial cost")
    if planted:
        overlap = projection.matrix.T @ direction
        cosine = float(np.linalg.norm(overlap))
        lines.append(f"cosine_to_planted {cosine!r}")
        if floor is not None:
            cos_ok = cosine >= floor
            ok = ok and cos_ok
            lines.append(
                f"cosine limit {floor!r}: " + ("ok" if cos_ok else "FAIL")
            )
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
        _run_outputs,
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
    """Compute ``command`` and write its files: (stdout lines, ok, paths)."""
    lines, ok, tables = command.compute(cfg)
    tables[CONFIG_ECHO.name] = canonical_text(cfg.values).splitlines()
    cfg_hash = cfg.hash()
    prepare_out_dir(out_dir, cfg_hash)
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
