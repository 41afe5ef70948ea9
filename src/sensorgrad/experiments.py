"""Experiment harness behind the command line.

Turns parsed configurations into worlds, runs the four experiment
kinds (learning-curve runs, variance-law validation, projection
search, output schema validation), and owns the output-file
conventions: every file starts with a ``# config_hash=`` line tying it
to the exact configuration, floats are written with ``repr`` so reruns
are byte-identical, and nothing time- or host-dependent is ever
written.
"""

from __future__ import annotations

import csv
import io
import os

import numpy as np

from .config import Config, ConfigError, canonical_text
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
    check_exploration_cov,
    run_learning_curve,
    sample_exploration_policies,
)
from .seeding import ENCODE, EVAL, LEARN, PRETRAIN, children, substream

__all__ = [
    "HASH_PREFIX",
    "prepare_out_dir",
    "write_csv",
    "write_text",
    "run_experiment",
    "variance_check",
    "replicate_gradients",
    "encode_search",
    "schema_check",
]

HASH_PREFIX = "# config_hash="

_DEG2 = (np.pi / 180.0) ** 2

_COMMON_KEYS = {"seed", "output.dir"}

_SEARCH_KEYS = {
    "search.initial_policy",
    "search.trials_per_step",
    "search.exploration_cov",
    "search.steps",
    "search.runs",
    "search.learning_rate",
    "search.step_rule",
    "search.eval_trials_per_point",
    "search.encoding_dim",
    "search.encode_trials_per_step",
    "search.encode_max_iterations",
    "search.encode_restarts",
}

_CANNON_KEYS = {
    "cannon.control_noise_diag",
    "cannon.sensor_noise_diag",
    "cannon.gravity",
    "cannon.target_range",
}

_DART_KEYS = {
    "dart.torque_mult_std",
    "dart.torque_add_std",
    "dart.release_time_std",
    "dart.kp",
    "dart.kd",
    "dart.start_posture",
    "dart.target_position",
    "dart.pretrain_states",
    "dart.pretrain_policy_cov",
}

RUN_KEYS = (
    _COMMON_KEYS
    | {"run.environment", "run.estimators", "run.noise_scales"}
    | _SEARCH_KEYS
    | _CANNON_KEYS
    | _DART_KEYS
)

VARIANCE_KEYS = _COMMON_KEYS | {
    "synthetic.true_gradient",
    "synthetic.sensor_slope",
    "synthetic.output_variance",
    "synthetic.sensor_cov",
    "synthetic.exploration_cov",
    "synthetic.policy_sensor_coupling",
    "variance.trials_per_batch",
    "variance.replications",
}

ENCODE_KEYS = _COMMON_KEYS | {
    "encode.raw_dim",
    "encode.samples",
    "encode.target_dim",
    "encode.policy_dim",
    "encode.signal_scale",
    "encode.noise_std",
    "encode.planted",
    "encode.max_iterations",
    "encode.restarts",
    "encode.min_cosine",
}

LEARNING_CURVE_COLUMNS = ("step", "estimator", "mean_value", "std_error", "runs")

DIAGNOSTICS_COLUMNS = (
    "estimator",
    "run",
    "step",
    "gradient_norm",
    "loo_cost",
    "mean_trial_score",
    "flagged",
    "retried",
    "eval_mean",
    "eval_std_error",
    "error",
)


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
# world and search-config builders
# ---------------------------------------------------------------------------


def _require_psd_diag(cfg: Config, key: str, size: int) -> np.ndarray:
    diag = cfg.get_vector(key)
    if diag.shape[0] != size:
        raise ConfigError(f"{cfg.source}: key '{key}' must have {size} entries")
    if np.any(diag < 0.0):
        raise ConfigError(f"{cfg.source}: key '{key}' entries must be nonnegative")
    return diag


def build_cannon_world(cfg: Config) -> CannonWorld:
    """Cannon world from config; angle variances are given in degrees^2."""
    control = _require_psd_diag(cfg, "cannon.control_noise_diag", 2)
    sensor = cfg.get_vector("cannon.sensor_noise_diag", np.array([0.01, 0.04]))
    if sensor.shape[0] != 2 or np.any(sensor < 0.0):
        raise ConfigError(
            f"{cfg.source}: key 'cannon.sensor_noise_diag' must be two "
            "nonnegative entries"
        )
    return CannonWorld(
        control_noise_cov=np.diag([control[0], control[1] * _DEG2]),
        sensor_noise_cov=np.diag([sensor[0], sensor[1] * _DEG2]),
        gravity=cfg.get_float("cannon.gravity", 9.8),
        target_range=cfg.get_float("cannon.target_range", 400.0 / 9.8),
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


def build_search_config(cfg: Config, estimator: str) -> SearchConfig:
    initial = cfg.get_vector("search.initial_policy")
    cov = cfg.get_cov("search.exploration_cov")
    try:
        return SearchConfig(
            initial_policy=initial,
            trials_per_step=cfg.get_int("search.trials_per_step"),
            exploration_cov=cov,
            steps=cfg.get_int("search.steps"),
            runs=cfg.get_int("search.runs"),
            seed=cfg.get_int("seed"),
            estimator=estimator,
            step_rule=cfg.get_str("search.step_rule", "normalized"),
            learning_rate=cfg.get_float("search.learning_rate", 0.1),
            eval_trials_per_point=cfg.get_int("search.eval_trials_per_point", 20),
            encoding_dim=cfg.get_int("search.encoding_dim", 1),
            encode_trials_per_step=cfg.get_int("search.encode_trials_per_step", 0),
            encode_max_iterations=cfg.get_int("search.encode_max_iterations", 60),
            encode_restarts=cfg.get_int("search.encode_restarts", 3),
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid search settings: {exc}") from exc


def _build_environments(cfg: Config):
    """Environment per noise scale, pretraining the dart model if needed."""
    environment = cfg.get_str("run.environment")
    scales = [float(s) for s in cfg.get_vector("run.noise_scales", np.array([1.0]))]
    if not scales:
        raise ConfigError(f"{cfg.source}: key 'run.noise_scales' must be nonempty")
    if environment == "cannon":
        world = build_cannon_world(cfg)
        return [(scale, CannonEnv(world, noise_scale=scale)) for scale in scales]
    if environment == "dart":
        from .dynamics_sensors import fit_dynamics_model, sample_pretraining_states

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
        states = sample_pretraining_states(
            world,
            count,
            substream(cfg.get_int("seed"), PRETRAIN),
            policy_mean=initial,
            policy_cov=spread * np.eye(world.policy_dim),
        )
        model = fit_dynamics_model(world, states)
        return [(1.0, DartEnv(world, model))]
    raise ConfigError(
        f"{cfg.source}: key 'run.environment' must be cannon or dart, "
        f"got {environment!r}"
    )


# ---------------------------------------------------------------------------
# run experiment
# ---------------------------------------------------------------------------


def run_tables(cfg: Config):
    """Learning-curve and diagnostics tables for a run config.

    Returns (learning_header, learning_rows, diag_header, diag_rows,
    curves) where curves maps (noise_scale, estimator) to the
    LearningCurve.  A ``noise_scale`` column is appended to both tables
    only when the sweep has more than one scale, keeping the
    single-scale schema exactly at its five pinned columns.
    """
    cfg.check_unknown(RUN_KEYS)
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
    # Bad search settings, such as a singular exploration covariance, fail
    # here, before the dart pretraining simulates anything.
    configs = {name: build_search_config(cfg, name) for name in estimators}
    environments = _build_environments(cfg)
    sweep = len(environments) > 1
    learning_header = list(LEARNING_CURVE_COLUMNS) + (["noise_scale"] if sweep else [])
    diag_header = list(DIAGNOSTICS_COLUMNS) + (["noise_scale"] if sweep else [])
    learning_rows = []
    diag_rows = []
    curves = {}
    for scale, env in environments:
        for estimator in estimators:
            curve = run_learning_curve(env, configs[estimator])
            curves[(scale, estimator)] = curve
            for step in range(curve.mean_values.shape[0]):
                row = [
                    step + 1,
                    estimator,
                    float(curve.mean_values[step]),
                    float(curve.std_errors[step]),
                    curve.completed_runs,
                ]
                if sweep:
                    row.append(scale)
                learning_rows.append(row)
            for record in curve.diagnostics:
                row = [
                    record.estimator,
                    record.run,
                    record.step + 1,
                    record.gradient_norm,
                    record.loo_cost,
                    record.mean_trial_score,
                    record.flagged_count,
                    record.retried,
                    record.eval_mean,
                    record.eval_std_error,
                    record.error,
                ]
                if sweep:
                    row.append(scale)
                diag_rows.append(row)
    return learning_header, learning_rows, diag_header, diag_rows, curves


def run_experiment(cfg: Config, out_dir) -> list:
    """Execute a run config and write its output files."""
    learning_header, learning_rows, diag_header, diag_rows, _ = run_tables(cfg)
    cfg_hash = cfg.hash()
    prepare_out_dir(out_dir, cfg_hash)
    curve_path = os.path.join(out_dir, "learning_curve.csv")
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    echo_path = os.path.join(out_dir, "config_echo.cfg")
    write_csv(curve_path, cfg_hash, learning_header, learning_rows)
    write_csv(diag_path, cfg_hash, diag_header, diag_rows)
    write_text(echo_path, cfg_hash, canonical_text(cfg.values).splitlines())
    return [curve_path, diag_path, echo_path]


# ---------------------------------------------------------------------------
# variance check
# ---------------------------------------------------------------------------


def _deviation_in_ses(mean, target, se) -> np.ndarray:
    """|mean - target| in standard errors, tolerating exact estimators."""
    diff = np.abs(mean - target)
    out = np.empty_like(diff)
    for i in range(diff.shape[0]):
        if diff[i] < 1e-9:
            out[i] = 0.0
        elif se[i] > 0.0:
            out[i] = diff[i] / se[i]
        else:
            out[i] = np.inf
    return out


def variance_check(cfg: Config):
    """Monte Carlo validation of the covariance and bias laws.

    Returns (report lines, ok).  The generative world is zero mean and
    the estimators run uncentered, the regime where the covariance laws
    are exact.  Covariance checks use a 10% relative Frobenius limit
    (empirical norm below 1e-12 when a law predicts exact recovery),
    mean checks a 3-standard-error limit.
    """
    cfg.check_unknown(VARIANCE_KEYS)
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
    coupled = coupling is not None and bool(np.any(coupling != 0.0))
    try:
        noise = NoiseSpec(
            output_variance=s2, sensor_cov=sigma_s, policy_sensor_coupling=coupling
        )
        world = SyntheticWorld(a_pi, a_s, 0.0, noise)
        check_exploration_cov(sigma_e, d)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid synthetic world: {exc}") from exc
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
    return lines, ok


def replicate_gradients(env, exploration_cov, n: int, reps: int, seed: int):
    """Both estimators on ``reps`` independent zero-mean batches of ``n`` trials.

    Replication ``rep`` draws its policies around the zero policy from
    ``substream(seed, rep, LEARN)`` and its trials from children of
    ``substream(seed, rep, EVAL)``; both estimators run uncentered.
    Returns the (reps, d) arrays of g1 and g2 gradients.
    """
    nominal = np.zeros(env.policy_dim)
    g1_draws = np.empty((reps, env.policy_dim))
    g2_draws = np.empty((reps, env.policy_dim))
    for rep in range(reps):
        policies = sample_exploration_policies(
            nominal, exploration_cov, n, substream(seed, rep, LEARN)
        )
        batch = env.sample_trials(policies, children(substream(seed, rep, EVAL), n))
        g1_draws[rep] = estimate_g1(batch, center=False).gradient
        g2_draws[rep] = estimate_g2(batch, center=False).gradient
    return g1_draws, g2_draws


def variance_check_experiment(cfg: Config, out_dir):
    """Run the variance check and persist its report."""
    lines, ok = variance_check(cfg)
    cfg_hash = cfg.hash()
    prepare_out_dir(out_dir, cfg_hash)
    report_path = os.path.join(out_dir, "variance_report.txt")
    write_text(report_path, cfg_hash, lines)
    echo_path = os.path.join(out_dir, "config_echo.cfg")
    write_text(echo_path, cfg_hash, canonical_text(cfg.values).splitlines())
    return lines, ok, [report_path, echo_path]


# ---------------------------------------------------------------------------
# encoding search
# ---------------------------------------------------------------------------


def encode_search_tables(cfg: Config):
    """Projection search on a generated raw-sensor problem.

    Returns (report lines, ok, projection rows, trace rows).  With
    ``encode.planted`` the scores follow a single hidden direction
    through the raw sensors and the report carries the recovered
    cosine; otherwise every raw coordinate feeds the score.  The trace
    has one row per optimizer iteration actually performed.
    """
    cfg.check_unknown(ENCODE_KEYS)
    raw_dim = cfg.get_int("encode.raw_dim")
    samples = cfg.get_int("encode.samples")
    target_dim = cfg.get_int("encode.target_dim")
    policy_dim = cfg.get_int("encode.policy_dim", 2)
    signal_scale = cfg.get_float("encode.signal_scale", 2.0)
    noise_std = cfg.get_float("encode.noise_std", 0.1)
    planted = cfg.get_bool("encode.planted", True)
    seed = cfg.get_int("seed")
    if raw_dim < 1 or samples < 1 or policy_dim < 1:
        raise ConfigError(
            f"{cfg.source}: encode dimensions and sample count must be positive"
        )
    if not 0 <= target_dim <= raw_dim:
        raise ConfigError(
            f"{cfg.source}: key 'encode.target_dim' must lie in [0, raw_dim]"
        )
    if planted and target_dim < 1:
        raise ConfigError(
            f"{cfg.source}: key 'encode.target_dim' must be >= 1 when a "
            "direction is planted"
        )

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
    batch = TrialBatch(policies, scores, raw, raw)
    search_seed = int(substream(seed, ENCODE, 1).integers(0, 2**32))
    from .encoding import EncodingSearchConfig, optimize_projection

    search = EncodingSearchConfig(
        target_dim=target_dim,
        max_iterations=cfg.get_int("encode.max_iterations", 60),
        restarts=cfg.get_int("encode.restarts", 3),
        seed=search_seed,
    )
    projection = optimize_projection(batch, search)

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
        if cfg.has("encode.min_cosine"):
            floor = cfg.get_float("encode.min_cosine")
            cos_ok = cosine >= floor
            ok = ok and cos_ok
            lines.append(
                f"cosine limit {floor!r}: " + ("ok" if cos_ok else "FAIL")
            )
    lines.append("result: " + ("PASS" if ok else "FAIL"))

    projection_rows = [
        [i] + [float(v) for v in projection.matrix[i]] for i in range(raw_dim)
    ]
    trace_rows = [
        [i + 1, float(cost)] for i, cost in enumerate(projection.cost_trace[1:])
    ]
    return lines, ok, projection_rows, trace_rows


def encode_search_experiment(cfg: Config, out_dir):
    """Run the projection search and write its output files."""
    lines, ok, projection_rows, trace_rows = encode_search_tables(cfg)
    cfg_hash = cfg.hash()
    prepare_out_dir(out_dir, cfg_hash)
    target_dim = len(projection_rows[0]) - 1 if projection_rows else 0
    projection_path = os.path.join(out_dir, "projection.csv")
    trace_path = os.path.join(out_dir, "encode_trace.csv")
    report_path = os.path.join(out_dir, "encode_report.txt")
    echo_path = os.path.join(out_dir, "config_echo.cfg")
    write_csv(
        projection_path,
        cfg_hash,
        ["raw_index"] + [f"c{j}" for j in range(target_dim)],
        projection_rows,
    )
    write_csv(trace_path, cfg_hash, ["iteration", "cost"], trace_rows)
    write_text(report_path, cfg_hash, lines)
    write_text(echo_path, cfg_hash, canonical_text(cfg.values).splitlines())
    return lines, ok, [projection_path, trace_path, report_path, echo_path]


# ---------------------------------------------------------------------------
# schema check
# ---------------------------------------------------------------------------


def _int_cell(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def _float_cell(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


_CSV_SCHEMAS = {
    "learning_curve.csv": (
        list(LEARNING_CURVE_COLUMNS),
        [_int_cell, None, _float_cell, _float_cell, _int_cell],
    ),
    "diagnostics.csv": (
        list(DIAGNOSTICS_COLUMNS),
        [
            None,
            _int_cell,
            _int_cell,
            _float_cell,
            _float_cell,
            _float_cell,
            _int_cell,
            None,
            _float_cell,
            _float_cell,
            None,
        ],
    ),
    "encode_trace.csv": (["iteration", "cost"], [_int_cell, _float_cell]),
}


def _check_csv(path, name: str, problems: list) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith(HASH_PREFIX):
            problems.append(f"{name}: missing config-hash line")
            return
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            problems.append(f"{name}: missing header row")
            return
        if name == "projection.csv":
            expected = ["raw_index"] + [f"c{j}" for j in range(len(header) - 1)]
            checks = [_int_cell] + [_float_cell] * (len(header) - 1)
        else:
            expected, checks = _CSV_SCHEMAS[name]
            if header == expected + ["noise_scale"]:
                expected = expected + ["noise_scale"]
                checks = checks + [_float_cell]
        if header != expected:
            problems.append(
                f"{name}: header {header} does not match the documented "
                f"schema {expected}"
            )
            return
        for row_number, row in enumerate(reader, start=3):
            if len(row) != len(header):
                problems.append(
                    f"{name}: row {row_number} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
                return
            for check, cell, column in zip(checks, row, header):
                if check is not None and not check(cell):
                    problems.append(
                        f"{name}: row {row_number} column '{column}' holds "
                        f"unparseable value {cell!r}"
                    )
                    return


def schema_check(out_dir):
    """Validate the files of one output directory.

    Returns (report lines, ok): every file must carry the config-hash
    line, all hashes must agree, CSV headers and cell types must match
    the documented schemas, and the config echo must hash to the value
    it claims.
    """
    from .config import parse_config_text, config_hash as hash_of

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
    hashes = {}
    for name in names:
        path = os.path.join(out_dir, name)
        claimed = _file_hash_line(path)
        if claimed is None:
            problems.append(f"{name}: missing config-hash line")
            continue
        hashes[name] = claimed
        if name in _CSV_SCHEMAS or name == "projection.csv":
            _check_csv(path, name, problems)
        elif name == "config_echo.cfg":
            with open(path, "r", encoding="utf-8") as handle:
                body = "".join(handle.readlines()[1:])
            try:
                actual = hash_of(parse_config_text(body, source=name))
            except ConfigError as exc:
                problems.append(f"{name}: unparseable config echo: {exc}")
            else:
                if actual != claimed:
                    problems.append(
                        f"{name}: config echo hashes to {actual[:12]}.. but "
                        f"claims {claimed[:12]}.."
                    )
        elif not name.endswith(".txt"):
            problems.append(f"{name}: not a documented output file")
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
