"""Acceptance suite: one pass/fail verdict per shipped claim.

Each test prints a single ``criterion NN (...): PASS/FAIL`` line (shown
in the pytest summary) and then asserts, so the suite doubles as a
checklist of everything the package promises: the two covariance laws,
exactness and bias results for the joint estimator, environment-level
orderings, the encoding search, the dynamics-residual pipeline, and
byte-identical reruns.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from test_encoding import brute_force_loo, planted_batch

from sensorgrad.cli import main
from sensorgrad.config import load_config
from sensorgrad.dynamics_sensors import (
    encode_dart_batch,
    fit_dynamics_model,
    sample_pretraining_states,
    velocity_residuals,
)
from sensorgrad.encoding import EncodingSearchConfig, loo_cost, optimize_projection
from sensorgrad.envs.arm import (
    ArmWorld,
    DartEnv,
    commanded_torques,
    dart_trials,
    split_dart_sensors,
)
from sensorgrad.envs.cannon import CannonEnv, CannonWorld, cannon_true_value
from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import (
    TrialBatch,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
)
from sensorgrad.experiments import (
    DIAGNOSTICS,
    build_search_configs,
    replicate_gradients,
    run_tables,
)
from sensorgrad.search import run_learning_curve, sample_exploration_policies
from sensorgrad.seeding import EVAL, LEARN, PRETRAIN, children, substream

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

A_PI = np.array([1.5, -0.7])
A_S = np.array([0.8, -1.2])
OUTPUT_VARIANCE = 0.09
SENSOR_COV = np.array([[0.2, -0.05], [-0.05, 0.4]])
EXPLORATION_COV = np.array([[0.5, 0.1], [0.1, 0.3]])
COUPLING = np.array([[0.6, -0.3], [0.2, 0.5]])
TRIALS_PER_BATCH = 12
REPLICATIONS = 20000


def _final_evaluations(rows) -> dict:
    """Each completed run's last evaluation, by run, from step records as
    dicts (a run with an error row did not complete)."""
    failed = {row["run"] for row in rows if row["error"]}
    last = max(row["step"] for row in rows)
    return {
        row["run"]: row["eval_mean"]
        for row in rows
        if row["step"] == last and row["run"] not in failed
    }


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} ({title}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _law_sweep(root_seed: int, correlated: bool):
    """Replicated zero-mean batches; both estimators run uncentered."""
    world = SyntheticWorld(
        A_PI, A_S, OUTPUT_VARIANCE, SENSOR_COV, COUPLING if correlated else None
    )
    env = SyntheticEnv(world)
    g1_draws, g2_draws = replicate_gradients(
        env, EXPLORATION_COV, TRIALS_PER_BATCH, REPLICATIONS, root_seed
    )
    return g1_draws, g2_draws, world


@pytest.fixture(scope="module")
def plain_sweep():
    start = time.perf_counter()
    g1_draws, g2_draws, world = _law_sweep(11, correlated=False)
    return g1_draws, g2_draws, world, time.perf_counter() - start


@pytest.fixture(scope="module")
def correlated_sweep():
    return _law_sweep(45, correlated=True)


@pytest.fixture(scope="module")
def dart_setup():
    cfg = load_config(CONFIG_DIR / "dart_search.cfg")
    world = ArmWorld()
    initial = cfg.get_vector("search.initial_policy")
    states = sample_pretraining_states(
        world,
        cfg.get_int("dart.pretrain_states"),
        substream(cfg.get_int("seed"), PRETRAIN),
        policy_mean=initial,
        policy_cov=cfg.get_float("dart.pretrain_policy_cov") * np.eye(world.policy_dim),
    )
    model = fit_dynamics_model(world, states)
    return cfg, world, initial, model


def _relative_frobenius(draws: np.ndarray, predicted: np.ndarray) -> float:
    empirical = np.cov(draws.T)
    return float(
        np.linalg.norm(empirical - predicted) / np.linalg.norm(predicted)
    )


def test_criterion_01_policies_only_variance_law(plain_sweep):
    g1_draws, _, world, elapsed = plain_sweep
    predicted = predicted_variance_g1(world, EXPLORATION_COV, TRIALS_PER_BATCH)
    rel = _relative_frobenius(g1_draws, predicted)
    _verdict(
        1,
        "policies-only estimator variance law",
        rel <= 0.10 and elapsed < 60.0,
        f"relative Frobenius error {rel:.4f} (limit 0.10) over "
        f"{REPLICATIONS} replications, sweep {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_joint_estimator_variance_law(plain_sweep):
    _, g2_draws, world, elapsed = plain_sweep
    predicted = predicted_variance_g2(world, EXPLORATION_COV, TRIALS_PER_BATCH)
    rel = _relative_frobenius(g2_draws, predicted)
    _verdict(
        2,
        "joint estimator variance law",
        rel <= 0.10 and elapsed < 60.0,
        f"relative Frobenius error {rel:.4f} (limit 0.10) over "
        f"{REPLICATIONS} replications, sweep {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_03_perfect_sensors_recover_the_gradient_exactly():
    worst = 0.0
    for index in range(100):
        rng = substream(33, index)
        a_pi = rng.normal(size=2)
        a_s = rng.normal(size=2)
        offset = float(rng.normal())
        nominal = rng.normal(size=2)
        shape = rng.normal(size=(2, 2))
        explore = shape @ shape.T + 0.1 * np.eye(2)
        policies = sample_exploration_policies(nominal, explore, 6, rng)
        sensors = rng.normal(size=2) + rng.normal(size=(6, 2)) @ rng.normal(
            size=(2, 2)
        )
        scores = policies @ a_pi + sensors @ a_s + offset
        batch = TrialBatch(policies, scores, sensors)
        gradient = estimate_g2(batch).gradient
        worst = max(worst, float(np.max(np.abs(gradient - a_pi))))
    _verdict(
        3,
        "noise-free joint estimate is exact",
        worst < 1e-8,
        f"worst gradient component error {worst:.2e} (limit 1e-8) "
        "across 100 random worlds at the minimal batch size",
    )


def test_criterion_04_policy_coupled_sensors_bias_and_variance(correlated_sweep):
    _, g2_draws, world = correlated_sweep
    target = A_PI + predicted_bias_g2(world)
    mean = g2_draws.mean(axis=0)
    std_error = g2_draws.std(axis=0, ddof=1) / np.sqrt(REPLICATIONS)
    deviations = np.abs(mean - target) / std_error
    predicted = predicted_variance_g2(world, EXPLORATION_COV, TRIALS_PER_BATCH)
    rel = _relative_frobenius(g2_draws, predicted)
    ok = bool(np.all(deviations <= 3.0)) and rel <= 0.15
    _verdict(
        4,
        "coupled sensors shift the joint estimate by the predicted bias",
        ok,
        f"mean deviation {deviations.max():.2f} standard errors (limit 3), "
        f"coupled-law relative Frobenius error {rel:.4f} (limit 0.15)",
    )


def test_criterion_05_policies_only_estimator_stays_unbiased(correlated_sweep):
    g1_draws, _, _ = correlated_sweep
    mean = g1_draws.mean(axis=0)
    std_error = g1_draws.std(axis=0, ddof=1) / np.sqrt(REPLICATIONS)
    deviations = np.abs(mean - A_PI) / std_error
    _verdict(
        5,
        "policies-only estimate is unbiased under sensor coupling",
        bool(np.all(deviations <= 3.0)),
        f"mean deviation {deviations.max():.2f} standard errors (limit 3) "
        f"over {REPLICATIONS} replications",
    )


def test_criterion_06_sensor_advantage_grows_with_cannon_noise():
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "cannon_sweep.cfg").with_value(
        "run.noise_scales", [1.0, 4.0]
    )
    *_, tables = run_tables(cfg)
    _, rows = tables[DIAGNOSTICS.name]
    rows = [dict(zip(DIAGNOSTICS.header(1), row)) for row in rows]
    finals = {}
    for scale in (1.0, 4.0):
        joint, plain = (
            _final_evaluations(
                [r for r in rows if r["noise_scale"] == scale and r["estimator"] == name]
            )
            for name in ("with_sensors", "ignore_sensors")
        )
        assert list(joint) == list(plain) == list(range(100))
        finals[scale] = tuple(np.array(list(f.values())) for f in (joint, plain))
    gaps = {
        scale: float(np.mean(joint - plain))
        for scale, (joint, plain) in finals.items()
    }
    pooled_joint = np.concatenate([finals[1.0][0], finals[4.0][0]])
    pooled_plain = np.concatenate([finals[1.0][1], finals[4.0][1]])
    p_pooled = float(
        stats.ttest_rel(pooled_joint, pooled_plain, alternative="greater").pvalue
    )
    p_hard = float(
        stats.ttest_rel(*finals[4.0], alternative="greater").pvalue
    )
    elapsed = time.perf_counter() - start
    ok = (
        p_pooled < 0.05
        and p_hard < 0.05
        and gaps[4.0] > gaps[1.0]
        and elapsed < 600.0
    )
    _verdict(
        6,
        "sensor advantage on the cannon grows with actuation noise",
        ok,
        f"paired one-sided p {p_pooled:.2e} pooled / {p_hard:.2e} at scale 4 "
        f"(limit 0.05), final-value gap {gaps[1.0]:.2f} at scale 1 vs "
        f"{gaps[4.0]:.2f} at scale 4, runtime {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_07_joint_estimate_matches_finite_differences():
    world = CannonWorld()
    env = CannonEnv(world)
    nominal = np.array([19.0, np.pi / 4.0])
    explore = np.diag([0.25, 0.0025])
    batches = 500
    gradients = np.empty((batches, 2))
    for index in range(batches):
        policies = sample_exploration_policies(
            nominal, explore, 200, substream(71, index, LEARN)
        )
        streams = children(substream(71, index, EVAL), 200)
        gradients[index] = estimate_g2(env.sample_trials(policies, streams)).gradient
    steps = np.array([0.05, 0.005])
    reference = np.empty(2)
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = steps[axis]
        high = cannon_true_value(world, nominal + offset, seed=777)
        low = cannon_true_value(world, nominal - offset, seed=777)
        reference[axis] = (high - low) / (2.0 * steps[axis])
    rel = float(
        np.linalg.norm(gradients.mean(axis=0) - reference)
        / np.linalg.norm(reference)
    )
    _verdict(
        7,
        "mean joint estimate matches the value-function slope",
        rel <= 0.15,
        f"relative Euclidean error {rel:.4f} (limit 0.15) over "
        f"{batches} batches of 200 trials",
    )


def test_criterion_08_planted_direction_recovery_and_heldout_oracle():
    hits = 0
    worst_cosine = 1.0
    worst_gap = 0.0
    for index in range(20):
        batch, direction = planted_batch(900 + index)
        search = EncodingSearchConfig(
            target_dim=1, max_iterations=60, restarts=3, seed=1000 + index
        )
        projection = optimize_projection(batch, search)
        cosine = float(np.linalg.norm(projection.matrix.T @ direction))
        hits += cosine >= 0.95
        worst_cosine = min(worst_cosine, cosine)
        gap = abs(
            loo_cost(batch, projection.matrix)
            - brute_force_loo(batch, projection.matrix)
        )
        worst_gap = max(worst_gap, gap)
    _verdict(
        8,
        "projection search recovers a planted sensor direction",
        hits >= 18 and worst_gap < 1e-8,
        f"{hits}/20 seeds at cosine >= 0.95 (limit 18, worst cosine "
        f"{worst_cosine:.4f}); held-out cost matches the delete-and-refit "
        f"oracle within {worst_gap:.2e} (limit 1e-8)",
    )


def test_criterion_09_dynamics_residual_pipeline(dart_setup):
    _, world, initial, model = dart_setup
    quiet = ArmWorld(
        torque_mult_std=(0.0, 0.0, 0.0),
        torque_add_std=(0.0, 0.0, 0.0),
        release_time_std=0.0,
    )
    policies = initial + 0.01 * substream(91).standard_normal((20, 9))
    trials = dart_trials(quiet, policies, children(substream(91, 0), 20))
    assert not trials.flagged.any()
    model_square = 0.0
    zero_square = 0.0
    for policy, raw in zip(trials.policies, trials.sensors):
        angles, velocities, _ = split_dart_sensors(quiet, raw)
        times = np.arange(angles.shape[0]) * quiet.timestep
        torques = commanded_torques(
            quiet, policy, angles[:-1], velocities[:-1], times[:-1]
        )
        residuals = velocity_residuals(
            model, angles, velocities, torques, quiet.timestep
        )
        model_square += float(np.sum(residuals**2))
        zero_square += float(np.sum(np.diff(velocities, axis=0) ** 2))
    ratio = float(np.sqrt(model_square / zero_square))

    noisy_policies = initial + 0.002 * substream(92).standard_normal((200, 9))
    noisy = dart_trials(world, noisy_policies, children(substream(92, 0), 200))
    batch = noisy.rows(~noisy.flagged)
    assert len(batch) >= 150
    estimate = estimate_g1(batch)
    residual_scores = (
        batch.scores - estimate.offset - batch.policies @ estimate.gradient
    )
    encoded = encode_dart_batch(world, model, batch).sensors
    correlations = [
        abs(float(np.corrcoef(encoded[:, j], residual_scores)[0, 1]))
        for j in range(encoded.shape[1])
    ]
    best = max(correlations)
    ok = ratio <= 0.20 and best > 0.2
    _verdict(
        9,
        "learned dynamics explain rollouts and flag score-relevant sensors",
        ok,
        f"velocity-residual RMS ratio {ratio:.4f} vs zero-acceleration "
        f"predictor (limit 0.20) on 20 noise-free rollouts; strongest "
        f"|correlation| {best:.3f} between an encoded coordinate and the "
        f"score residual (floor 0.2) over {len(batch)} noisy trials",
    )


def test_criterion_10_encoded_sensors_win_on_the_dart_task(dart_setup):
    start = time.perf_counter()
    cfg, world, _, model = dart_setup
    env = DartEnv(world, model)
    plain_final, encoded_final = (
        _final_evaluations([vars(r) for r in run_learning_curve(env, config)])
        for config in build_search_configs(
            cfg, ["ignore_sensors", "with_encoding"]
        ).values()
    )
    shared = sorted(set(plain_final) & set(encoded_final))
    assert len(shared) >= 10
    paired_plain = np.array([plain_final[run] for run in shared])
    paired_encoded = np.array([encoded_final[run] for run in shared])
    p_value = float(
        stats.ttest_rel(paired_encoded, paired_plain, alternative="greater").pvalue
    )
    elapsed = time.perf_counter() - start
    ok = p_value < 0.1 and elapsed < 1800.0
    _verdict(
        10,
        "encoded sensors beat plain score regression on the dart task",
        ok,
        f"paired one-sided p {p_value:.4f} (limit 0.1) over {len(shared)} "
        f"runs of 20 steps, runtime {elapsed:.0f}s (limit 1800s)",
    )


RERUN_CASES = {
    "run": (
        "seed = 7\n"
        "run.environment = cannon\n"
        'run.estimators = ["ignore_sensors", "with_sensors"]\n'
        "cannon.control_noise_diag = [1.0, 4.0]\n"
        "search.initial_policy = [16.0, 0.7853981633974483]\n"
        "search.trials_per_step = 8\n"
        "search.exploration_cov = [0.25, 0.0025]\n"
        "search.steps = 2\n"
        "search.runs = 2\n"
        "search.eval_trials_per_point = 4\n",
        ("learning_curve.csv", "diagnostics.csv", "config_echo.cfg"),
    ),
    "variance-check": (
        "seed = 11\n"
        "synthetic.true_gradient = [1.5, -0.7]\n"
        "synthetic.sensor_slope = [0.8, -1.2]\n"
        "synthetic.output_variance = 0.09\n"
        "synthetic.sensor_cov = [[0.2, -0.05], [-0.05, 0.4]]\n"
        "synthetic.exploration_cov = [[0.5, 0.1], [0.1, 0.3]]\n"
        "variance.trials_per_batch = 12\n"
        "variance.replications = 2000\n",
        ("variance_report.txt", "config_echo.cfg"),
    ),
    "encode-search": (
        "seed = 5\n"
        "encode.raw_dim = 8\n"
        "encode.samples = 40\n"
        "encode.target_dim = 1\n"
        "encode.policy_dim = 2\n"
        "encode.max_iterations = 25\n"
        "encode.restarts = 2\n",
        (
            "projection.csv",
            "encode_trace.csv",
            "encode_report.txt",
            "config_echo.cfg",
        ),
    ),
}


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    compared = 0
    for command, (text, names) in RERUN_CASES.items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out_dirs = [tmp_path / f"{command}-{label}" for label in ("a", "b", "c")]
        for out_dir in out_dirs[:2]:
            argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
            assert main(argv) == 0
        extra = [command, "--config", str(cfg_path), "--out", str(out_dirs[2])]
        if command == "run":
            extra += ["--threads", "3"]
        assert main(extra) == 0
        for name in names:
            reference = (out_dirs[0] / name).read_bytes()
            assert (out_dirs[1] / name).read_bytes() == reference
            assert (out_dirs[2] / name).read_bytes() == reference
            compared += 1
        assert main(["schema-check", "--out", str(out_dirs[0])]) == 0
    _verdict(
        11,
        "identical configs rerun to byte-identical outputs",
        True,
        f"{compared} output files byte-compared across reruns and thread "
        "counts for the run, variance-check, and encode-search subcommands",
    )
