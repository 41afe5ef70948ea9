import numpy as np
import pytest

from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import (
    EstimationError,
    NoiseSpec,
    TrialBatch,
    TrialRecord,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
    predicted_variance_g2_correlated,
    trial_from_line,
    trial_to_line,
)
from sensorgrad.search import sample_exploration_policies
from sensorgrad.seeding import EVAL, LEARN, children, substream

TRUE_GRADIENT = np.array([1.5, -0.7])
SENSOR_SLOPE = np.array([0.8, -1.2])
SENSOR_COV = np.array([[0.2, -0.05], [-0.05, 0.4]])
EXPLORATION_COV = np.array([[0.5, 0.1], [0.1, 0.3]])
OUTPUT_VARIANCE = 0.09


def make_noise(coupling=None, output_variance=OUTPUT_VARIANCE):
    return NoiseSpec(
        output_variance=output_variance,
        sensor_cov=SENSOR_COV,
        policy_sensor_coupling=coupling,
    )


def zero_mean_batch(env, n, rep, seed):
    nominal = np.zeros(2)
    policies = sample_exploration_policies(
        nominal, EXPLORATION_COV, n, substream(seed, rep, LEARN)
    )
    trials = tuple(env.sample_trials(policies, children(substream(seed, rep, EVAL), n)))
    return TrialBatch(nominal, EXPLORATION_COV, trials)


def mc_gradients(env, n, reps, seed):
    g1 = np.empty((reps, 2))
    g2 = np.empty((reps, 2))
    for rep in range(reps):
        batch = zero_mean_batch(env, n, rep, seed)
        g1[rep] = estimate_g1(batch, center=False).gradient
        g2[rep] = estimate_g2(batch, center=False).gradient
    return g1, g2


def test_trial_record_rejects_nonfinite_score():
    with pytest.raises(ValueError, match="finite"):
        TrialRecord(np.zeros(2), None, None, float("nan"))


def test_trial_line_round_trip():
    record = TrialRecord(
        np.array([1.0, -2.5]),
        np.array([0.125, 3.0, -7.25]),
        None,
        -0.7853981633974483,
        flagged=True,
    )
    back = trial_from_line(trial_to_line(record))
    assert np.array_equal(back.policy, record.policy)
    assert np.array_equal(back.raw_sensors, record.raw_sensors)
    assert back.encoded_sensors is None
    assert back.score == record.score
    assert back.flagged is True


def test_trial_line_rejects_bad_input():
    with pytest.raises(ValueError, match="unparseable"):
        trial_from_line("not json")
    with pytest.raises(ValueError, match="missing field"):
        trial_from_line('{"policy": [1.0]}')
    with pytest.raises(ValueError, match="JSON object"):
        trial_from_line("[1, 2, 3]")


def test_batch_validation():
    trial = TrialRecord(np.zeros(2), None, np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="positive definite"):
        TrialBatch(np.zeros(2), np.zeros((2, 2)), (trial,))
    short = TrialRecord(np.zeros(1), None, None, 0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        TrialBatch(np.zeros(2), np.eye(2), (short,))


def test_estimators_require_enough_samples():
    trials = tuple(
        TrialRecord(np.array([float(i), 0.5 * i]), None, np.array([0.1]), float(i))
        for i in range(3)
    )
    batch = TrialBatch(np.zeros(2), np.eye(2), trials)
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g1(batch)
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g2(batch)


def test_g1_exact_on_noiseless_linear_scores():
    rng = substream(21)
    policies = rng.normal(size=(8, 2))
    trials = tuple(
        TrialRecord(p, None, None, float(p @ TRUE_GRADIENT) + 2.0) for p in policies
    )
    batch = TrialBatch(np.zeros(2), EXPLORATION_COV, trials)
    estimate = estimate_g1(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-10)
    assert estimate.offset == pytest.approx(2.0, abs=1e-10)


def test_g2_exact_at_minimal_sample_size_without_output_noise():
    # with zero direct noise the joint fit interpolates the score
    # equation and returns its policy coefficient exactly
    noise = make_noise(output_variance=0.0)
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 1.5, noise)
    env = SyntheticEnv(world)
    n = 2 + 2 + 2
    batch = zero_mean_batch(env, n, 0, seed=33)
    estimate = estimate_g2(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-8)
    assert np.allclose(estimate.sensor_coefficients, SENSOR_SLOPE, atol=1e-8)


def test_g2_removes_sensor_explained_noise():
    noise = make_noise()
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, noise)
    env = SyntheticEnv(world)
    g1, g2 = mc_gradients(env, n=12, reps=2000, seed=11)
    err1 = np.mean(np.sum((g1 - TRUE_GRADIENT) ** 2, axis=1))
    err2 = np.mean(np.sum((g2 - TRUE_GRADIENT) ** 2, axis=1))
    assert err2 < 0.25 * err1


def test_variance_laws_match_monte_carlo():
    noise = make_noise()
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, noise)
    env = SyntheticEnv(world)
    n, d, ds = 12, 2, 2
    g1, g2 = mc_gradients(env, n, reps=4000, seed=11)
    law1 = predicted_variance_g1(EXPLORATION_COV, noise, SENSOR_SLOPE, n, d)
    law2 = predicted_variance_g2(EXPLORATION_COV, OUTPUT_VARIANCE, n, d, ds)
    rel1 = np.linalg.norm(np.cov(g1.T) - law1) / np.linalg.norm(law1)
    rel2 = np.linalg.norm(np.cov(g2.T) - law2) / np.linalg.norm(law2)
    assert rel1 < 0.15
    assert rel2 < 0.15


def test_correlated_world_bias_and_variance_laws():
    coupling = np.array([[0.6, -0.3], [0.2, 0.5]])
    noise = make_noise(coupling=coupling)
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, noise)
    env = SyntheticEnv(world, correlated=True)
    n, d, ds = 12, 2, 2
    reps = 4000
    g1, g2 = mc_gradients(env, n, reps=reps, seed=45)

    bias = predicted_bias_g2(noise, SENSOR_SLOPE)
    assert np.allclose(bias, coupling @ SENSOR_SLOPE)
    se1 = g1.std(axis=0, ddof=1) / np.sqrt(reps)
    se2 = g2.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(g1.mean(axis=0) - TRUE_GRADIENT) < 4.0 * se1)
    assert np.all(np.abs(g2.mean(axis=0) - (TRUE_GRADIENT + bias)) < 4.0 * se2)

    law = predicted_variance_g2_correlated(EXPLORATION_COV, noise, n, d, ds)
    rel = np.linalg.norm(np.cov(g2.T) - law) / np.linalg.norm(law)
    assert rel < 0.15


def test_correlated_law_reduces_to_independent_when_uncoupled():
    noise = make_noise(coupling=np.zeros((2, 2)))
    law = predicted_variance_g2_correlated(EXPLORATION_COV, noise, 12, 2, 2)
    plain = predicted_variance_g2(EXPLORATION_COV, OUTPUT_VARIANCE, 12, 2, 2)
    assert np.allclose(law, plain, atol=1e-12)


def test_predicted_bias_requires_a_coupling():
    with pytest.raises(ValueError, match="coupling"):
        predicted_bias_g2(make_noise(), SENSOR_SLOPE)


def test_variance_laws_reject_degenerate_dof():
    noise = make_noise()
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g1(EXPLORATION_COV, noise, SENSOR_SLOPE, 3, 2)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2(EXPLORATION_COV, OUTPUT_VARIANCE, 5, 2, 2)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2_correlated(EXPLORATION_COV, noise, 5, 2, 2)


def test_centered_estimators_tolerate_offsets_and_sensor_means():
    noise = NoiseSpec(
        output_variance=0.0,
        sensor_cov=SENSOR_COV,
        sensor_mean=np.array([3.0, -1.0]),
    )
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, -4.0, noise)
    env = SyntheticEnv(world)
    nominal = np.array([2.0, -1.5])
    policies = sample_exploration_policies(
        nominal, EXPLORATION_COV, 10, substream(51, LEARN)
    )
    trials = tuple(env.sample_trials(policies, children(substream(51, EVAL), 10)))
    batch = TrialBatch(nominal, EXPLORATION_COV, trials)
    estimate = estimate_g2(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-8)


def test_estimates_attach_predicted_variance_when_noise_given():
    noise = make_noise()
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, noise)
    env = SyntheticEnv(world)
    batch = zero_mean_batch(env, 12, 0, seed=13)
    e1 = estimate_g1(batch, noise=noise, sensor_slope=SENSOR_SLOPE)
    e2 = estimate_g2(batch, noise=noise)
    assert np.allclose(
        e1.predicted_variance,
        predicted_variance_g1(EXPLORATION_COV, noise, SENSOR_SLOPE, 12, 2),
    )
    assert np.allclose(
        e2.predicted_variance,
        predicted_variance_g2(EXPLORATION_COV, OUTPUT_VARIANCE, 12, 2, 2),
    )
    assert e1.residual_variance > e2.residual_variance
