import numpy as np
import pytest

from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import (
    EstimationError,
    NoiseSpec,
    TrialBatch,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
)
from sensorgrad import experiments
from sensorgrad.experiments import replicate_gradients
from sensorgrad.search import sample_exploration_policies
from sensorgrad.seeding import EVAL, LEARN, children, substream

TRUE_GRADIENT = np.array([1.5, -0.7])
SENSOR_SLOPE = np.array([0.8, -1.2])
SENSOR_COV = np.array([[0.2, -0.05], [-0.05, 0.4]])
EXPLORATION_COV = np.array([[0.5, 0.1], [0.1, 0.3]])
OUTPUT_VARIANCE = 0.09
COUPLING = np.array([[0.6, -0.3], [0.2, 0.5]])


def make_noise(coupling=None, output_variance=OUTPUT_VARIANCE):
    return NoiseSpec(
        output_variance=output_variance,
        sensor_cov=SENSOR_COV,
        policy_sensor_coupling=coupling,
    )


def zero_mean_batch(env, n, rep, seed):
    policies = sample_exploration_policies(
        np.zeros(2), EXPLORATION_COV, n, substream(seed, rep, LEARN)
    )
    return env.sample_trials(policies, children(substream(seed, rep, EVAL), n))


def mc_gradients(env, n, reps, seed):
    return replicate_gradients(env, EXPLORATION_COV, n, reps, seed)


def test_trial_record_rejects_nonfinite_score():
    # A trial's record is its row in the batch; one non-finite score refuses the batch.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TrialBatch(np.zeros((1, 2)), [bad])
        with pytest.raises(ValueError, match="finite"):
            TrialBatch(np.zeros((3, 2)), [0.0, bad, 1.0])


def test_batch_validation():
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(2), encoded_sensors=np.zeros(2))
    with pytest.raises(ValueError, match="one entry per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(2), flagged=[True])
    batch = TrialBatch(
        np.arange(6.0).reshape(3, 2), np.arange(3.0), raw_sensors=np.eye(3)
    )
    assert len(batch) == batch.size == 3
    assert not batch.flagged.any()
    with pytest.raises(EstimationError, match="missing encoded sensors"):
        batch.encoded()
    picked = batch.rows(np.array([True, False, True]))
    assert np.array_equal(picked.policies, [[0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(picked.raw_sensors, np.eye(3)[[0, 2]])
    assert picked.encoded_sensors is None
    assert np.array_equal(batch.rows(slice(1, None)).scores, [1.0, 2.0])
    encoded = batch.with_encoded(np.ones((3, 1)))
    assert np.array_equal(encoded.encoded(), np.ones((3, 1)))
    assert encoded.raw_sensors is batch.raw_sensors


def test_estimators_require_enough_samples():
    policies = np.array([[float(i), 0.5 * i] for i in range(3)])
    batch = TrialBatch(policies, np.arange(3.0), encoded_sensors=np.full((3, 1), 0.1))
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g1(batch)
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g2(batch)


def test_g1_exact_on_noiseless_linear_scores():
    rng = substream(21)
    policies = rng.normal(size=(8, 2))
    estimate = estimate_g1(TrialBatch(policies, policies @ TRUE_GRADIENT + 2.0))
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
    law2 = predicted_variance_g2(EXPLORATION_COV, noise, n, d, ds)
    rel1 = np.linalg.norm(np.cov(g1.T) - law1) / np.linalg.norm(law1)
    rel2 = np.linalg.norm(np.cov(g2.T) - law2) / np.linalg.norm(law2)
    assert rel1 < 0.15
    assert rel2 < 0.15


def test_correlated_world_bias_and_variance_laws():
    coupling = COUPLING
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

    law = predicted_variance_g2(EXPLORATION_COV, noise, n, d, ds)
    rel = np.linalg.norm(np.cov(g2.T) - law) / np.linalg.norm(law)
    assert rel < 0.15


def block_worlds():
    """The plain and the coupled variance-check world."""
    plain = SyntheticEnv(SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, make_noise()))
    coupled_noise = make_noise(coupling=COUPLING)
    coupled = SyntheticEnv(
        SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, 0.0, coupled_noise), correlated=True
    )
    return {"plain": plain, "coupled": coupled}


@pytest.mark.parametrize("world", ["plain", "coupled"])
def test_replications_are_the_leading_rows_of_a_longer_check(world):
    env = block_worlds()[world]
    reps = experiments.REPLICATION_CHUNK + 37
    short = mc_gradients(env, 12, reps, seed=71)
    long = mc_gradients(env, 12, 2 * reps, seed=71)
    for few, many in zip(short, long):
        assert np.array_equal(few, many[:reps])


@pytest.mark.parametrize("world", ["plain", "coupled"])
def test_replications_do_not_depend_on_the_chunk_size(monkeypatch, world):
    env = block_worlds()[world]
    results = []
    for chunk in (7, 512, 1300):
        monkeypatch.setattr(experiments, "REPLICATION_CHUNK", chunk)
        results.append(mc_gradients(env, 12, 600, seed=72))
    for g1, g2 in results[1:]:
        assert np.array_equal(g1, results[0][0])
        assert np.array_equal(g2, results[0][1])


def test_correlated_law_reduces_to_independent_when_uncoupled():
    plain = np.linalg.inv(EXPLORATION_COV) * OUTPUT_VARIANCE / (12 - 2 - 2 - 1)
    for sensor_cov in (SENSOR_COV, np.zeros((2, 2))):
        for coupling in (None, np.zeros((2, 2))):
            noise = NoiseSpec(OUTPUT_VARIANCE, sensor_cov, coupling)
            law = predicted_variance_g2(EXPLORATION_COV, noise, 12, 2, 2)
            assert np.allclose(law, plain, atol=1e-12)
    # A singular sensor covariance only matters once the sensors are coupled.
    coupled = NoiseSpec(OUTPUT_VARIANCE, np.zeros((2, 2)), np.eye(2))
    with pytest.raises(EstimationError, match="degenerate coupling"):
        predicted_variance_g2(EXPLORATION_COV, coupled, 12, 2, 2)


def test_predicted_bias_requires_a_coupling():
    with pytest.raises(ValueError, match="coupling"):
        predicted_bias_g2(make_noise(), SENSOR_SLOPE)


def test_variance_laws_reject_degenerate_dof():
    noise = make_noise()
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g1(EXPLORATION_COV, noise, SENSOR_SLOPE, 3, 2)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2(EXPLORATION_COV, noise, 5, 2, 2)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2(EXPLORATION_COV, make_noise(COUPLING), 5, 2, 2)


def test_centered_estimators_tolerate_offsets_and_sensor_means():
    noise = NoiseSpec(output_variance=0.0, sensor_cov=SENSOR_COV)
    world = SyntheticWorld(TRUE_GRADIENT, SENSOR_SLOPE, -4.0, noise)
    env = SyntheticEnv(world)
    nominal = np.array([2.0, -1.5])
    policies = sample_exploration_policies(
        nominal, EXPLORATION_COV, 10, substream(51, LEARN)
    )
    trials = env.sample_trials(policies, children(substream(51, EVAL), 10))
    # Shift the readings to a nonzero mean; the score follows its sensors.
    mean = np.array([3.0, -1.0])
    sensed = trials.raw_sensors + mean
    batch = TrialBatch(policies, trials.scores + mean @ SENSOR_SLOPE, sensed, sensed)
    estimate = estimate_g2(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-8)
