import numpy as np
import pytest

from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.seeding import children, psd_sqrt, substream

TRUE_GRADIENT = np.array([1.5, -0.7])
SENSOR_SLOPE = np.array([0.8, -1.2])


def make_world(coupling=None, sensor_cov=None, output_variance=0.0):
    return SyntheticWorld(
        TRUE_GRADIENT,
        SENSOR_SLOPE,
        output_variance,
        np.zeros((2, 2)) if sensor_cov is None else sensor_cov,
        coupling,
    )


def one_trial(world, policy, rng):
    return SyntheticEnv(world).sample_trials(policy, [rng])


def test_noiseless_correlated_trial_flips_the_coupling_sign():
    coupling = np.array([[0.6, -0.3], [0.2, 0.5]])
    world = make_world(coupling=coupling)
    policy = np.array([1.0, 2.0])
    trial = one_trial(world, policy, substream(62))
    expected_sensed = -coupling.T @ policy
    assert np.allclose(trial.sensors[0], expected_sensed, atol=1e-12)
    # the score responds to the disturbance (zero here), not the reading
    assert trial.scores[0] == float(policy @ TRUE_GRADIENT)


def test_score_consistent_with_returned_sensors_under_noise():
    world = make_world(sensor_cov=np.array([[0.3, 0.1], [0.1, 0.2]]))
    policy = np.array([0.4, -1.0])
    trial = one_trial(world, policy, substream(63))
    sensed = trial.sensors[0]
    expected = float(policy @ TRUE_GRADIENT) + float(sensed @ SENSOR_SLOPE)
    assert trial.scores[0] == expected


def test_correlated_sensor_mean_tracks_the_policy():
    coupling = np.array([[0.6, -0.3], [0.2, 0.5]])
    sensor_cov = np.array([[0.2, -0.05], [-0.05, 0.4]])
    world = make_world(coupling=coupling, sensor_cov=sensor_cov)
    env = SyntheticEnv(world)
    policy = np.array([1.0, -0.5])
    count = 4000
    trials = env.sample_trials(
        np.tile(policy, (count, 1)), children(substream(64), count)
    )
    sensed = trials.sensors
    expected = -coupling.T @ policy
    se = sensed.std(axis=0, ddof=1) / np.sqrt(count)
    assert np.all(np.abs(sensed.mean(axis=0) - expected) < 4.0 * se)


def test_batch_sampling_matches_per_trial_streams():
    world = make_world(sensor_cov=np.eye(2) * 0.1, output_variance=0.2)
    env = SyntheticEnv(world)
    policies = substream(65).normal(size=(5, 2))
    batch = env.sample_trials(policies, children(substream(66), 5))
    for i, stream in enumerate(children(substream(66), 5)):
        single = env.sample_trials(policies[i], [stream])
        assert single.scores[0] == batch.scores[i]
        assert np.array_equal(single.sensors[0], batch.sensors[i])


def reference_trial(env, policy, rng):
    """One trial computed row by row with BLAS products: the sampler's reference."""
    world = env.world
    disturbance = psd_sqrt(world.sensor_cov) @ rng.standard_normal(world.sensor_dim)
    score_noise = float(rng.standard_normal()) * np.sqrt(world.output_variance)
    sensed = disturbance
    if world.policy_sensor_coupling is not None:
        sensed = disturbance - world.policy_sensor_coupling.T @ policy
    score = float(policy @ world.true_gradient) + float(disturbance @ world.sensor_slope)
    return score + score_noise, sensed


@pytest.mark.parametrize(
    "coupling",
    [None, np.array([[0.6, -0.3], [0.2, 0.5]])],
    ids=["plain", "correlated"],
)
def test_rows_do_not_depend_on_the_batch_they_are_drawn_in(coupling):
    sensor_cov = np.array([[0.2, -0.05], [-0.05, 0.4]])
    world = make_world(coupling=coupling, sensor_cov=sensor_cov, output_variance=0.09)
    env = SyntheticEnv(world)
    policies = substream(68).normal(size=(48, 2))
    whole = env.sample_trials(policies, children(substream(69), 48))
    # Same normals as the row-by-row reference; only the rounding may differ.
    for i, rng in enumerate(children(substream(69), 48)):
        score, sensed = reference_trial(env, policies[i], rng)
        assert whole.scores[i] == pytest.approx(score, rel=1e-12, abs=1e-12)
        assert np.allclose(whole.sensors[i], sensed, rtol=1e-12, atol=1e-12)
    for size in (1, 2, 12):
        streams = children(substream(69), 48)
        for first in range(0, 48, size):
            rows = slice(first, first + size)
            part = env.sample_trials(policies[rows], streams[rows])
            assert np.array_equal(part.scores, whole.scores[rows])
            assert np.array_equal(part.sensors, whole.sensors[rows])
    # One block generator: consecutive batches read on through the same block.
    block = env.sample_trials(policies, substream(70))
    rng = substream(70)
    for first in range(0, 48, 12):
        part = env.sample_trials(policies[first : first + 12], rng)
        assert np.array_equal(part.scores, block.scores[first : first + 12])
        assert np.array_equal(part.sensors, block.sensors[first : first + 12])


def test_mean_score_matches_the_analytic_value():
    sensor_cov = np.array([[0.2, -0.05], [-0.05, 0.4]])
    world = make_world(sensor_cov=sensor_cov, output_variance=0.09)
    env = SyntheticEnv(world)
    policy = np.array([0.3, 0.6])
    count = 20000
    trials = env.sample_trials(
        np.tile(policy, (count, 1)), children(substream(67), count)
    )
    scores = trials.scores
    analytic = float(policy @ TRUE_GRADIENT)
    se = scores.std(ddof=1) / np.sqrt(count)
    assert abs(scores.mean() - analytic) < 4.0 * se
