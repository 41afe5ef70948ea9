import numpy as np
import pytest

from sensorgrad.envs.cannon import (
    TARGET_RANGE,
    CannonEnv,
    CannonWorld,
    cannon_range,
    cannon_true_value,
)
from sensorgrad.estimators import PolicyDomainError, estimate_g1, estimate_g2
from sensorgrad.search import sample_exploration_policies
from sensorgrad.seeding import children, psd_sqrt, substream

QUIET = CannonWorld(
    control_noise_cov=np.zeros((2, 2)), sensor_noise_cov=np.zeros((2, 2))
)


def test_range_formula():
    assert cannon_range(np.array([20.0, np.pi / 4])) == pytest.approx(400.0 / 9.8)
    assert cannon_range(np.array([10.0, np.pi / 2])) == pytest.approx(0.0, abs=1e-12)
    stacked = cannon_range(np.array([[20.0, np.pi / 4], [10.0, np.pi / 6]]))
    assert stacked.shape == (2,)
    assert stacked[1] == pytest.approx(100.0 * np.sin(np.pi / 3) / 9.8)


def test_range_clamps_nonpositive_speeds():
    assert cannon_range(np.array([-5.0, 0.7])) == pytest.approx(0.0, abs=1e-9)


def test_noise_free_scores_are_closed_form():
    # the default target range is reached exactly at (20, pi/4)
    env = CannonEnv(QUIET)
    optimum = env.sample_trials(np.array([20.0, np.pi / 4]), [substream(70)])
    assert optimum.scores[0] == pytest.approx(0.0, abs=1e-18)
    policy = np.array([16.0, np.pi / 4])
    trial = env.sample_trials(policy, [substream(70)])
    miss = 16.0**2 / 9.8 - 400.0 / 9.8
    assert trial.scores[0] == pytest.approx(-(miss**2))
    assert np.allclose(trial.sensors, 0.0)


def test_policy_domain_is_enforced():
    env = CannonEnv(CannonWorld())
    with pytest.raises(PolicyDomainError, match="speed"):
        env.sample_trials(np.array([0.0, 0.7]), [substream(71)])
    with pytest.raises(PolicyDomainError, match="angle"):
        env.sample_trials(np.array([15.0, np.pi / 2]), [substream(71)])
    with pytest.raises(PolicyDomainError, match="angle"):
        env.sample_trials(np.array([15.0, -0.1]), [substream(71)])
    # A batch reports its first bad row, whichever check that row fails.
    good, slow, steep = [15.0, 0.7], [0.0, 0.7], [15.0, np.pi / 2]
    cases = (([good, steep, slow], "angle"), ([good, slow, steep], "speed"))
    for rows, problem in cases:
        with pytest.raises(PolicyDomainError, match=problem):
            env.check_policies(np.array(rows))
        with pytest.raises(PolicyDomainError, match=problem):
            env.sample_trials(np.array(rows), children(substream(71), 3))
    assert env.check_policies(np.array([good, good])).shape == (2, 2)
    # A command whose noise-free score overflows cannot be scored.
    with pytest.raises(PolicyDomainError, match="overflows"):
        env.check_policies(np.array([good, [1e78, 0.7]]))


def test_sensors_report_the_actuation_error_exactly():
    # zero read noise makes the sensor equal the realized perturbation,
    # so the score must be reconstructible from policy plus reading
    world = CannonWorld(sensor_noise_cov=np.zeros((2, 2)))
    env = CannonEnv(world)
    policies = sample_exploration_policies(
        np.array([16.0, np.pi / 4]), np.diag([0.25, 0.0025]), 20, substream(72)
    )
    trials = env.sample_trials(policies, children(substream(73), 20))
    executed = trials.policies + trials.sensors
    expected = -((cannon_range(executed) - TARGET_RANGE) ** 2)
    assert trials.scores == pytest.approx(expected, rel=1e-12)


def test_scaled_world_changes_actuation_noise_only():
    base = CannonWorld()
    scaled = base.scaled(4.0)
    assert np.allclose(scaled.control_noise_cov, 4.0 * base.control_noise_cov)
    assert np.array_equal(scaled.sensor_noise_cov, base.sensor_noise_cov)
    # Scaling by one, as a single-scale run does, leaves every bit.
    assert np.array_equal(base.scaled(1.0).control_noise_cov, base.control_noise_cov)
    with pytest.raises(ValueError):
        base.scaled(-1.0)


def test_env_noise_scale_matches_scaled_world():
    # A sweep samples scale s from world.scaled(s): the same draws give
    # an actuation error sqrt(s) times as large.
    world = CannonWorld(sensor_noise_cov=np.zeros((2, 2)))
    policies = np.tile([16.0, np.pi / 4], (5, 1))
    base = CannonEnv(world).sample_trials(policies, children(substream(77), 5))
    scaled = CannonEnv(world.scaled(4.0)).sample_trials(
        policies, children(substream(77), 5)
    )
    assert np.allclose(scaled.sensors, 2.0 * base.sensors, rtol=1e-12, atol=0.0)


CORRELATED = CannonWorld(
    control_noise_cov=np.array([[1.0, 0.02], [0.02, 0.0012]]),
    sensor_noise_cov=np.array([[0.01, -0.0001], [-0.0001, 0.00002]]),
)


def per_row_reference(env, policies, streams):
    """Scores and sensors of a sampler that draws each row as ``root @ z``."""
    control_root = psd_sqrt(env.world.control_noise_cov)
    sensor_root = psd_sqrt(env.world.sensor_noise_cov)
    actuation, read = np.empty(policies.shape), np.empty(policies.shape)
    for i, rng in enumerate(streams):
        actuation[i] = control_root @ rng.standard_normal(2)
        read[i] = sensor_root @ rng.standard_normal(2)
    ranges = cannon_range(policies + actuation)
    return -((ranges - TARGET_RANGE) ** 2), actuation + read


def test_trials_are_reproducible():
    # With diagonal covariances, as configs give them, no bit moves.
    for world, exact in ((CannonWorld(), True), (CORRELATED, False)):
        for size in (1, 2, 12, 48):
            env = CannonEnv(world.scaled(2.0))
            check_batch_against_per_row_draws(env, size, exact)


def check_batch_against_per_row_draws(env, size, exact):
    policies = sample_exploration_policies(
        np.array([16.0, np.pi / 4]), np.diag([0.25, 0.0025]), size, substream(74)
    )
    a = env.sample_trials(policies, children(substream(74, 1), size))
    b = env.sample_trials(policies, children(substream(74, 1), size))
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.sensors, b.sensors)
    for i, rng in enumerate(children(substream(74, 1), size)):
        single = env.sample_trials(policies[i], [rng])
        assert np.array_equal(single.scores, a.scores[i : i + 1])
        assert np.array_equal(single.sensors, a.sensors[i : i + 1])
    scores, sensors = per_row_reference(
        env, policies, children(substream(74, 1), size)
    )
    if exact:
        assert np.array_equal(a.scores, scores)
        assert np.array_equal(a.sensors, sensors)
    else:
        # A BLAS matrix-vector product rounds differently from the
        # sampler's term-by-term sums, so the last bit may move.
        assert np.allclose(a.sensors, sensors, rtol=1e-15, atol=1e-15)
        assert np.allclose(a.scores, scores, rtol=1e-12, atol=1e-9)


def test_true_value_is_deterministic_and_exact_when_quiet():
    policy = np.array([16.0, np.pi / 4])
    assert cannon_true_value(QUIET, policy) == pytest.approx(
        -((16.0**2 / 9.8 - 400.0 / 9.8) ** 2)
    )
    noisy = CannonWorld()
    assert cannon_true_value(noisy, policy, seed=5) == cannon_true_value(
        noisy, policy, seed=5
    )


def test_sensor_regression_explains_most_cannon_score_noise():
    env = CannonEnv(CannonWorld())
    nominal = np.array([16.0, np.pi / 4])
    policies = sample_exploration_policies(
        nominal, np.diag([0.25, 0.0025]), 40, substream(75)
    )
    batch = env.sample_trials(policies, children(substream(76), 40))
    plain = estimate_g1(batch)
    joint = estimate_g2(batch)
    assert joint.residual_variance < 0.2 * plain.residual_variance
