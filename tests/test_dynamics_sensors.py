import numpy as np
import pytest

from arm_oracle import ArmState, arm_dynamics
from sensorgrad.dynamics_sensors import (
    encode_dart_batch,
    fit_dynamics_model,
    predict_acceleration,
    project_residuals,
    sample_pretraining_states,
    spline_basis,
    velocity_residuals,
)
from sensorgrad.envs.arm import KNOTS_PER_JOINT, ArmWorld, chain_terms, dart_trials
from sensorgrad.linreg import quad_features, rank_deficient
from sensorgrad.seeding import PRETRAIN, children, substream

WORLD = ArmWorld()

# Knots that hold the start posture, with a wide or a narrow spread.
START_POLICY = np.repeat(np.array(WORLD.start_posture), KNOTS_PER_JOINT)
WIDE_POLICY_COV = 0.25 * np.eye(9)
NARROW_POLICY_COV = 0.01 * np.eye(9)


def pretraining_states(count, rng, policy_cov=WIDE_POLICY_COV):
    return sample_pretraining_states(
        WORLD, count, rng, policy_mean=START_POLICY, policy_cov=policy_cov
    )


@pytest.fixture(scope="module")
def states():
    return pretraining_states(600, substream(2024, PRETRAIN), NARROW_POLICY_COV)


@pytest.fixture(scope="module")
def model(states):
    return fit_dynamics_model(WORLD, states)


def test_pretraining_states_are_reproducible_and_bounded():
    a = pretraining_states(50, substream(1, PRETRAIN))
    b = pretraining_states(50, substream(1, PRETRAIN))
    (qa, va), (qb, vb) = a, b
    assert qa.shape == va.shape == (50, WORLD.dof)
    assert np.array_equal(qa, qb)
    assert np.array_equal(va, vb)
    assert np.isfinite(qa).all() and np.isfinite(va).all()


def test_fit_refuses_an_angle_design_past_the_rank_rule():
    # Angles spread by 1e-5 give a design of condition number about 6.5e11:
    # full rank to lstsq's own tolerance, rank deficient to linreg's rule.
    rng = substream(3)
    angles = np.array(WORLD.start_posture) + 1e-5 * rng.standard_normal((200, 3))
    velocities = rng.standard_normal((200, 3))
    svals = np.linalg.svd(quad_features(angles), compute_uv=False)
    assert np.linalg.matrix_rank(quad_features(angles)) == svals.size
    assert rank_deficient(svals)
    with pytest.raises(ValueError, match="insufficient state diversity"):
        fit_dynamics_model(WORLD, (angles, velocities))


def r_squared(predicted, target):
    spread = target - target.mean(axis=0)
    return 1.0 - np.sum((target - predicted) ** 2) / np.sum(spread**2)


def test_fit_explains_the_sampled_dynamics(states, model):
    angles, velocities = states
    mass, grav, coriolis = chain_terms(WORLD, angles, velocities)
    inv_mass = np.linalg.inv(mass)
    phi1 = quad_features(angles)
    phi2 = quad_features(np.concatenate([angles, velocities], axis=1))
    fits = (
        (phi1 @ model.inverse_mass_map, inv_mass.reshape(len(angles), -1)),
        (phi1 @ model.gravity_map, np.einsum("bjl,bl->bj", inv_mass, grav)),
        (phi2 @ model.coriolis_map, np.einsum("bjl,bl->bj", inv_mass, coriolis)),
    )
    for predicted, target in fits:
        assert r_squared(predicted, target) > 0.9


def test_prediction_tracks_the_exact_dynamics(model):
    states = pretraining_states(100, substream(3, PRETRAIN), NARROW_POLICY_COV)
    rng = substream(4)
    errors = []
    scales = []
    for q, v in zip(*states):
        torque = rng.normal(size=3) * 5.0
        exact = arm_dynamics(WORLD, ArmState(q, v, 0.0), torque)
        predicted = predict_acceleration(model, torque, q, v)
        errors.append(np.linalg.norm(predicted - exact))
        scales.append(np.linalg.norm(exact))
    assert np.median(errors) < 0.05 * np.median(scales)


def test_prediction_broadcasts_over_batches(model):
    rng = substream(5)
    q = rng.normal(size=(4, 3)) * 0.3 + np.array(WORLD.start_posture)
    v = rng.normal(size=(4, 3))
    torque = rng.normal(size=(4, 3))
    stacked = predict_acceleration(model, torque, q, v)
    rows = np.stack(
        [predict_acceleration(model, torque[i], q[i], v[i]) for i in range(4)]
    )
    assert np.allclose(stacked, rows, atol=1e-12)


def test_velocity_residuals_vanish_on_model_consistent_motion(model):
    # build a trajectory whose velocity steps follow the model exactly
    rng = substream(6)
    steps = 20
    dt = WORLD.timestep
    angles = np.empty((steps + 1, 3))
    velocities = np.empty((steps + 1, 3))
    torques = rng.normal(size=(steps, 3))
    angles[0] = WORLD.start_posture
    velocities[0] = 0.0
    for k in range(steps):
        accel = predict_acceleration(model, torques[k], angles[k], velocities[k])
        velocities[k + 1] = velocities[k] + accel * dt
        angles[k + 1] = angles[k] + velocities[k] * dt
    residuals = velocity_residuals(model, angles, velocities, torques, dt)
    assert residuals.shape == (steps, 3)
    assert np.allclose(residuals, 0.0, atol=1e-12)


def test_spline_basis_is_cardinal_at_the_knots():
    knot_times = np.linspace(0.0, WORLD.sim_duration, KNOTS_PER_JOINT + 1)
    basis = spline_basis(WORLD, knot_times)
    assert np.allclose(basis[0], 0.0, atol=1e-12)
    assert np.allclose(basis[1:], np.eye(KNOTS_PER_JOINT), atol=1e-12)


def test_project_residuals_recovers_planted_coefficients():
    # times must span all knot intervals: restricted to one interval the
    # natural cardinal splines are rank deficient
    times = (np.arange(WORLD.grid_steps) + 1) * WORLD.timestep
    basis = spline_basis(WORLD, times)
    rng = substream(7)
    coefficients = rng.normal(size=(KNOTS_PER_JOINT, 3))
    curve = basis @ coefficients
    features = project_residuals(curve, basis, release_time=0.21)
    assert np.allclose(features[:-1], coefficients.T.reshape(-1), atol=1e-10)
    assert features[-1] == 0.21
    assert features.shape == (KNOTS_PER_JOINT * 3 + 1,)


def test_encode_dart_batch_layout(model):
    policy = np.repeat(np.array(WORLD.start_posture), KNOTS_PER_JOINT)
    batch = dart_trials(WORLD, np.tile(policy, (4, 1)), children(substream(8), 4))
    encoded = encode_dart_batch(WORLD, model, batch)
    sensors = encoded.sensors
    assert sensors.shape == (4, KNOTS_PER_JOINT * 3 + 1)
    assert np.array_equal(sensors[:, -1], batch.sensors[:, -1])
    again = encode_dart_batch(WORLD, model, batch)
    assert np.array_equal(sensors, again.sensors)


def test_encoding_does_not_depend_on_batch_composition(model):
    # Each trial's sensors must come out bit for bit the same whatever
    # batch it is encoded in; the regression would otherwise see the
    # lockstep grouping of runs in its inputs.
    policy = np.repeat(np.array(WORLD.start_posture), KNOTS_PER_JOINT)
    policies = policy + 0.05 * substream(9).standard_normal((48, policy.size))
    batch = dart_trials(WORLD, policies, children(substream(9, 1), 48))
    whole = encode_dart_batch(WORLD, model, batch).sensors
    for size in (1, 2, 12, 48):
        parts = [batch.rows(slice(i, i + size)) for i in range(0, 48, size)]
        stacked = np.concatenate(
            [encode_dart_batch(WORLD, model, part).sensors for part in parts]
        )
        assert np.array_equal(whole, stacked), size
