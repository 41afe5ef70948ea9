import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from arm_oracle import ArmState, arm_dynamics, arm_energy
from sensorgrad.dynamics_sensors import (
    fit_dynamics_model,
    sample_pretraining_states,
    spline_basis,
)
from sensorgrad.envs.arm import (
    FLAGGED_SCORE,
    KNOTS_PER_JOINT,
    ArmWorld,
    DartEnv,
    chain_terms,
    dart_trial,
    dart_trials,
    desired_trajectory,
    fingertip_state,
    split_dart_sensors,
)
from sensorgrad.seeding import children, substream

HOLD_POLICY = np.repeat([1.9, 2.0, 0.6], KNOTS_PER_JOINT)
# The throwing posture of configs/dart_search.cfg: its trials score.
THROW_POLICY = np.array(
    [1.6196, 1.52648, 1.08784, 1.63504, 1.084, 0.48032, 0.45472, 0.12, -0.11944]
)


def rk4(world, angles, velocities, torques, dt):
    def accel(q, v):
        return arm_dynamics(world, ArmState(q, v, 0.0), torques)

    k1v = accel(angles, velocities)
    k1a = velocities
    k2a = velocities + 0.5 * dt * k1v
    k2v = accel(angles + 0.5 * dt * k1a, k2a)
    k3a = velocities + 0.5 * dt * k2v
    k3v = accel(angles + 0.5 * dt * k2a, k3a)
    k4a = velocities + dt * k3v
    k4v = accel(angles + dt * k3a, k4a)
    q = angles + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    v = velocities + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return q, v


def test_single_link_matches_the_pendulum_equation():
    world = ArmWorld(
        lengths=(0.5,),
        masses=(2.0,),
        kp=(1.0,),
        kd=(0.1,),
        torque_mult_std=(0.0,),
        torque_add_std=(0.0,),
        start_posture=(0.3,),
    )
    # rod about its end: m L^2 / 3; gravity torque: -g m (L/2) cos q
    inertia = 2.0 * 0.5**2 / 3.0
    torque = 1.2
    expected = (torque - 9.8 * 2.0 * 0.25 * np.cos(0.3)) / inertia
    accel = arm_dynamics(
        world, ArmState(np.array([0.3]), np.array([0.0]), 0.0), np.array([torque])
    )
    assert accel[0] == pytest.approx(expected, rel=1e-12)


def test_unforced_motion_conserves_energy_without_gravity():
    world = ArmWorld(gravity=0.0)
    q = np.array([1.9, 2.0, 0.6])
    v = np.array([1.5, -2.0, 3.0])
    start = arm_energy(world, ArmState(q, v, 0.0))
    dt = 1e-4
    torques = np.zeros(3)
    for _ in range(2000):
        q, v = rk4(world, q, v, torques, dt)
    end = arm_energy(world, ArmState(q, v, 0.2))
    assert abs(end - start) <= 1e-3 * abs(start)


def test_hanging_arm_is_an_equilibrium():
    world = ArmWorld()
    q = np.array([-np.pi / 2.0, 0.0, 0.0])
    accel = arm_dynamics(world, ArmState(q, np.zeros(3), 0.0), np.zeros(3))
    assert np.allclose(accel, 0.0, atol=1e-10)


def test_inertia_matrices_are_symmetric_positive_definite():
    world = ArmWorld()
    rng = substream(101)
    angles = rng.uniform(-np.pi, np.pi, size=(1000, 3))
    velocities = rng.normal(size=(1000, 3))
    mass, _, _ = chain_terms(world, angles, velocities)
    assert np.allclose(mass, np.swapaxes(mass, 1, 2), atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(mass)
    assert eigenvalues.min() > 0.0


def chain_world(lengths, masses) -> ArmWorld:
    """A chain of rods with placeholder controller and noise settings."""
    dof = len(lengths)
    return ArmWorld(
        lengths=lengths,
        masses=masses,
        kp=(1.0,) * dof,
        kd=(0.1,) * dof,
        torque_mult_std=(0.0,) * dof,
        torque_add_std=(0.0,) * dof,
        start_posture=(0.0,) * dof,
    )


@st.composite
def chain_states(draw):
    """(world, angles, velocities) for a random chain of 1 to 4 links."""
    dof = draw(st.integers(1, 4))

    def vector(low, high):
        values = st.floats(low, high, allow_nan=False, allow_infinity=False)
        return np.array(draw(st.lists(values, min_size=dof, max_size=dof)))

    world = chain_world(tuple(vector(0.1, 1.0)), tuple(vector(0.2, 3.0)))
    return world, vector(-np.pi, np.pi), vector(-5.0, 5.0)


def inertia(world, angles):
    return chain_terms(world, angles, np.zeros_like(angles))[0][0]


def inertia_derivatives(world, angles, step=1e-6):
    """``out[p] = dM/dq_p`` by central differences of the inertia matrix."""
    out = []
    for shift in np.eye(angles.size) * step:
        plus, minus = inertia(world, angles + shift), inertia(world, angles - shift)
        out.append((plus - minus) / (2.0 * step))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(chain_states())
def test_coriolis_vector_follows_from_the_inertia_matrix(case):
    # Lagrange's equations: c_j = -sum_pl (dM_jl/dq_p - dM_pl/dq_j / 2) v_p v_l.
    world, angles, velocities = case
    mass, _, coriolis = chain_terms(world, angles, velocities)
    rate = inertia_derivatives(world, angles)
    expected = -np.einsum("pjl,p,l->j", rate, velocities, velocities) + 0.5 * np.einsum(
        "jpl,p,l->j", rate, velocities, velocities
    )
    # The differences round at about eps * |M| / step per entry; a wrong
    # Christoffel factor misses by 1e-5 * scale or more.
    scale = np.abs(mass).max() * (1.0 + velocities @ velocities)
    assert np.abs(coriolis[0] - expected).max() <= 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(chain_states())
def test_coriolis_power_is_half_the_inertia_rate(case):
    # v . c = -v' (dM/dt) v / 2, with dM/dt the derivative along v.
    world, angles, velocities = case
    mass, _, coriolis = chain_terms(world, angles, velocities)
    step = 1e-6
    plus = inertia(world, angles + step * velocities)
    minus = inertia(world, angles - step * velocities)
    mass_rate = (plus - minus) / (2.0 * step)
    expected = -0.5 * velocities @ mass_rate @ velocities
    scale = np.abs(mass).max() * (1.0 + velocities @ velocities)
    assert abs(velocities @ coriolis[0] - expected) <= 1e-8 * scale


def test_fingertip_state_of_a_straight_arm():
    world = ArmWorld()
    position, velocity = fingertip_state(
        world, np.zeros(3), np.array([2.0, 0.0, 0.0])
    )
    total = sum(world.lengths)
    assert np.allclose(position, [total, 0.0], atol=1e-12)
    assert np.allclose(velocity, [0.0, 2.0 * total], atol=1e-12)
    # Leading axes are batch axes: each row is its own configuration.
    rng = substream(112)
    angles, velocities = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
    positions, rates = fingertip_state(world, angles, velocities)
    assert positions.shape == rates.shape == (2, 4, 2)
    for index in np.ndindex(2, 4):
        one = fingertip_state(world, angles[index], velocities[index])
        assert np.array_equal(one[0], positions[index])
        assert np.array_equal(one[1], rates[index])


def test_desired_trajectory_interpolates_the_knots():
    world = ArmWorld()
    policy = HOLD_POLICY + 0.1 * substream(102).normal(size=world.policy_dim)
    knot_times = np.linspace(0.0, world.sim_duration, KNOTS_PER_JOINT + 1)
    positions, _ = desired_trajectory(world, policy, knot_times)
    assert np.allclose(positions[0], world.start_posture, atol=1e-12)
    knots = policy.reshape(world.dof, KNOTS_PER_JOINT)
    assert np.allclose(positions[1:], knots.T, atol=1e-12)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    duration=st.floats(0.5, 2.0),
    knots=st.lists(unit, min_size=9, max_size=9),
    start=st.lists(unit, min_size=3, max_size=3),
    fractions=st.lists(st.floats(0.0, 1.25), min_size=1, max_size=40),
)
def test_the_knot_splines_match_scipys_natural_cubic_spline(
    duration, knots, start, fractions
):
    # Unit-scale knot times and values, times up to a quarter past the end.
    world = ArmWorld(sim_duration=duration, start_posture=start)
    knot_times = np.linspace(0.0, duration, KNOTS_PER_JOINT + 1)
    times = duration * np.array(fractions)
    cardinal = CubicSpline(knot_times, np.eye(KNOTS_PER_JOINT + 1), bc_type="natural")
    basis = spline_basis(world, times)
    assert np.allclose(basis, cardinal(times)[:, 1:], rtol=0, atol=1e-12)
    values = np.vstack([start, np.reshape(knots, (3, KNOTS_PER_JOINT)).T])
    spline = CubicSpline(knot_times, values, bc_type="natural")
    positions, rates = desired_trajectory(world, np.array(knots), times)
    assert np.allclose(positions, spline(times), rtol=0, atol=1e-12)
    assert np.allclose(rates, spline(times, 1), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 50), row=st.integers(0, 49), seed=st.integers(0, 2**32 - 1))
def test_a_rows_desired_trajectory_does_not_depend_on_its_batch(size, row, seed):
    world = ArmWorld()
    row = row % size
    policies = HOLD_POLICY + 0.3 * np.random.default_rng(seed).normal(size=(size, 9))
    times = np.arange(world.grid_steps + 25) * world.timestep
    batch = desired_trajectory(world, policies, times)
    alone = desired_trajectory(world, policies[row], times)
    assert np.array_equal(alone[0], batch[0][row])
    assert np.array_equal(alone[1], batch[1][row])


def test_trial_sensors_unpack_consistently():
    world = ArmWorld()
    raw = dart_trial(world, HOLD_POLICY, substream(103)).sensors[0]
    angles, velocities, release = split_dart_sensors(world, raw)
    assert angles.shape == (world.grid_steps + 1, 3)
    assert velocities.shape == angles.shape
    assert np.allclose(angles[0], world.start_posture)
    assert np.allclose(velocities[0], 0.0)
    assert release == raw[-1]
    assert abs(release - world.sim_duration) < 6.0 * world.release_time_std
    with pytest.raises(ValueError, match="length mismatch"):
        split_dart_sensors(world, raw[:-2])


def test_trials_are_deterministic():
    world = ArmWorld()
    a = dart_trial(world, HOLD_POLICY, substream(104))
    b = dart_trial(world, HOLD_POLICY, substream(104))
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.sensors, b.sensors)
    policies = np.tile(HOLD_POLICY, (3, 1))
    batch_a = dart_trials(world, policies, children(substream(105), 3))
    batch_b = dart_trials(world, policies, children(substream(105), 3))
    assert np.array_equal(batch_a.scores, batch_b.scores)
    assert np.array_equal(batch_a.sensors, batch_b.sensors)


@pytest.mark.parametrize("size", [2, 7, 12, 48])
def test_a_one_trial_call_matches_its_row_in_a_batch(size):
    world = ArmWorld()
    noise = 0.05 * substream(109).standard_normal((size, world.policy_dim))
    policies = THROW_POLICY + noise
    batch = dart_trials(world, policies, children(substream(109, size), size))
    for i, rng in enumerate(children(substream(109, size), size)):
        single = dart_trial(world, policies[i], rng)
        assert np.array_equal(single.scores, batch.scores[i : i + 1])
        assert np.array_equal(single.sensors, batch.sensors[i : i + 1])
        assert np.array_equal(single.flagged, batch.flagged[i : i + 1])
    assert not batch.flagged.all()


def test_chunked_calls_match_one_call_bit_for_bit():
    world = ArmWorld()
    count = 96
    policies = THROW_POLICY + 0.05 * substream(110).standard_normal(
        (count, world.policy_dim)
    )
    whole = dart_trials(world, policies, children(substream(110, 1), count))
    assert not whole.flagged.all()
    for size in (2, 7, 12, 48):
        streams = children(substream(110, 1), count)
        parts = [
            dart_trials(world, policies[i : i + size], streams[i : i + size])
            for i in range(0, count, size)
        ]
        for field in ("scores", "sensors", "flagged"):
            stacked = np.concatenate([getattr(part, field) for part in parts])
            assert np.array_equal(stacked, getattr(whole, field)), (size, field)


def test_a_diverging_trial_is_flagged_and_leaves_its_batch_alone():
    world = ArmWorld()
    policies = np.stack([THROW_POLICY, 100.0 * THROW_POLICY, THROW_POLICY + 0.01])
    streams = children(substream(111), 3)
    # The diverging row overflows on the step where it diverges, then
    # takes its remaining steps from a finite placeholder.  Stepped from
    # its held state instead, it raised 422 warnings here.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = dart_trials(world, policies, streams)
    assert len(caught) <= 4, [str(w.message) for w in caught]
    assert batch.flagged.tolist() == [False, True, False]
    assert batch.scores[1] == FLAGGED_SCORE
    assert np.isfinite(batch.sensors).all()
    calm = dart_trials(world, policies[[0, 2]], children(substream(111), 3)[::2])
    assert np.array_equal(calm.scores, batch.scores[[0, 2]])
    assert np.array_equal(calm.sensors, batch.sensors[[0, 2]])


def test_score_is_continuous_in_the_policy():
    world = ArmWorld()
    base = dart_trial(world, HOLD_POLICY, substream(106))
    nudged = dart_trial(world, HOLD_POLICY + 1e-6, substream(106))
    assert abs(nudged.scores[0] - base.scores[0]) < 1e-2


def test_policy_validation():
    world = ArmWorld()
    with pytest.raises(ValueError, match="joint-major"):
        dart_trial(world, np.zeros(4), substream(107))
    with pytest.raises(ValueError, match="finite"):
        dart_trial(world, np.full(9, np.nan), substream(107))


def test_env_exposes_the_policy_dimension_and_encodes_its_sensors():
    world = ArmWorld()
    states = sample_pretraining_states(
        world, 30, substream(108), policy_mean=HOLD_POLICY, policy_cov=0.01 * np.eye(9)
    )
    env = DartEnv(world, fit_dynamics_model(world, states))
    assert env.policy_dim == 9
    batch = env.sample_trials(HOLD_POLICY, [substream(108)])
    assert batch.sensors.shape == (1, world.sensor_dim)
    # One residual spline coefficient per policy knot, then the release time.
    encoded = env.encode_batch(batch)
    assert encoded.sensors.shape == (1, env.policy_dim + 1)
    assert encoded.sensors[0, -1] == batch.sensors[0, -1]
