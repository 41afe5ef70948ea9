"""Planar multi-link arm throwing a dart at a wall.

The policy is a set of desired-angle spline knots per joint.  A PD
controller tracks the resulting joint trajectories under multiplicative
and additive torque noise, the dart leaves the fingertip at a noisy
release time, flies ballistically to a wall plane, and the score is the
negative squared vertical miss.  The sensors are the joint angle and
velocity trajectories on the integration grid plus the realized release
time.

Dynamics use the rigid-rod chain model in relative joint coordinates.
All angle-dependent terms reduce to fixed coefficient tensors contracted
against cos/sin of the cumulative angles, which makes the inertia
matrix, gravity vector, and Coriolis vector exact and cheap to evaluate
for a whole batch of trials at once.

Integration is fixed-step RK4.  The commanded torque is recomputed once
per step from the state at the step start and held for the step, and the
noise draws perturb that held torque, so a trial's torque sequence can be
reconstructed exactly from its policy and its sensor trajectories.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..estimators import TrialBatch

__all__ = [
    "ArmWorld",
    "ArmState",
    "KNOTS_PER_JOINT",
    "FLAGGED_SCORE",
    "arm_dynamics",
    "arm_energy",
    "chain_terms",
    "fingertip_state",
    "desired_trajectory",
    "commanded_torques",
    "split_dart_sensors",
    "dart_trial",
    "dart_trials",
    "DartEnv",
]

KNOTS_PER_JOINT = 3

FLAGGED_SCORE = -1e6

_TINY_FORWARD_SPEED = 1e-9


def _rod_inertias(lengths, masses) -> tuple:
    return tuple(m * length**2 / 12.0 for length, m in zip(lengths, masses))


@dataclass(frozen=True)
class ArmWorld:
    """Arm, controller, noise, and task constants.

    Tuple-valued fields keep instances hashable so derived dynamics
    tensors can be cached per world.  Angles are radians; joint angles
    are relative (each measured from the previous link's direction),
    with the first measured from the +x axis, which points at the wall.
    """

    lengths: tuple = (0.30, 0.27, 0.15)
    masses: tuple = (2.0, 1.3, 0.5)
    inertias: tuple | None = None
    kp: tuple = (300.0, 70.0, 3.3)
    kd: tuple = (14.0, 3.2, 0.15)
    torque_mult_std: tuple = (0.2, 0.2, 0.2)
    torque_add_std: tuple = (0.5, 0.5, 0.5)
    release_time_std: float = 0.01
    sim_duration: float = 0.2
    timestep: float = 1e-3
    start_posture: tuple = (1.9, 2.0, 0.6)
    target_position: tuple = (2.44, 0.0)
    shoulder_position: tuple = (0.0, 0.0)
    gravity: float = 9.8

    def __post_init__(self):
        to_tuple = lambda v: tuple(float(x) for x in v)
        lengths = to_tuple(self.lengths)
        masses = to_tuple(self.masses)
        dof = len(lengths)
        if dof < 1 or len(masses) != dof:
            raise ValueError("lengths and masses must have matching positive size")
        if any(x <= 0.0 for x in lengths) or any(x <= 0.0 for x in masses):
            raise ValueError("lengths and masses must be positive")
        inertias = (
            _rod_inertias(lengths, masses)
            if self.inertias is None
            else to_tuple(self.inertias)
        )
        if len(inertias) != dof or any(x < 0.0 for x in inertias):
            raise ValueError("inertias must be nonnegative, one per link")
        for name in ("kp", "kd", "torque_mult_std", "torque_add_std", "start_posture"):
            value = to_tuple(getattr(self, name))
            if len(value) != dof:
                raise ValueError(f"{name} must have one entry per joint")
            object.__setattr__(self, name, value)
        if self.timestep <= 0.0:
            raise ValueError("timestep must be positive")
        if self.sim_duration < self.timestep:
            raise ValueError("sim_duration must cover at least one timestep")
        if self.release_time_std < 0.0:
            raise ValueError("release_time_std must be nonnegative")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "inertias", inertias)
        object.__setattr__(self, "target_position", to_tuple(self.target_position))
        object.__setattr__(self, "shoulder_position", to_tuple(self.shoulder_position))
        object.__setattr__(self, "release_time_std", float(self.release_time_std))
        object.__setattr__(self, "sim_duration", float(self.sim_duration))
        object.__setattr__(self, "timestep", float(self.timestep))
        object.__setattr__(self, "gravity", float(self.gravity))

    @property
    def dof(self) -> int:
        return len(self.lengths)

    @property
    def policy_dim(self) -> int:
        return self.dof * KNOTS_PER_JOINT

    @property
    def grid_steps(self) -> int:
        return int(round(self.sim_duration / self.timestep))

    @property
    def sensor_dim(self) -> int:
        return (self.grid_steps + 1) * 2 * self.dof + 1


class ArmState(NamedTuple):
    joint_angles: np.ndarray
    joint_velocities: np.ndarray
    time: float


class _ChainTensors(NamedTuple):
    reach: np.ndarray  # reach[i, c]: distance along link c contributing to COM i
    mass_quad: np.ndarray  # [j, l, c, m] for the inertia matrix
    mass_quad_step: np.ndarray  # [p, j, l, c, m] for dM/dq_p
    rot_inertia: np.ndarray  # [j, l] angular-rate block
    grav_weight: np.ndarray  # [j, c] mass-weighted reach
    lengths: np.ndarray
    masses: np.ndarray


@lru_cache(maxsize=None)
def _chain_tensors(world: ArmWorld) -> _ChainTensors:
    dof = world.dof
    lengths = np.array(world.lengths)
    masses = np.array(world.masses)
    inertias = np.array(world.inertias)
    # reach[i, c] = L_c for c < i, half length for c = i (rod COM), 0 past i
    reach = np.zeros((dof, dof))
    for i in range(dof):
        reach[i, :i] = lengths[:i]
        reach[i, i] = lengths[i] / 2.0
    # coef[i, j, c]: dependence of COM i on cumulative angle c through joint j
    coef = np.zeros((dof, dof, dof))
    for i in range(dof):
        for j in range(dof):
            for c in range(j, i + 1):
                coef[i, j, c] = reach[i, c]
    mass_quad = np.einsum("i,ijc,ilm->jlcm", masses, coef, coef)
    step = (np.arange(dof)[:, None] >= np.arange(dof)[None, :]).astype(float)
    mass_quad_step = (
        mass_quad[None] * (step.T[:, None, None, :, None] - step.T[:, None, None, None, :])
    )
    lower = (np.arange(dof)[None, :] <= np.arange(dof)[:, None]).astype(float)
    rot_inertia = np.einsum("i,ij,il->jl", inertias, lower, lower)
    grav_weight = np.einsum("i,ijc->jc", masses, coef)
    return _ChainTensors(
        reach, mass_quad, mass_quad_step, rot_inertia, grav_weight, lengths, masses
    )


def _angle_terms(angles: np.ndarray):
    theta = np.cumsum(angles, axis=-1)
    return np.cos(theta), np.sin(theta)


def _mass_matrices(tensors: _ChainTensors, cos_t, sin_t) -> np.ndarray:
    cos_diff = cos_t[:, :, None] * cos_t[:, None, :] + sin_t[:, :, None] * sin_t[:, None, :]
    return np.einsum("jlcm,bcm->bjl", tensors.mass_quad, cos_diff) + tensors.rot_inertia


def _force_terms(tensors: _ChainTensors, cos_t, sin_t, velocities, gravity):
    sin_diff = sin_t[:, :, None] * cos_t[:, None, :] - cos_t[:, :, None] * sin_t[:, None, :]
    mass_rate = -np.einsum("pjlcm,bcm->bpjl", tensors.mass_quad_step, sin_diff)
    vv = velocities[:, :, None] * velocities[:, None, :]
    coriolis = -np.einsum("bpjl,bpl->bj", mass_rate, vv) + 0.5 * np.einsum(
        "bjpl,bpl->bj", mass_rate, vv
    )
    grav = -gravity * np.einsum("jc,bc->bj", tensors.grav_weight, cos_t)
    return grav, coriolis


def _accelerations(world: ArmWorld, tensors, angles, velocities, torques) -> np.ndarray:
    cos_t, sin_t = _angle_terms(angles)
    mass = _mass_matrices(tensors, cos_t, sin_t)
    grav, coriolis = _force_terms(tensors, cos_t, sin_t, velocities, world.gravity)
    rhs = torques + grav + coriolis
    bad = ~(
        np.isfinite(mass).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    )
    if bad.any():
        mass = mass.copy()
        rhs = rhs.copy()
        mass[bad] = np.eye(world.dof)
        rhs[bad] = np.nan
    return np.linalg.solve(mass, rhs[..., None])[..., 0]


def chain_terms(world: ArmWorld, angles, velocities):
    """Inertia matrices, gravity vectors, and Coriolis vectors, batched.

    ``angles`` and ``velocities`` have shape (batch, dof); returns
    arrays of shape (batch, dof, dof), (batch, dof), (batch, dof).
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    tensors = _chain_tensors(world)
    cos_t, sin_t = _angle_terms(angles)
    mass = _mass_matrices(tensors, cos_t, sin_t)
    grav, coriolis = _force_terms(tensors, cos_t, sin_t, velocities, world.gravity)
    return mass, grav, coriolis


def arm_dynamics(world: ArmWorld, state: ArmState, torques) -> np.ndarray:
    """Joint accelerations solving ``m(x) a = tau + g(x) + c(x, v)``."""
    angles = np.asarray(state.joint_angles, dtype=float)
    velocities = np.asarray(state.joint_velocities, dtype=float)
    torques = np.asarray(torques, dtype=float)
    expected = (world.dof,)
    if angles.shape != expected or velocities.shape != expected or torques.shape != expected:
        raise ValueError("state and torques must have one entry per joint")
    if not (np.isfinite(angles).all() and np.isfinite(velocities).all()):
        raise ValueError("state must be finite")
    mass, grav, coriolis = chain_terms(world, angles, velocities)
    try:
        np.linalg.cholesky(mass[0])
    except np.linalg.LinAlgError:
        raise ValueError("inertia matrix is not positive definite") from None
    return np.linalg.solve(mass[0], torques + grav[0] + coriolis[0])


def arm_energy(world: ArmWorld, state: ArmState) -> float:
    """Kinetic plus gravitational energy, potential zero at shoulder height."""
    tensors = _chain_tensors(world)
    angles = np.asarray(state.joint_angles, dtype=float)[None, :]
    velocities = np.asarray(state.joint_velocities, dtype=float)
    cos_t, sin_t = _angle_terms(angles)
    mass = _mass_matrices(tensors, cos_t, sin_t)[0]
    kinetic = 0.5 * float(velocities @ mass @ velocities)
    heights = np.einsum("c,c->", tensors.grav_weight[0], sin_t[0])
    return kinetic + world.gravity * float(heights)


def fingertip_state(world: ArmWorld, angles, velocities):
    """World-frame fingertip position and velocity for one configuration."""
    angles = np.asarray(angles, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    theta = np.cumsum(angles)
    omega = np.cumsum(velocities)
    lengths = np.array(world.lengths)
    position = np.array(world.shoulder_position) + np.array(
        [lengths @ np.cos(theta), lengths @ np.sin(theta)]
    )
    velocity = np.array(
        [-(lengths * np.sin(theta)) @ omega, (lengths * np.cos(theta)) @ omega]
    )
    return position, velocity


def _knot_times(world: ArmWorld) -> np.ndarray:
    return np.linspace(0.0, world.sim_duration, KNOTS_PER_JOINT + 1)


def desired_trajectory(world: ArmWorld, policies, times):
    """Desired joint angles and velocities of policies' tracking splines.

    ``policies`` has shape (..., policy_dim), knots joint-major, and
    ``times`` shape (steps,); both results have shape (..., steps, dof).
    One spline serves every policy row.
    """
    from scipy.interpolate import CubicSpline

    policies = np.asarray(policies, dtype=float)
    knots = policies.reshape(-1, world.dof, KNOTS_PER_JOINT)
    values = np.empty((KNOTS_PER_JOINT + 1, knots.shape[0], world.dof))
    values[0] = np.array(world.start_posture)
    values[1:] = np.moveaxis(knots, 2, 0)
    spline = CubicSpline(_knot_times(world), values, axis=0, bc_type="natural")
    times = np.asarray(times, dtype=float)
    shape = policies.shape[:-1] + (times.size, world.dof)

    def rows_first(samples):  # (steps, rows, dof) -> (..., steps, dof)
        return np.moveaxis(samples, 1, 0).reshape(shape)

    return rows_first(spline(times)), rows_first(spline(times, 1))


def _pd_torques(world: ArmWorld, des_pos, des_vel, angles, velocities):
    return np.array(world.kp) * (des_pos - angles) + np.array(world.kd) * (
        des_vel - velocities
    )


def commanded_torques(world: ArmWorld, policies, angles, velocities, times):
    """PD torques the controller commands at the given observed states.

    This is the pre-noise torque; it is exactly reconstructible from a
    trial's policy and sensor trajectories because the controller reads
    the state only at step starts.  ``angles`` and ``velocities`` have
    shape (..., steps, dof), matching the leading axes of ``policies``.
    """
    des_pos, des_vel = desired_trajectory(world, policies, times)
    return _pd_torques(world, des_pos, des_vel, angles, velocities)


def split_dart_sensors(world: ArmWorld, raw):
    """Unpack raw sensors into (angles, velocities, release_time).

    ``raw`` has shape (..., sensor_dim).  Trajectories have shape
    (..., grid_steps + 1, dof), sampled at multiples of the timestep
    starting at zero; release times have the leading shape.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1:] != (world.sensor_dim,):
        raise ValueError("length mismatch: raw sensors do not match this world")
    samples = world.grid_steps + 1
    blocks = raw[..., :-1].reshape(raw.shape[:-1] + (samples, 2 * world.dof))
    return blocks[..., : world.dof], blocks[..., world.dof :], raw[..., -1]


def _rk4_step(world, tensors, angles, velocities, torques, step):
    def accel(a, v):
        return _accelerations(world, tensors, a, v, torques)

    k1v = accel(angles, velocities)
    k1a = velocities
    k2a = velocities + 0.5 * step * k1v
    k2v = accel(angles + 0.5 * step * k1a, k2a)
    k3a = velocities + 0.5 * step * k2v
    k3v = accel(angles + 0.5 * step * k2a, k3a)
    k4a = velocities + step * k3v
    k4v = accel(angles + step * k3a, k4a)
    new_angles = angles + (step / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    new_velocities = velocities + (step / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return new_angles, new_velocities


def _simulate_batch(world: ArmWorld, policies: np.ndarray, streams) -> TrialBatch:
    """Integrate one trial per policy, each on its own random stream.

    Per-trial draw order: release time, then the multiplicative torque
    noise array, then the additive array, so a trial's randomness does
    not depend on what else is in the batch.  The batched linear algebra
    rounds a lone row differently from the same row among others, so a
    one-row call simulates its row beside a copy of it (drawing from a
    copy of its stream) and keeps the first.
    """
    if policies.shape[0] == 1:
        pair = np.repeat(policies, 2, axis=0)
        twin = _simulate_batch(world, pair, [streams[0], copy.deepcopy(streams[0])])
        return twin.rows(slice(0, 1))
    tensors = _chain_tensors(world)
    count, dof = policies.shape[0], world.dof
    dt = world.timestep
    grid = world.grid_steps

    release_times = np.empty(count)
    intervals = np.empty(count, dtype=int)
    for i in range(count):
        draw = world.sim_duration + world.release_time_std * streams[i].standard_normal()
        release_times[i] = max(float(draw), 0.0)
        intervals[i] = max(grid, int(math.floor(release_times[i] / dt)) + 1)
    max_intervals = int(intervals.max())
    mult = np.zeros((count, max_intervals, dof))
    add = np.zeros((count, max_intervals, dof))
    mult_std = np.array(world.torque_mult_std)
    add_std = np.array(world.torque_add_std)
    for i in range(count):
        span = intervals[i]
        mult[i, :span] = streams[i].standard_normal((span, dof)) * mult_std
        add[i, :span] = streams[i].standard_normal((span, dof)) * add_std

    step_times = np.arange(max_intervals) * dt
    des_pos, des_vel = desired_trajectory(world, policies, step_times)

    angles = np.zeros((count, max_intervals + 1, dof))
    velocities = np.zeros((count, max_intervals + 1, dof))
    torques = np.zeros((count, max_intervals, dof))
    angles[:, 0] = np.array(world.start_posture)
    alive = np.ones(count, dtype=bool)
    for k in range(max_intervals):
        q = angles[:, k]
        v = velocities[:, k]
        commanded = _pd_torques(world, des_pos[:, k], des_vel[:, k], q, v)
        torques[:, k] = commanded * (1.0 + mult[:, k]) + add[:, k]
        new_q, new_v = _rk4_step(world, tensors, q, v, torques[:, k], dt)
        ok = np.isfinite(new_q).all(axis=1) & np.isfinite(new_v).all(axis=1)
        active = alive & (k < intervals)
        write = active & ok
        alive = alive & (ok | ~active)
        angles[:, k + 1] = np.where(write[:, None], new_q, q)
        velocities[:, k + 1] = np.where(write[:, None], new_v, v)

    sensor_blocks = np.concatenate(
        [angles[:, : grid + 1], velocities[:, : grid + 1]], axis=2
    ).reshape(count, (grid + 1) * 2 * dof)
    raw = np.concatenate([sensor_blocks, release_times[:, None]], axis=1)

    scores = np.full(count, FLAGGED_SCORE)
    flagged = ~alive
    target_x, target_y = world.target_position
    for i in np.flatnonzero(alive):
        k_rel = int(math.floor(release_times[i] / dt))
        partial = release_times[i] - k_rel * dt
        q_rel, v_rel = _rk4_step(
            world,
            tensors,
            angles[i, k_rel][None, :],
            velocities[i, k_rel][None, :],
            torques[i, k_rel][None, :],
            partial,
        )
        position, velocity = fingertip_state(world, q_rel[0], v_rel[0])
        gap = target_x - position[0]
        degenerate = (
            not (np.isfinite(position).all() and np.isfinite(velocity).all())
            or velocity[0] <= _TINY_FORWARD_SPEED
            or gap < 0.0
        )
        if degenerate:
            flagged[i] = True
        else:
            flight = gap / velocity[0]
            hit_y = position[1] + velocity[1] * flight - 0.5 * world.gravity * flight**2
            scores[i] = -((hit_y - target_y) ** 2)
    return TrialBatch(policies, scores, raw, flagged)


def _check_policies(world: ArmWorld, policies) -> np.ndarray:
    policies = np.atleast_2d(np.asarray(policies, dtype=float))
    if policies.shape[1] != world.policy_dim:
        raise ValueError(
            f"dart policy must have {world.policy_dim} knots, joint-major"
        )
    if not np.isfinite(policies).all():
        raise ValueError("policy knots must be finite")
    return policies


def dart_trial(world: ArmWorld, policy, rng: np.random.Generator) -> TrialBatch:
    """Throw once with the given spline-knot policy: a one-trial batch."""
    return _simulate_batch(world, _check_policies(world, policy), [rng])


def dart_trials(world: ArmWorld, policies, streams) -> TrialBatch:
    """Throw one trial per policy row, row ``i`` drawing from ``streams[i]``."""
    policies = _check_policies(world, policies)
    if len(streams) != policies.shape[0]:
        raise ValueError("need one stream per policy row")
    return _simulate_batch(world, policies, streams)


class DartEnv:
    """Trial sampler for the dart task.

    When built with a fitted dynamics model, ``encode_batch`` replaces a
    batch's trajectory sensors with residual-projection features;
    without one, batches pass through unchanged and only the
    policy-only estimator applies.
    """

    def __init__(self, world: ArmWorld | None = None, model=None):
        self.world = world if world is not None else ArmWorld()
        self.policy_dim = self.world.policy_dim
        self.model = model

    def check_policies(self, policies) -> np.ndarray:
        """Policy rows as a float array; raises for a malformed policy."""
        return _check_policies(self.world, policies)

    def sample_trials(self, policies, streams) -> TrialBatch:
        """One throw per policy row, row ``i`` drawing from ``streams[i]``."""
        return dart_trials(self.world, policies, streams)

    def encode_batch(self, batch):
        if self.model is None:
            return batch
        from ..dynamics_sensors import encode_dart_batch

        return encode_dart_batch(self.world, self.model, batch)
