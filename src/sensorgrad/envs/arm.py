"""Planar multi-link arm throwing a dart at a wall.

The policy is a set of desired-angle spline knots per joint.  A PD
controller tracks the resulting joint trajectories under multiplicative
and additive torque noise, the dart leaves the fingertip at a noisy
release time, flies ballistically to the wall plane ``TARGET_POSITION``
ahead of the shoulder, which sits at the origin, and the score is the
negative squared vertical miss.  The sensors are the joint angle and
velocity trajectories on the integration grid plus the realized release
time.

Dynamics use the rigid-rod chain model in relative joint coordinates,
with the Coriolis vector in Christoffel-symbol form (Spong, Hutchinson &
Vidyasagar, *Robot Modeling and Control*, 2006, the dynamics chapter).
Fixed per-world maps take the products cos(θc − θm) and sin(θc − θm) of
the cumulative angles θ to the inertia matrix and the Christoffel
symbols, so a batch's exact dynamics are a few matrix products.

Integration is fixed-step RK4 over the whole batch; the release is one
more batched step, each trial's of its own partial length.  The
commanded torque is recomputed once per step from the state at the step
start and held for the step, and the noise draws perturb that held
torque, so a trial's torque sequence can be reconstructed exactly from
its policy and its sensor trajectories.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..estimators import TrialBatch

__all__ = [
    "ArmWorld",
    "KNOTS_PER_JOINT",
    "FLAGGED_SCORE",
    "TARGET_POSITION",
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

# The target on the wall, (x, y) in metres from the shoulder.
TARGET_POSITION = (2.44, 0.0)


def _rod_inertias(lengths, masses) -> tuple:
    return tuple(m * length**2 / 12.0 for length, m in zip(lengths, masses))


@dataclass(frozen=True)
class ArmWorld:
    """Arm, controller, noise and integration constants.

    Tuple-valued fields keep instances hashable so derived dynamics
    tensors can be cached per world.  Angles are radians; joint angles
    are relative (each measured from the previous link's direction),
    with the first measured from the +x axis, which points at the wall.
    """

    lengths: tuple = (0.30, 0.27, 0.15)
    masses: tuple = (2.0, 1.3, 0.5)
    kp: tuple = (300.0, 70.0, 3.3)
    kd: tuple = (14.0, 3.2, 0.15)
    torque_mult_std: tuple = (0.2, 0.2, 0.2)
    torque_add_std: tuple = (0.5, 0.5, 0.5)
    release_time_std: float = 0.01
    sim_duration: float = 0.2
    timestep: float = 1e-3
    start_posture: tuple = (1.9, 2.0, 0.6)
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


class _ChainTensors(NamedTuple):
    """Angle-free maps of one world's chain dynamics, as :func:`_dynamics` applies them."""

    mass_map: np.ndarray  # [(c, m), (j, l)]
    rot_inertia: np.ndarray  # [j, l] angular-rate block
    coriolis_map: np.ndarray  # [(c, m), (j, p, l)] Christoffel symbols
    gravity_map: np.ndarray  # [c, j]


@lru_cache(maxsize=None)
def _chain_tensors(world: ArmWorld) -> _ChainTensors:
    dof = world.dof
    lengths = np.array(world.lengths)
    masses = np.array(world.masses)
    inertias = np.array(_rod_inertias(world.lengths, world.masses))
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
    # M_jl = sum_cm quad[j, l, c, m] cos(θc − θm) + rot_inertia[j, l]
    quad = np.einsum("i,ijc,ilm->jlcm", masses, coef, coef)
    # ∂θc/∂q_p = [p <= c], so ∂M_jl/∂q_p = -sum_cm rate[p, j, l, c, m] sin(θc − θm)
    lead = (np.arange(dof)[:, None] <= np.arange(dof)[None, :]).astype(float)
    rate = quad[None] * (lead[:, None, None, :, None] - lead[:, None, None, None, :])
    # c_j = -sum_pl (∂M_jl/∂q_p - ½ ∂M_pl/∂q_j) v_p v_l
    christoffel = np.swapaxes(rate, 0, 1) - 0.5 * rate  # [j, p, l, c, m]
    lower = (np.arange(dof)[None, :] <= np.arange(dof)[:, None]).astype(float)
    rot_inertia = np.einsum("i,ij,il->jl", inertias, lower, lower)
    grav_weight = np.einsum("i,ijc->jc", masses, coef)
    return _ChainTensors(
        mass_map=quad.transpose(2, 3, 0, 1).reshape(dof * dof, dof * dof),
        rot_inertia=rot_inertia,
        coriolis_map=christoffel.transpose(3, 4, 0, 1, 2).reshape(dof * dof, dof**3),
        gravity_map=-world.gravity * grav_weight.T,
    )


def _dynamics(tensors: _ChainTensors, angles, velocities):
    """Inertia matrices, gravity and Coriolis vectors of (rows, dof) states."""
    rows, dof = angles.shape
    theta = np.cumsum(angles, axis=1)
    turn = np.empty((rows, dof), dtype=complex)
    turn.real, turn.imag = np.cos(theta), np.sin(theta)
    # e^{iθc} e^{-iθm} = cos(θc − θm) + i sin(θc − θm)
    diff = (turn[:, :, None] * turn.conj()[:, None, :]).reshape(rows, dof * dof)
    cos_t, cos_diff, sin_diff = turn.real, diff.real, diff.imag
    mass = (cos_diff @ tensors.mass_map).reshape(rows, dof, dof) + tensors.rot_inertia
    vv = (velocities[:, :, None] * velocities[:, None, :]).reshape(rows, dof * dof, 1)
    christoffel = (sin_diff @ tensors.coriolis_map).reshape(rows, dof, dof * dof)
    coriolis = (christoffel @ vv)[..., 0]
    grav = cos_t @ tensors.gravity_map
    return mass, grav, coriolis


def _accelerations(tensors: _ChainTensors, angles, velocities, torques) -> np.ndarray:
    mass, grav, coriolis = _dynamics(tensors, angles, velocities)
    rhs = torques + grav + coriolis
    if not (np.isfinite(mass).all() and np.isfinite(rhs).all()):
        # A diverged row must not make the batched solve raise: it
        # solves a harmless system and comes out NaN.
        bad = ~(np.isfinite(mass).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1))
        mass[bad] = np.eye(angles.shape[1])
        rhs[bad] = np.nan
    return np.linalg.solve(mass, rhs[..., None])[..., 0]


def chain_terms(world: ArmWorld, angles, velocities):
    """Inertia matrices, gravity vectors, and Coriolis vectors, batched.

    ``angles`` and ``velocities`` have shape (batch, dof); returns
    arrays of shape (batch, dof, dof), (batch, dof), (batch, dof).
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    return _dynamics(_chain_tensors(world), angles, velocities)


def fingertip_state(world: ArmWorld, angles, velocities):
    """Fingertip positions (shoulder at the origin) and velocities (..., 2)
    of (..., dof) states."""
    theta = np.cumsum(np.asarray(angles, dtype=float), axis=-1)
    omega = np.cumsum(np.asarray(velocities, dtype=float), axis=-1)
    lengths = np.array(world.lengths)
    reach_x = lengths * np.cos(theta)
    reach_y = lengths * np.sin(theta)
    position = np.stack([reach_x.sum(axis=-1), reach_y.sum(axis=-1)], axis=-1)
    velocity = np.stack(
        [-(reach_y * omega).sum(axis=-1), (reach_x * omega).sum(axis=-1)], axis=-1
    )
    return position, velocity


def _knot_basis(world: ArmWorld, times):
    """Cardinal natural cubic splines on the policy's knot times, and their slopes.

    Column j of both (steps, knots + 1) results is the natural cubic
    spline that is 1 at knot j (knot 0 is the start at time zero) and 0
    at the others, sampled at ``times``; times past the last knot extend
    its end piece.  The knots' second derivatives solve the tridiagonal
    continuity system (de Boor, *A Practical Guide to Splines*, 1978).
    """
    unit = np.eye(KNOTS_PER_JOINT + 1)
    knots = np.linspace(0.0, world.sim_duration, KNOTS_PER_JOINT + 1)
    h = np.diff(knots)
    inner = h[1:-1]
    system = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(inner, 1) + np.diag(inner, -1)
    jumps = 6.0 * np.diff(np.diff(unit, axis=0) / h[:, None], axis=0)
    curvature = np.zeros_like(unit)
    curvature[1:-1] = np.linalg.solve(system, jumps)

    times = np.asarray(times, dtype=float)
    piece = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, h.size - 1)
    width = h[piece, None]
    left = (knots[piece + 1] - times)[:, None]
    right = (times - knots[piece])[:, None]
    m0, m1 = curvature[piece], curvature[piece + 1]
    c0 = unit[piece] / width - m0 * width / 6.0
    c1 = unit[piece + 1] / width - m1 * width / 6.0
    values = (m0 * left**3 + m1 * right**3) / (6.0 * width) + c0 * left + c1 * right
    slopes = (m1 * right**2 - m0 * left**2) / (2.0 * width) + c1 - c0
    return values, slopes


def desired_trajectory(world: ArmWorld, policies, times):
    """Desired joint angles and velocities of policies' tracking splines.

    ``policies`` has shape (..., policy_dim), knots joint-major, and
    ``times`` shape (steps,); both results have shape (..., steps, dof).
    The knot basis is applied term by term, so a row's trajectory does
    not depend on the rows beside it.
    """
    policies = np.asarray(policies, dtype=float)
    knots = policies.reshape(policies.shape[:-1] + (1, world.dof, KNOTS_PER_JOINT))
    start = np.array(world.start_posture)

    def combine(basis):  # sum over knots of basis column j times knot value j
        total = basis[:, :1] * start
        for j in range(KNOTS_PER_JOINT):
            total = total + basis[:, j + 1, None] * knots[..., j]
        return total

    values, slopes = _knot_basis(world, times)
    return combine(values), combine(slopes)


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


def _rk4_step(tensors, states, torques, step):
    """RK4 step of (rows, 2 dof) angle-velocity states; step: scalar or (rows, 1)."""
    dof = states.shape[1] // 2

    def rate(y):
        accel = _accelerations(tensors, y[:, :dof], y[:, dof:], torques)
        return np.concatenate([y[:, dof:], accel], axis=1)

    k1 = rate(states)
    k2 = rate(states + 0.5 * step * k1)
    k3 = rate(states + 0.5 * step * k2)
    k4 = rate(states + step * k3)
    return states + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _simulate_batch(world: ArmWorld, policies: np.ndarray, streams) -> TrialBatch:
    """Integrate one trial per policy, each on its own random stream.

    Per-trial draw order: release time, then the multiplicative torque
    noise array, then the additive array, so a trial's randomness does
    not depend on what else is in the batch.  The batched matrix
    products round a lone row differently from the same row among
    others, so a one-row call simulates its row beside a copy of it
    (drawing from a copy of its stream) and keeps the first.
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
    for i in range(count):
        draw = world.sim_duration + world.release_time_std * streams[i].standard_normal()
        release_times[i] = max(float(draw), 0.0)
    k_rel = np.floor(release_times / dt).astype(int)  # last grid step before release
    intervals = np.maximum(grid, k_rel + 1)
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

    # states[:, k] holds the joint angles, then the joint velocities, at step k.
    states = np.zeros((count, max_intervals + 1, 2 * dof))
    torques = np.zeros((count, max_intervals, dof))
    states[:, 0, :dof] = np.array(world.start_posture)
    alive = np.ones(count, dtype=bool)
    # A row that diverged or has ended keeps its held state in ``states``
    # and takes each remaining step, unforced, from the start posture at
    # rest: the result is discarded, and it cannot overflow again.
    rest = states[:, 0].copy()
    for k in range(max_intervals):
        active = alive & (k < intervals)
        y = np.where(active[:, None], states[:, k], rest)
        q, v = y[:, :dof], y[:, dof:]
        commanded = _pd_torques(world, des_pos[:, k], des_vel[:, k], q, v)
        torques[:, k] = commanded * (1.0 + mult[:, k]) + add[:, k]
        torques[~active, k] = 0.0
        new = _rk4_step(tensors, y, torques[:, k], dt)
        ok = np.isfinite(new).all(axis=1)
        alive &= ok | ~active
        states[:, k + 1] = np.where((active & ok)[:, None], new, states[:, k])

    sensor_blocks = states[:, : grid + 1].reshape(count, (grid + 1) * 2 * dof)
    raw = np.concatenate([sensor_blocks, release_times[:, None]], axis=1)

    # Release: every row (at least two, so none rounds as a lone row)
    # takes its partial step from the grid state before its release time,
    # a dead row from the placeholder.
    partial = (release_times - k_rel * dt)[:, None]
    rows = np.arange(count)
    start = np.where(alive[:, None], states[rows, k_rel], rest)
    torque = np.where(alive[:, None], torques[rows, k_rel], 0.0)
    released = _rk4_step(tensors, start, torque, partial)
    position, velocity = fingertip_state(world, released[:, :dof], released[:, dof:])
    target_x, target_y = TARGET_POSITION
    gap = target_x - position[:, 0]
    finite = np.isfinite(position).all(axis=1) & np.isfinite(velocity).all(axis=1)
    forward = (velocity[:, 0] > _TINY_FORWARD_SPEED) & (gap >= 0.0)
    throws = alive & finite & forward
    flight = gap[throws] / velocity[throws, 0]
    hit_y = (
        position[throws, 1]
        + velocity[throws, 1] * flight
        - 0.5 * world.gravity * flight**2
    )
    scores = np.full(count, FLAGGED_SCORE)
    scores[throws] = -((hit_y - target_y) ** 2)
    return TrialBatch(policies, scores, raw, ~throws)


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

    ``encode_batch`` replaces a batch's trajectory sensors with
    residual-projection features under the fitted dynamics ``model``.
    """

    def __init__(self, world: ArmWorld, model):
        self.world = world
        self.policy_dim = world.policy_dim
        self.model = model

    def check_policies(self, policies) -> np.ndarray:
        """Policy rows as a float array; raises for a malformed policy."""
        return _check_policies(self.world, policies)

    def sample_trials(self, policies, streams) -> TrialBatch:
        """One throw per policy row, row ``i`` drawing from ``streams[i]``."""
        return dart_trials(self.world, policies, streams)

    def encode_batch(self, batch):
        # Imported here: dynamics_sensors imports this module.
        from ..dynamics_sensors import encode_dart_batch

        return encode_dart_batch(self.world, self.model, batch)
