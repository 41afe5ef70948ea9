"""Crude learned dynamics model and residual-based sensor encoding.

The arm's raw sensors are full joint trajectories, far too wide to feed
a regression on a dozen trials.  This pipeline compresses them: fit a
quadratic-feature model of the arm's own dynamics once, per experiment,
then describe each trial by how its observed motion deviates from the
model's prediction under the commanded torques.  The deviation curves
carry exactly the torque noise and release-time variation that perturb
the score, so their low-order projections make good sensors.

The model regresses vec(m(x)^-1), m(x)^-1 g(x), and m(x)^-1 c(x, v)
on quadratic features of the observed state, with targets computed from
the simulator's exact dynamics at sampled states.  No per-trial noise is
ever visible to the pipeline; at trial time it sees only the policy, the
sensed trajectories, and the realized release time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs.arm import (
    ArmWorld,
    chain_terms,
    commanded_torques,
    dart_trials,
    split_dart_sensors,
)
from .estimators import TrialBatch
from .linreg import quad_feature_count, quad_features
from .seeding import children, psd_sqrt

__all__ = [
    "DynamicsModel",
    "ResidualCurve",
    "sample_pretraining_states",
    "fit_dynamics_model",
    "predict_acceleration",
    "velocity_residuals",
    "spline_basis",
    "project_residuals",
    "encode_dart_batch",
]


@dataclass(frozen=True)
class DynamicsModel:
    """Linear maps from state features to inverse-dynamics targets.

    ``inverse_mass_map`` and ``gravity_map`` act on quadratic features
    of the joint angles; ``coriolis_map`` acts on quadratic features of
    the stacked angle/velocity vector.
    """

    inverse_mass_map: np.ndarray
    gravity_map: np.ndarray
    coriolis_map: np.ndarray
    joint_count: int
    fit_r2_inverse_mass: float
    fit_r2_gravity: float
    fit_r2_coriolis: float

    def __post_init__(self):
        k = int(self.joint_count)
        f1 = quad_feature_count(k)
        f2 = quad_feature_count(2 * k)
        if self.inverse_mass_map.shape != (f1, k * k):
            raise ValueError("inverse mass map must be (features, k^2)")
        if self.gravity_map.shape != (f1, k):
            raise ValueError("gravity map must be (features, k)")
        if self.coriolis_map.shape != (f2, k):
            raise ValueError("coriolis map must be (state features, k)")
        object.__setattr__(self, "joint_count", k)


@dataclass(frozen=True)
class ResidualCurve:
    """Per-step velocity prediction errors of one trial."""

    values: np.ndarray
    timestep: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("residual curve must be (steps, joints)")
        if not np.isfinite(values).all():
            raise ValueError("residual curve must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestep", float(self.timestep))

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.values.shape[0]) + 1) * self.timestep


def _hold_policy(world: ArmWorld) -> np.ndarray:
    from .envs.arm import KNOTS_PER_JOINT

    return np.repeat(np.array(world.start_posture), KNOTS_PER_JOINT)


def sample_pretraining_states(
    world: ArmWorld,
    count: int,
    rng: np.random.Generator,
    *,
    policy_mean=None,
    policy_cov=None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """States likely to be visited, from rollouts of random policies.

    Policies are drawn from Normal(policy_mean, policy_cov); defaults
    hold the start posture with mild knot spread.  Rollouts run with the
    world's own torque noise, and the returned states are a uniform
    subsample (without replacement) of all visited grid states.
    """
    if count < 1:
        raise ValueError("count must be positive")
    mean = (
        _hold_policy(world)
        if policy_mean is None
        else np.asarray(policy_mean, dtype=float)
    )
    if mean.shape != (world.policy_dim,):
        raise ValueError("policy mean must match the policy dimension")
    cov = (
        np.eye(world.policy_dim) * 0.25
        if policy_cov is None
        else np.asarray(policy_cov, dtype=float)
    )
    root = psd_sqrt(cov)
    states_per_rollout = world.grid_steps + 1
    rollouts = max(2, -(-count // max(states_per_rollout // 5, 1)))
    policy_rng, trial_rng, pick_rng = children(rng, 3)
    policies = mean + policy_rng.standard_normal((rollouts, world.policy_dim)) @ root.T
    trials = dart_trials(world, policies, children(trial_rng, rollouts))
    pool_q = []
    pool_v = []
    for raw in trials.raw_sensors:
        angles, velocities, _ = split_dart_sensors(world, raw)
        pool_q.append(angles)
        pool_v.append(velocities)
    pool_q = np.concatenate(pool_q, axis=0)
    pool_v = np.concatenate(pool_v, axis=0)
    total = pool_q.shape[0]
    if count > total:
        raise ValueError(f"cannot draw {count} states from {total} visited")
    picks = pick_rng.choice(total, size=count, replace=False)
    return [(pool_q[i].copy(), pool_v[i].copy()) for i in picks]


def fit_dynamics_model(world: ArmWorld, states) -> DynamicsModel:
    """Regress exact inverse-dynamics targets on state features.

    The angle-feature design must be full rank; the angle/velocity
    design may be rank deficient (all-zero velocities, say), in which
    case the Coriolis map is the minimum-norm solution, which still
    reproduces the targets on the sampled subspace.
    """
    angles = np.array([np.asarray(s[0], dtype=float) for s in states])
    velocities = np.array([np.asarray(s[1], dtype=float) for s in states])
    if angles.ndim != 2 or angles.shape != velocities.shape:
        raise ValueError("states must be (angles, velocities) pairs")
    count, dof = angles.shape
    f1 = quad_feature_count(dof)
    f2 = quad_feature_count(2 * dof)
    if count < f2 + 2:
        raise ValueError(
            f"insufficient samples: {count} states cannot fit {f2} features"
        )
    mass, grav, coriolis = chain_terms(world, angles, velocities)
    inv_mass = np.linalg.inv(mass)
    target_mass = inv_mass.reshape(count, dof * dof)
    target_grav = np.einsum("bjl,bl->bj", inv_mass, grav)
    target_cor = np.einsum("bjl,bl->bj", inv_mass, coriolis)

    phi1 = quad_features(angles)
    phi2 = quad_features(np.concatenate([angles, velocities], axis=1))
    map_mass, _, rank1, _ = np.linalg.lstsq(phi1, target_mass, rcond=None)
    if rank1 < f1:
        raise ValueError("insufficient state diversity")
    map_grav = np.linalg.lstsq(phi1, target_grav, rcond=None)[0]
    map_cor = np.linalg.lstsq(phi2, target_cor, rcond=None)[0]

    def r_squared(design, coef, target):
        resid = target - design @ coef
        spread = target - target.mean(axis=0)
        total = float(np.sum(spread**2))
        if total == 0.0:
            return 1.0
        return 1.0 - float(np.sum(resid**2)) / total

    return DynamicsModel(
        inverse_mass_map=map_mass,
        gravity_map=map_grav,
        coriolis_map=map_cor,
        joint_count=dof,
        fit_r2_inverse_mass=r_squared(phi1, map_mass, target_mass),
        fit_r2_gravity=r_squared(phi1, map_grav, target_grav),
        fit_r2_coriolis=r_squared(phi2, map_cor, target_cor),
    )


def predict_acceleration(model: DynamicsModel, torques, angles, velocities):
    """Model acceleration under commanded torques at observed states.

    Accepts single states or stacked (batch, joints) arrays.
    """
    torques = np.asarray(torques, dtype=float)
    angles = np.asarray(angles, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    single = angles.ndim == 1
    torques = np.atleast_2d(torques)
    angles = np.atleast_2d(angles)
    velocities = np.atleast_2d(velocities)
    k = model.joint_count
    phi1 = quad_features(angles)
    phi2 = quad_features(np.concatenate([angles, velocities], axis=1))
    inv_mass = (phi1 @ model.inverse_mass_map).reshape(-1, k, k)
    accel = (
        np.einsum("bjl,bl->bj", inv_mass, torques)
        + phi1 @ model.gravity_map
        + phi2 @ model.coriolis_map
    )
    return accel[0] if single else accel


def velocity_residuals(
    model: DynamicsModel, angles, velocities, torques, timestep: float
) -> ResidualCurve:
    """Observed velocity changes minus the model's one-step predictions.

    ``angles`` and ``velocities`` are the sensed grid trajectories,
    shape (steps + 1, joints); ``torques`` are the commanded torques at
    the step starts, shape (steps, joints).
    """
    angles = np.asarray(angles, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    torques = np.asarray(torques, dtype=float)
    if angles.ndim != 2 or angles.shape != velocities.shape:
        raise ValueError("trajectories must be (steps + 1, joints) arrays")
    if angles.shape[0] < 2:
        raise ValueError("trajectory must contain at least two samples")
    if torques.shape != (angles.shape[0] - 1, angles.shape[1]):
        raise ValueError("length mismatch between torques and trajectory")
    predicted = predict_acceleration(
        model, torques, angles[:-1], velocities[:-1]
    )
    values = velocities[1:] - velocities[:-1] - predicted * timestep
    return ResidualCurve(values=values, timestep=timestep)


def spline_basis(world: ArmWorld, times) -> np.ndarray:
    """Cardinal natural cubic splines on the policy's knot layout.

    Basis function j is the natural spline that is 1 at interior knot j
    and 0 at the other knots (including the fixed start knot at zero),
    sampled at the given times.  Columns match the per-joint layout of
    the policy vector.
    """
    from scipy.interpolate import CubicSpline

    from .envs.arm import KNOTS_PER_JOINT

    knot_times = np.linspace(0.0, world.sim_duration, KNOTS_PER_JOINT + 1)
    targets = np.zeros((KNOTS_PER_JOINT + 1, KNOTS_PER_JOINT))
    targets[1:, :] = np.eye(KNOTS_PER_JOINT)
    spline = CubicSpline(knot_times, targets, axis=0, bc_type="natural")
    return spline(np.asarray(times, dtype=float))


def project_residuals(
    curve: ResidualCurve, basis: np.ndarray, release_time: float | None = None
) -> np.ndarray:
    """Least-squares coefficients of each joint's curve on the basis.

    Returns the coefficients concatenated joint-major, with the release
    time appended when given.
    """
    basis = np.asarray(basis, dtype=float)
    steps, joints = curve.values.shape
    if basis.shape[0] != steps:
        raise ValueError("basis must be sampled at the curve's timestamps")
    if steps < basis.shape[1]:
        raise ValueError("fewer timesteps than basis functions")
    coef = np.linalg.lstsq(basis, curve.values, rcond=None)[0]
    flat = coef.T.reshape(-1)
    if release_time is None:
        return flat
    return np.concatenate([flat, [float(release_time)]])


def encode_dart_batch(
    world: ArmWorld, model: DynamicsModel, batch: TrialBatch
) -> TrialBatch:
    """The batch with residual-projection sensors for every trial.

    Encoded layout: spline coefficients of the velocity residual curve,
    joint-major, then the realized release time.
    """
    grid_times = np.arange(world.grid_steps + 1) * world.timestep
    basis = None
    encoded = []
    for policy, raw in zip(batch.policies, batch.raw()):
        angles, velocities, release = split_dart_sensors(world, raw)
        torques = commanded_torques(
            world, policy, angles[:-1], velocities[:-1], grid_times[:-1]
        )
        curve = velocity_residuals(model, angles, velocities, torques, world.timestep)
        if basis is None:
            basis = spline_basis(world, curve.times)
        encoded.append(project_residuals(curve, basis, release))
    return batch.with_encoded(np.array(encoded))
