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
sensed trajectories, and the realized release time.  :class:`DartEnv`,
the dart task's trial sampler, lives here because it encodes its
batches with this pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .envs.arm import (
    ArmWorld,
    _knot_basis,
    chain_terms,
    commanded_torques,
    dart_trials,
    split_dart_sensors,
)
from .estimators import TrialBatch
from .linreg import quad_features, rank_deficient
from .search import sample_exploration_policies
from .seeding import children

__all__ = [
    "DynamicsModel",
    "sample_pretraining_states",
    "fit_dynamics_model",
    "predict_acceleration",
    "velocity_residuals",
    "spline_basis",
    "project_residuals",
    "encode_dart_batch",
    "DartEnv",
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


def sample_pretraining_states(
    world: ArmWorld,
    count: int,
    rng: np.random.Generator,
    *,
    policy_mean,
    policy_cov,
) -> tuple[np.ndarray, np.ndarray]:
    """States likely to be visited, from rollouts of random policies.

    Policies are drawn from Normal(policy_mean, policy_cov), a
    ``world.policy_dim`` mean as ``search.initial_policy`` is read.
    Rollouts run with the world's own torque noise, and the returned
    states are a uniform subsample (without replacement) of all visited
    grid states, as (angles, velocities) arrays of shape (count, dof).
    """
    states_per_rollout = world.grid_steps + 1
    rollouts = max(2, -(-count // max(states_per_rollout // 5, 1)))
    policy_rng, trial_rng, pick_rng = children(rng, 3)
    policies = sample_exploration_policies(
        policy_mean, policy_cov, rollouts, policy_rng
    )
    trials = dart_trials(world, policies, children(trial_rng, rollouts))
    angles, velocities, _ = split_dart_sensors(world, trials.sensors)
    pool_q = angles.reshape(-1, world.dof)
    pool_v = velocities.reshape(-1, world.dof)
    picks = pick_rng.choice(pool_q.shape[0], size=count, replace=False)
    return pool_q[picks], pool_v[picks]


@np.errstate(over="ignore", invalid="ignore")
def fit_dynamics_model(world: ArmWorld, states) -> DynamicsModel:
    """Regress exact inverse-dynamics targets on state features.

    ``states`` is an (angles, velocities) pair of (count, dof) arrays,
    as :func:`sample_pretraining_states` returns; the caller guarantees
    ``count >= quad_feature_count(2 * dof) + 2``, the bound
    ``dart.pretrain_states`` is read with.  The angle-feature design must
    pass the package's rank rule, :func:`linreg.rank_deficient`; the
    angle/velocity design may be rank deficient (all-zero velocities,
    say), in which case the Coriolis map is the minimum-norm solution,
    which still reproduces the targets on the sampled subspace.
    """
    angles, velocities = (np.asarray(s, dtype=float) for s in states)
    count, dof = angles.shape
    mass, grav, coriolis = chain_terms(world, angles, velocities)
    inv_mass = np.linalg.inv(mass)
    target_mass = inv_mass.reshape(count, dof * dof)
    target_grav = np.einsum("bjl,bl->bj", inv_mass, grav)
    target_cor = np.einsum("bjl,bl->bj", inv_mass, coriolis)

    phi1 = quad_features(angles)
    phi2 = quad_features(np.concatenate([angles, velocities], axis=1))
    map_mass, _, _, svals = np.linalg.lstsq(phi1, target_mass, rcond=None)
    if rank_deficient(svals):
        raise ValueError("insufficient state diversity")
    map_grav = np.linalg.lstsq(phi1, target_grav, rcond=None)[0]
    map_cor = np.linalg.lstsq(phi2, target_cor, rcond=None)[0]
    return DynamicsModel(map_mass, map_grav, map_cor)


def predict_acceleration(model: DynamicsModel, torques, angles, velocities):
    """Model acceleration under commanded torques at observed states.

    Arguments have shape (..., joints); leading axes broadcast.
    """
    angles = np.asarray(angles, dtype=float)
    k = model.gravity_map.shape[1]
    phi1 = quad_features(angles)
    phi2 = quad_features(np.concatenate([angles, velocities], axis=-1))
    inv_mass = (phi1 @ model.inverse_mass_map).reshape(angles.shape[:-1] + (k, k))
    return (
        np.einsum("...jl,...l->...j", inv_mass, torques)
        + phi1 @ model.gravity_map
        + phi2 @ model.coriolis_map
    )


def velocity_residuals(
    model: DynamicsModel, angles, velocities, torques, timestep: float
) -> np.ndarray:
    """Observed velocity changes minus the model's one-step predictions.

    ``angles`` and ``velocities`` are the sensed grid trajectories,
    arrays of shape (..., steps + 1, joints) with steps >= 1; ``torques``
    are the commanded torques at the step starts, shape (..., steps,
    joints).  Every caller passes the arm's own sensor layout, so the
    shapes are not checked.  Returns the residuals, shape (..., steps,
    joints); residual ``k`` belongs to time ``(k + 1) * timestep``.  A
    residual that is not finite flags its trial when the encoded batch
    is built.
    """
    predicted = predict_acceleration(
        model, torques, angles[..., :-1, :], velocities[..., :-1, :]
    )
    return velocities[..., 1:, :] - velocities[..., :-1, :] - predicted * timestep


def spline_basis(world: ArmWorld, times) -> np.ndarray:
    """Cardinal natural cubic splines on the policy's knot layout.

    Basis function j is the natural spline that is 1 at interior knot j
    and 0 at the other knots (including the fixed start knot at zero),
    sampled at the given times.  Columns match the per-joint layout of
    the policy vector.
    """
    return _knot_basis(world, times)[0][:, 1:]


def project_residuals(residuals, basis: np.ndarray, release_time) -> np.ndarray:
    """Least-squares coefficients of each joint's curve on the basis.

    ``residuals`` has shape (..., steps, joints), and ``basis`` (steps,
    functions) is sampled at the curves' timestamps, with at least as
    many steps as functions, as :func:`encode_dart_batch` builds both.
    Returns each trial's coefficients concatenated joint-major, then its
    release time (``release_time`` has the leading shape of ``residuals``).
    """
    residuals = np.asarray(residuals, dtype=float)
    basis = np.asarray(basis, dtype=float)
    steps, joints = residuals.shape[-2:]
    coef = np.linalg.pinv(basis) @ residuals.reshape(-1, steps, joints)
    flat = np.swapaxes(coef, 1, 2).reshape(residuals.shape[:-2] + (-1,))
    release = np.asarray(release_time, dtype=float)[..., None]
    return np.concatenate([flat, release], axis=-1)


def encode_dart_batch(
    world: ArmWorld, model: DynamicsModel, batch: TrialBatch
) -> TrialBatch:
    """The batch with its trajectory sensors replaced by residual features.

    Encoded layout: spline coefficients of the velocity residual curve,
    joint-major, then the realized release time.
    """
    angles, velocities, release = split_dart_sensors(world, batch.sensors)
    times = np.arange(world.grid_steps + 1) * world.timestep
    torques = commanded_torques(
        world, batch.policies, angles[:, :-1], velocities[:, :-1], times[:-1]
    )
    residuals = velocity_residuals(model, angles, velocities, torques, world.timestep)
    basis = spline_basis(world, times[1:])
    return replace(batch, sensors=project_residuals(residuals, basis, release))


class DartEnv:
    """Trial sampler for the dart task.

    ``encode_batch`` replaces a batch's trajectory sensors with
    residual-projection features under the fitted dynamics ``model``.
    """

    def __init__(self, world: ArmWorld, model: DynamicsModel):
        self.world = world
        self.model = model

    def sample_trials(self, policies, streams) -> TrialBatch:
        """One throw per policy row, row ``i`` drawing from ``streams[i]``."""
        return dart_trials(self.world, policies, streams)

    def encode_batch(self, batch: TrialBatch) -> TrialBatch:
        return encode_dart_batch(self.world, self.model, batch)
