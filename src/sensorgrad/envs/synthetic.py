"""Linear-Gaussian score model with sensor readings.

The baseline generative model: the score is affine in the policy and in
the observed sensors, plus Gaussian noise.  Sensor readings consist of
a policy-independent disturbance, optionally shifted by a linear
function of the policy (the policy-sensor coupling).

Two trial generators are provided because "the score depends on the
sensor" can mean two different worlds once sensors are coupled to the
policy:

- :func:`synthetic_trial` feeds the *observed* sensor value into the
  score.  The joint regression then recovers the score equation's own
  policy coefficient exactly, coupled or not.
- :func:`correlated_sensor_trial` drives the score with the
  policy-independent disturbance only, while the sensor *reading*
  leaks the policy (with the coupling sign flipped, see the
  docstring).  Here the policy-only regression stays unbiased for the
  true value gradient while the joint regression picks up the bias
  ``coupling @ sensor_slope`` - the failure mode coupled sensors
  create, and what :func:`~sensorgrad.estimators.predicted_bias_g2`
  predicts.

Both collapse to the same model when the coupling is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators import NoiseSpec, TrialRecord
from ..seeding import psd_sqrt

__all__ = [
    "SyntheticWorld",
    "synthetic_trial",
    "correlated_sensor_trial",
    "SyntheticEnv",
]


@dataclass(frozen=True)
class SyntheticWorld:
    """Affine score world: ``f = policy @ true_gradient + sensor-term + b + w``."""

    true_gradient: np.ndarray
    sensor_slope: np.ndarray
    offset: float
    noise: NoiseSpec

    def __post_init__(self):
        grad = np.asarray(self.true_gradient, dtype=float)
        slope = np.asarray(self.sensor_slope, dtype=float)
        if grad.ndim != 1 or slope.ndim != 1:
            raise ValueError("gradient and sensor slope must be vectors")
        if slope.shape[0] != self.noise.sensor_dim:
            raise ValueError("sensor slope must match the sensor dimension")
        coupling = self.noise.policy_sensor_coupling
        if coupling is not None and coupling.shape[0] != grad.shape[0]:
            raise ValueError("coupling rows must match the policy dimension")
        object.__setattr__(self, "true_gradient", grad)
        object.__setattr__(self, "sensor_slope", slope)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def policy_dim(self) -> int:
        return self.true_gradient.shape[0]

    @property
    def sensor_dim(self) -> int:
        return self.sensor_slope.shape[0]


def _build_trial(
    world: SyntheticWorld,
    policy: np.ndarray,
    rng: np.random.Generator,
    sensor_root: np.ndarray,
    score_std: float,
    correlated: bool,
) -> TrialRecord:
    noise = world.noise
    disturbance = sensor_root @ rng.standard_normal(world.sensor_dim)
    coupling = noise.policy_sensor_coupling
    shift = coupling.T @ policy if coupling is not None else 0.0
    score_noise = float(rng.standard_normal()) * score_std
    if correlated:
        sensed = noise.sensor_mean + noise.coupling_offset - shift + disturbance
        sensor_term = float(disturbance @ world.sensor_slope)
    else:
        sensed = noise.sensor_mean + noise.coupling_offset + shift + disturbance
        sensor_term = float(sensed @ world.sensor_slope)
    score = (
        float(policy @ world.true_gradient) + sensor_term + world.offset + score_noise
    )
    return TrialRecord(policy, sensed, sensed, score)


def synthetic_trial(
    world: SyntheticWorld, policy: np.ndarray, rng: np.random.Generator
) -> TrialRecord:
    """One trial with the score driven by the observed sensor value.

    ``s ~ N(coupling' policy + coupling_offset + sensor_mean, sensor_cov)``
    and ``f = policy @ true_gradient + s @ sensor_slope + offset + w``.
    """
    policy = np.asarray(policy, dtype=float)
    return _build_trial(
        world,
        policy,
        rng,
        psd_sqrt(world.noise.sensor_cov),
        float(np.sqrt(world.noise.output_variance)),
        correlated=False,
    )


def correlated_sensor_trial(
    world: SyntheticWorld, policy: np.ndarray, rng: np.random.Generator
) -> TrialRecord:
    """One trial whose sensor reading leaks the policy.

    The score responds only to the policy-independent disturbance,
    ``f = policy @ true_gradient + disturbance @ sensor_slope + offset + w``,
    while the reading is ``s = sensor_mean + coupling_offset -
    coupling' policy + disturbance``.  Substituting the disturbance out
    shows the joint regression's policy coefficient is ``true_gradient
    + coupling @ sensor_slope``: the joint estimator is biased by
    exactly the coupling term, while the policy-only regression remains
    unbiased for the value gradient (the disturbance is independent of
    the policy).
    """
    policy = np.asarray(policy, dtype=float)
    return _build_trial(
        world,
        policy,
        rng,
        psd_sqrt(world.noise.sensor_cov),
        float(np.sqrt(world.noise.output_variance)),
        correlated=True,
    )


class SyntheticEnv:
    """Trial sampler over a :class:`SyntheticWorld`.

    ``correlated=True`` selects :func:`correlated_sensor_trial`.  The
    sensor covariance factor is cached, so batch sampling matches the
    per-trial functions bitwise while skipping repeated factorizations.
    """

    def __init__(self, world: SyntheticWorld, *, correlated: bool = False):
        self.world = world
        self.policy_dim = world.policy_dim
        self.correlated = correlated
        self._root = psd_sqrt(world.noise.sensor_cov)
        self._score_std = float(np.sqrt(world.noise.output_variance))

    def sample_trial(self, policy, rng: np.random.Generator) -> TrialRecord:
        policy = np.asarray(policy, dtype=float)
        return _build_trial(
            self.world, policy, rng, self._root, self._score_std, self.correlated
        )

    def check_policies(self, policies) -> np.ndarray:
        """Policy rows as a float array; every policy is in this world's domain."""
        return np.atleast_2d(np.asarray(policies, dtype=float))

    def sample_trials(self, policies, streams) -> list[TrialRecord]:
        """One trial per policy row, row ``i`` drawing from ``streams[i]``."""
        policies = self.check_policies(policies)
        if len(streams) != policies.shape[0]:
            raise ValueError("need one stream per policy row")
        return [
            self.sample_trial(policies[i], streams[i])
            for i in range(policies.shape[0])
        ]
