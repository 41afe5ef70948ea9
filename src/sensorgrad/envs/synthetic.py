"""Linear-Gaussian score model with sensor readings.

The baseline generative model: the score is affine in the policy and in
the observed sensors, plus Gaussian noise.  Sensor readings consist of
a policy-independent disturbance, optionally shifted by a linear
function of the policy (the policy-sensor coupling).

The sampler ``SyntheticEnv.sample_trials`` has two modes because "the
score depends on the sensor" can mean two different worlds once sensors
are coupled to the policy; ``SyntheticEnv`` documents both.  They
collapse to the same model when the coupling is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators import NoiseSpec, TrialBatch
from ..seeding import normal_rows, psd_sqrt, row_products

__all__ = [
    "SyntheticWorld",
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


class SyntheticEnv:
    """Trial sampler over a :class:`SyntheticWorld`.

    The sensor disturbance is zero mean with covariance ``sensor_cov``.
    With ``correlated=False`` the score is driven by the *observed*
    sensor value: ``s ~ N(coupling' policy, sensor_cov)`` and ``f =
    policy @ true_gradient + s @ sensor_slope + offset + w``.  The joint
    regression then recovers the score equation's own policy coefficient
    exactly, coupled or not.

    With ``correlated=True`` the sensor reading leaks the policy while
    the score responds only to the policy-independent disturbance:
    ``f = policy @ true_gradient + disturbance @ sensor_slope + offset +
    w`` and ``s = disturbance - coupling' policy``.  Substituting the
    disturbance out shows the joint regression's policy coefficient is
    ``true_gradient + coupling @ sensor_slope``: the joint estimator is
    biased by exactly the coupling term, which
    :func:`~sensorgrad.estimators.predicted_bias_g2` predicts, while the
    policy-only regression remains unbiased for the value gradient (the
    disturbance is independent of the policy).  The sensors are the
    reading ``s``.
    """

    def __init__(self, world: SyntheticWorld, *, correlated: bool = False):
        self.world = world
        self.policy_dim = world.policy_dim
        self.correlated = correlated
        self._root = psd_sqrt(world.noise.sensor_cov)
        self._score_std = float(np.sqrt(world.noise.output_variance))

    def check_policies(self, policies) -> np.ndarray:
        """Policy rows as a float array; every policy is in this world's domain."""
        return np.atleast_2d(np.asarray(policies, dtype=float))

    def sample_trials(self, policies, streams) -> TrialBatch:
        """One trial per policy row, from per-row streams or one block stream.

        ``streams`` is either one generator per row, row ``i`` drawing
        from ``streams[i]``, or a single ``Generator`` from which the
        whole ``(rows, sensor_dim + 1)`` standard-normal block is drawn.
        Each row's normals are the sensor disturbance, then the score
        noise.  Every row is computed by the same elementwise array
        expression, so its values depend on its policy and normals
        alone, not on the batch it is drawn in.
        """
        policies = self.check_policies(policies)
        world, noise = self.world, self.world.noise
        sensor_dim = world.sensor_dim
        normals = normal_rows(streams, policies.shape[0], sensor_dim + 1)
        coupling = noise.policy_sensor_coupling
        disturbance = row_products(normals[:, :sensor_dim], self._root.T)
        shift = row_products(policies, coupling) if coupling is not None else 0.0
        score_noise = normals[:, sensor_dim] * self._score_std
        if self.correlated:
            sensed = disturbance - shift
            sensor_term = row_products(disturbance, world.sensor_slope)
        else:
            sensed = shift + disturbance
            sensor_term = row_products(sensed, world.sensor_slope)
        scores = (
            row_products(policies, world.true_gradient)
            + sensor_term
            + world.offset
            + score_noise
        )
        return TrialBatch(policies, scores, sensed)
