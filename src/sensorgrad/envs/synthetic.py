"""Linear-Gaussian score model with sensor readings.

The baseline generative model: the score is affine in the policy and in
a policy-independent sensor disturbance, plus Gaussian noise.  The
sensors read the disturbance, shifted by a linear function of the
policy (the policy-sensor coupling).  The sampler and the laws of
:mod:`sensorgrad.estimators` read one ``SyntheticWorld``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators import TrialBatch
from ..seeding import normal_rows, psd_sqrt, row_products

__all__ = [
    "SyntheticWorld",
    "SyntheticEnv",
]


@dataclass(frozen=True)
class SyntheticWorld:
    """Affine score world: ``f = policy @ true_gradient + disturbance @ sensor_slope + w``.

    ``w`` has variance ``output_variance``, and the zero-mean sensor
    disturbance has covariance ``sensor_cov``.  ``policy_sensor_coupling``
    is d x d_s, d and d_s being the lengths of ``true_gradient`` and
    ``sensor_slope``: how much of the sensors the policy predicts.  The
    world checks nothing: the shapes, a positive definite ``sensor_cov``
    and a nonnegative ``output_variance`` are checked where their config
    keys are read.
    """

    true_gradient: np.ndarray
    sensor_slope: np.ndarray
    output_variance: float
    sensor_cov: np.ndarray
    policy_sensor_coupling: np.ndarray

    def __post_init__(self):
        for name in ("true_gradient", "sensor_slope", "sensor_cov", "policy_sensor_coupling"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "output_variance", float(self.output_variance))

    @property
    def policy_dim(self) -> int:
        return self.true_gradient.shape[0]

    @property
    def sensor_dim(self) -> int:
        return self.sensor_slope.shape[0]

    @property
    def coupled(self) -> bool:
        """Whether the policy shifts the sensors: a nonzero coupling."""
        return bool(np.any(self.policy_sensor_coupling != 0.0))


class SyntheticEnv:
    """Trial sampler over a :class:`SyntheticWorld`.

    The score responds to the policy-independent disturbance, and the
    sensors read it shifted by the policy: ``f = policy @ true_gradient
    + disturbance @ sensor_slope + w`` and ``s = disturbance - coupling'
    policy``.  Substituting the disturbance out shows the joint
    regression's policy coefficient is ``true_gradient + coupling @
    sensor_slope``: the joint estimator is biased by exactly the
    coupling term, which :func:`~sensorgrad.estimators.predicted_bias_g2`
    predicts, while the policy-only regression remains unbiased for the
    value gradient (the disturbance is independent of the policy).
    """

    def __init__(self, world: SyntheticWorld):
        self.world = world
        self._score_std = float(np.sqrt(world.output_variance))
        self._sensor_root = psd_sqrt(world.sensor_cov)

    @np.errstate(over="ignore", invalid="ignore")
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
        policies = np.atleast_2d(np.asarray(policies, dtype=float))
        world = self.world
        sensor_dim = world.sensor_dim
        normals = normal_rows(streams, policies.shape[0], sensor_dim + 1)
        disturbance = row_products(normals[:, :sensor_dim], self._sensor_root.T)
        sensed = disturbance - row_products(policies, world.policy_sensor_coupling)
        scores = (
            row_products(policies, world.true_gradient)
            + row_products(disturbance, world.sensor_slope)
            + normals[:, sensor_dim] * self._score_std
        )
        return TrialBatch(policies, scores, sensed)
