"""Linear-Gaussian score model with sensor readings.

The baseline generative model: the score is affine in the policy and in
the observed sensors, plus Gaussian noise.  Sensor readings consist of
a policy-independent disturbance, optionally shifted by a linear
function of the policy (the policy-sensor coupling).  The sampler and
the laws of :mod:`sensorgrad.estimators` read one ``SyntheticWorld``.

The sampler ``SyntheticEnv.sample_trials`` has two modes because "the
score depends on the sensor" can mean two different worlds once sensors
are coupled to the policy; ``SyntheticEnv`` documents both.  They
collapse to the same model when the coupling is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SettingError
from ..estimators import TrialBatch
from ..seeding import normal_rows, psd_sqrt, row_products

__all__ = [
    "SyntheticWorld",
    "SyntheticEnv",
]


@dataclass(frozen=True)
class SyntheticWorld:
    """Affine score world: ``f = policy @ true_gradient + sensor-term + offset + w``.

    ``w`` has variance ``output_variance``, and the zero-mean sensor
    disturbance has covariance ``sensor_cov``.  ``policy_sensor_coupling``
    is d x d_s, d and d_s being the lengths of ``true_gradient`` and
    ``sensor_slope``: how much of the sensors the policy predicts.  The
    world checks its fields' shapes and its sensor covariance, raising
    :class:`SettingError` naming a refused field; ``output_variance`` is
    bounded (nonnegative) where its config key is read.
    """

    true_gradient: np.ndarray
    sensor_slope: np.ndarray
    output_variance: float
    sensor_cov: np.ndarray
    policy_sensor_coupling: np.ndarray | None = None
    offset: float = 0.0
    # psd_sqrt(sensor_cov), derived once for every draw of the sampler.
    sensor_root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("true_gradient", "sensor_slope"):
            vector = np.asarray(getattr(self, name), dtype=float)
            if vector.ndim != 1:
                raise SettingError(name, "must be a vector")
            object.__setattr__(self, name, vector)
        d, d_s = self.policy_dim, self.sensor_dim
        cov = np.asarray(self.sensor_cov, dtype=float)
        if cov.shape != (d_s, d_s):
            raise SettingError("sensor_cov", f"must be {d_s} x {d_s}")
        try:
            root = psd_sqrt(cov)
        except ValueError as exc:
            raise SettingError("sensor_cov", f"is not a covariance: {exc}") from None
        coupling = self.policy_sensor_coupling
        if coupling is not None:
            coupling = np.asarray(coupling, dtype=float)
            if coupling.shape != (d, d_s):
                raise SettingError("policy_sensor_coupling", f"must be {d} x {d_s}")
        object.__setattr__(self, "output_variance", float(self.output_variance))
        object.__setattr__(self, "sensor_cov", cov)
        object.__setattr__(self, "policy_sensor_coupling", coupling)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "sensor_root", root)

    @property
    def policy_dim(self) -> int:
        return self.true_gradient.shape[0]

    @property
    def sensor_dim(self) -> int:
        return self.sensor_slope.shape[0]

    @property
    def coupled(self) -> bool:
        """Whether the policy shifts the sensors: a nonzero coupling."""
        coupling = self.policy_sensor_coupling
        return coupling is not None and bool(np.any(coupling != 0.0))


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
        self._score_std = float(np.sqrt(world.output_variance))

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
        world = self.world
        sensor_dim = world.sensor_dim
        normals = normal_rows(streams, policies.shape[0], sensor_dim + 1)
        coupling = world.policy_sensor_coupling
        disturbance = row_products(normals[:, :sensor_dim], world.sensor_root.T)
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
