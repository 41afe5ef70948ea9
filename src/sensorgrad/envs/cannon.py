"""Projectile-range task with noisy actuation and actuation sensors.

The policy sets a commanded muzzle speed and elevation angle.  The
executed control is the command plus Gaussian actuation noise; the
score penalizes the squared miss between the landing range
``R = v^2 sin(2 theta) / g`` and a fixed target range.  Sensors report
the realized actuation error (executed minus commanded control) plus
independent read noise, so most of the score noise a regression sees
is explainable by the sensor channel.

Angles are radians throughout this module.  Config files may specify
the noise covariances with angle entries in degrees; the conversion
happens at config load, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..estimators import PolicyDomainError, TrialBatch
from ..seeding import psd_sqrt

__all__ = [
    "CannonWorld",
    "cannon_range",
    "cannon_true_value",
    "CannonEnv",
]

_MIN_SPEED = 1e-6

_DEG = np.pi / 180.0


def _default_control_noise() -> np.ndarray:
    # speed std 1 m/s, angle std 2 degrees
    return np.diag([1.0, (2.0 * _DEG) ** 2]).copy()


def _default_sensor_noise() -> np.ndarray:
    # read noise well below the actuation noise it reports
    return np.diag([0.01, 0.04 * _DEG**2]).copy()


@dataclass(frozen=True)
class CannonWorld:
    """Task constants.  Covariances are over (speed, angle) in (m/s, rad)."""

    control_noise_cov: np.ndarray = field(default_factory=_default_control_noise)
    sensor_noise_cov: np.ndarray = field(default_factory=_default_sensor_noise)
    gravity: float = 9.8
    target_range: float = 400.0 / 9.8

    def __post_init__(self):
        control = np.asarray(self.control_noise_cov, dtype=float)
        sensor = np.asarray(self.sensor_noise_cov, dtype=float)
        if control.shape != (2, 2) or sensor.shape != (2, 2):
            raise ValueError("cannon noise covariances must be 2x2")
        if self.gravity <= 0.0:
            raise ValueError("gravity must be positive")
        object.__setattr__(self, "control_noise_cov", control)
        object.__setattr__(self, "sensor_noise_cov", sensor)
        object.__setattr__(self, "gravity", float(self.gravity))
        object.__setattr__(self, "target_range", float(self.target_range))

    def scaled(self, noise_scale: float) -> "CannonWorld":
        """Same task with the actuation noise covariance scaled.

        Sensor read noise is left unchanged: the difficulty sweep
        varies how noisy the actuators are, not how well the sensors
        report the perturbation.
        """
        if noise_scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        return CannonWorld(
            control_noise_cov=self.control_noise_cov * noise_scale,
            sensor_noise_cov=self.sensor_noise_cov,
            gravity=self.gravity,
            target_range=self.target_range,
        )


def cannon_range(control, gravity: float = 9.8):
    """Landing range of the executed control ``(speed, angle)``.

    Speeds at or below zero are clamped to a tiny positive value, so
    noisy controls never produce a negative squared speed path; angles
    are used as-is (``sin`` handles any value).  Accepts a single
    control pair or an array of them in the last axis.
    """
    control = np.asarray(control, dtype=float)
    speed = np.maximum(control[..., 0], _MIN_SPEED)
    angle = control[..., 1]
    return speed**2 * np.sin(2.0 * angle) / gravity


def _check_policies(policies) -> np.ndarray:
    """Validate policy rows; the first bad row raises, naming its bad control."""
    policies = np.atleast_2d(np.asarray(policies, dtype=float))
    if policies.ndim != 2 or policies.shape[1] != 2:
        raise ValueError("cannon policy must be (speed, angle)")
    slow = ~(policies[:, 0] > 0.0)
    steep = ~((0.0 < policies[:, 1]) & (policies[:, 1] < np.pi / 2.0))
    bad = slow | steep
    if bad.any():
        if slow[np.argmax(bad)]:
            raise PolicyDomainError("commanded speed must be positive")
        raise PolicyDomainError("commanded angle must lie in (0, pi/2)")
    return policies


def cannon_true_value(
    world: CannonWorld, policy, samples: int = 20000, seed: int = 0
) -> float:
    """Monte Carlo mean score of a policy under the actuation noise.

    The actuation draws depend only on ``seed``, not on the policy, so
    values at nearby policies share randomness and finite differences
    of this function estimate the value gradient with low variance.
    """
    (policy,) = _check_policies(policy)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((samples, 2)) @ psd_sqrt(world.control_noise_cov).T
    ranges = cannon_range(policy + noise, world.gravity)
    return float(np.mean(-((ranges - world.target_range) ** 2)))


class CannonEnv:
    """Trial sampler for the projectile task.

    ``noise_scale`` multiplies the actuation noise covariance, holding
    the task geometry and the sensor read noise fixed; it is how the
    noise sweep varies difficulty.
    """

    def __init__(self, world: CannonWorld | None = None, *, noise_scale: float = 1.0):
        base = world if world is not None else CannonWorld()
        self.world = base.scaled(noise_scale) if noise_scale != 1.0 else base
        self.policy_dim = 2
        self._control_root = psd_sqrt(self.world.control_noise_cov)
        self._sensor_root = psd_sqrt(self.world.sensor_noise_cov)

    def check_policies(self, policies) -> np.ndarray:
        """Policy rows as a float array; raises outside the task's domain."""
        return _check_policies(policies)

    def sample_trials(self, policies, streams) -> TrialBatch:
        """One shot per policy row, row ``i`` drawing from ``streams[i]``.

        Draw order per trial: actuation noise, then sensor read noise.
        The raw and the encoded sensors are both the sensed actuation
        error.
        """
        policies = _check_policies(policies)
        count = policies.shape[0]
        if len(streams) != count:
            raise ValueError("need one stream per policy row")
        actuation = np.empty((count, 2))
        read = np.empty((count, 2))
        for i, rng in enumerate(streams):
            actuation[i] = self._control_root @ rng.standard_normal(2)
            read[i] = self._sensor_root @ rng.standard_normal(2)
        ranges = cannon_range(policies + actuation, self.world.gravity)
        sensed = actuation + read
        scores = -((ranges - self.world.target_range) ** 2)
        return TrialBatch(policies, scores, sensed, sensed)
