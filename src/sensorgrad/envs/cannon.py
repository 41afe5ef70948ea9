"""Projectile-range task with noisy actuation and actuation sensors.

The policy sets a commanded muzzle speed and elevation angle.  The
executed control is the command plus Gaussian actuation noise; the
score penalizes the squared miss between the landing range
``R = v^2 sin(2 theta) / g`` and the fixed target range
``TARGET_RANGE``, under ``GRAVITY``.  Sensors report
the realized actuation error (executed minus commanded control) plus
independent read noise, so most of the score noise a regression sees
is explainable by the sensor channel.  Any command is scored the same
way: :func:`cannon_range` takes any speed and angle, so a command
outside the physical range (a nonpositive speed, an angle outside
``(0, pi/2)``) only scores poorly.

Angles are radians throughout this module.  Config files may specify
the noise covariances with angle entries in degrees; the conversion
happens at config load, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..estimators import TrialBatch
from ..seeding import normal_rows, psd_sqrt, row_products

__all__ = [
    "GRAVITY",
    "TARGET_RANGE",
    "CannonWorld",
    "cannon_range",
    "cannon_true_value",
    "CannonEnv",
]

_MIN_SPEED = 1e-6

GRAVITY = 9.8
# The range of a 20 m/s shot at 45 degrees.
TARGET_RANGE = 400.0 / GRAVITY

_DEG = np.pi / 180.0


def _default_control_noise() -> np.ndarray:
    # speed std 1 m/s, angle std 2 degrees
    return np.diag([1.0, (2.0 * _DEG) ** 2]).copy()


def _default_sensor_noise() -> np.ndarray:
    # read noise well below the actuation noise it reports
    return np.diag([0.01, 0.04 * _DEG**2]).copy()


@dataclass(frozen=True)
class CannonWorld:
    """Noise of the task.  Covariances are over (speed, angle) in (m/s, rad)."""

    control_noise_cov: np.ndarray = field(default_factory=_default_control_noise)
    sensor_noise_cov: np.ndarray = field(default_factory=_default_sensor_noise)

    def __post_init__(self):
        for name in ("control_noise_cov", "sensor_noise_cov"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def scaled(self, noise_scale: float) -> "CannonWorld":
        """Same task with the actuation noise covariance scaled.

        Sensor read noise is left unchanged: the difficulty sweep
        varies how noisy the actuators are, not how well the sensors
        report the perturbation.  The scale is nonnegative, as
        ``run.noise_scales`` is read.
        """
        return CannonWorld(
            control_noise_cov=self.control_noise_cov * noise_scale,
            sensor_noise_cov=self.sensor_noise_cov,
        )


def cannon_range(control):
    """Landing range of the executed control ``(speed, angle)``.

    Speeds at or below zero are clamped to a tiny positive value, so
    noisy controls never produce a negative squared speed path; angles
    are used as-is (``sin`` handles any value).  Accepts a single
    control pair or an array of them in the last axis.
    """
    control = np.asarray(control, dtype=float)
    speed = np.maximum(control[..., 0], _MIN_SPEED)
    angle = control[..., 1]
    return speed**2 * np.sin(2.0 * angle) / GRAVITY


def cannon_true_value(
    world: CannonWorld, policy, samples: int = 20000, seed: int = 0
) -> float:
    """Monte Carlo mean score of a policy under the actuation noise.

    The actuation draws depend only on ``seed``, not on the policy, so
    values at nearby policies share randomness and finite differences
    of this function estimate the value gradient with low variance.
    """
    policy = np.asarray(policy, dtype=float)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((samples, 2)) @ psd_sqrt(world.control_noise_cov).T
    ranges = cannon_range(policy + noise)
    return float(np.mean(-((ranges - TARGET_RANGE) ** 2)))


class CannonEnv:
    """Trial sampler for the projectile task; the noise sweep varies its
    difficulty by sampling ``world.scaled(s)``."""

    def __init__(self, world: CannonWorld):
        self.world = world
        self._control_root = psd_sqrt(world.control_noise_cov)
        self._sensor_root = psd_sqrt(world.sensor_noise_cov)

    @np.errstate(over="ignore", invalid="ignore")
    def sample_trials(self, policies, streams) -> TrialBatch:
        """One shot per policy row, row ``i`` drawing from ``streams[i]``.

        Draw order per trial: actuation noise, then sensor read noise.  The
        sensors are the sensed actuation error.  Every row is computed by
        the same elementwise array expression, so its values do not depend
        on the batch it is drawn in.
        """
        policies = np.atleast_2d(np.asarray(policies, dtype=float))
        normals = normal_rows(streams, policies.shape[0], 4)
        actuation = row_products(normals[:, :2], self._control_root.T)
        read = row_products(normals[:, 2:], self._sensor_root.T)
        ranges = cannon_range(policies + actuation)
        sensed = actuation + read
        scores = -((ranges - TARGET_RANGE) ** 2)
        return TrialBatch(policies, scores, sensed)
