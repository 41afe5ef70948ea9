"""Single-state arm dynamics for the tests, built on ``chain_terms``.

The simulator integrates whole batches through its own kernel; these
oracles solve one state's equations of motion and compute its energy
from the chain geometry, so tests can check the kernel against them.
"""

from typing import NamedTuple

import numpy as np

from sensorgrad.envs.arm import ArmWorld, chain_terms


class ArmState(NamedTuple):
    joint_angles: np.ndarray
    joint_velocities: np.ndarray
    time: float


def arm_dynamics(world: ArmWorld, state: ArmState, torques) -> np.ndarray:
    """Joint accelerations solving ``m(x) a = tau + g(x) + c(x, v)``."""
    mass, grav, coriolis = chain_terms(
        world, state.joint_angles, state.joint_velocities
    )
    rhs = np.asarray(torques, dtype=float) + grav[0] + coriolis[0]
    return np.linalg.solve(mass[0], rhs)


def arm_energy(world: ArmWorld, state: ArmState) -> float:
    """Kinetic plus gravitational energy, potential zero at shoulder height."""
    angles = np.asarray(state.joint_angles, dtype=float)
    velocities = np.asarray(state.joint_velocities, dtype=float)
    mass, _, _ = chain_terms(world, angles, velocities)
    kinetic = 0.5 * float(velocities @ mass[0] @ velocities)
    # Each rod's centre sits above the shoulder by the full links before
    # it and half of its own.
    rise = np.array(world.lengths) * np.sin(np.cumsum(angles))
    heights = np.cumsum(rise) - 0.5 * rise
    return kinetic + world.gravity * float(np.array(world.masses) @ heights)
