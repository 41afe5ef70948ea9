"""Simulated tasks producing trial batches."""

from .arm import ArmWorld, DartEnv, dart_trial, dart_trials
from .cannon import CannonEnv, CannonWorld, cannon_range, cannon_true_value
from .synthetic import SyntheticEnv, SyntheticWorld

__all__ = [
    "ArmWorld",
    "DartEnv",
    "dart_trial",
    "dart_trials",
    "CannonEnv",
    "CannonWorld",
    "cannon_range",
    "cannon_true_value",
    "SyntheticEnv",
    "SyntheticWorld",
]
