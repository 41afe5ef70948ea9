"""The benchmark's workloads: generated configs and their accounting.

Each workload is a shipped config from ``configs/`` with its size cut so
one CLI invocation takes a few seconds, copied here so that later edits to
``configs/`` do not move the benchmark.  Two more changes make the work
and the verdict the same on every seed; the comments above ``_DART`` and
``_VARIANCE`` give them.  The workload seed reaches the
program only through the CLI's ``--seed``; the config text itself is the
same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 20250819
# A second seed, not used while writing or tuning the benchmark: a claim
# made on DEFAULT_SEED is re-checked here.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    subcommand: str
    threads: int | None
    keys: dict

    def config_text(self) -> str:
        """Config file text in the CLI's format, keys sorted, no seed."""
        return "".join(
            f"{key} = {json.dumps(value)}\n" for key, value in sorted(self.keys.items())
        )

    def cli_args(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        args = [self.subcommand, "--config", config_path, "--out", out_dir]
        args += ["--seed", str(seed)]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        return args

    def operations(self) -> int:
        """Operations one invocation attempts: hill-climbing runs, or one check."""
        if self.subcommand == "variance-check":
            return 1
        scales = len(self.keys.get("run.noise_scales", [1.0]))
        return self.keys["search.runs"] * len(self.keys["run.estimators"]) * scales

    def trials(self, diagnostics: list[dict]) -> int:
        """Trials one invocation simulates, from the config and its diagnostics.

        A step simulates its learning batch, the projection search's own
        batch for the encoding estimator, and the evaluation batch; a
        retried step draws the learning and search batches twice.
        Pretraining rollouts are not trials.
        """
        if self.subcommand == "variance-check":
            return self.keys["variance.replications"] * self.keys["variance.trials_per_batch"]
        total = 0
        for row in diagnostics:
            if row["error"]:
                continue
            drawn = self.keys["search.trials_per_step"]
            if row["estimator"] == "with_encoding":
                drawn += self.keys.get("search.encode_trials_per_step", 0)
            if row["retried"] == "true":
                drawn *= 2
            total += drawn + self.keys["search.eval_trials_per_point"]
        return total


# dart_search.cfg caps each BFGS restart of the projection search at 60
# iterations, and how many it takes before stopping early depends on the
# seed: 8,100 to 13,500 LOO evaluations per invocation.  Here the cap is 20,
# which nearly every restart reaches, and there are 12 restarts instead of 3,
# so each invocation makes about 11,800 evaluations on every seed.
_DART = {
    "run.environment": "dart",
    "run.estimators": ["ignore_sensors", "with_encoding"],
    "search.initial_policy": [
        1.6196000000000002, 1.52648, 1.08784, 1.63504, 1.084, 0.48032,
        0.45472, 0.12, -0.11943999999999999,
    ],
    "search.trials_per_step": 12,
    "search.exploration_cov": [0.002] * 9,
    "search.steps": 2,
    "search.runs": 1,
    "search.learning_rate": 0.03,
    "search.step_rule": "normalized",
    "search.eval_trials_per_point": 40,
    "search.encoding_dim": 1,
    "search.encode_trials_per_step": 48,
    "search.encode_max_iterations": 20,
    "search.encode_restarts": 12,
    "dart.pretrain_states": 2000,
    "dart.pretrain_policy_cov": 0.01,
}

_CANNON = {
    "run.environment": "cannon",
    "run.estimators": ["ignore_sensors", "with_sensors"],
    "run.noise_scales": [1.0, 2.0, 4.0],
    "cannon.control_noise_diag": [1.0, 4.0],
    "search.initial_policy": [13.0, 0.7853981633974483],
    "search.trials_per_step": 10,
    "search.exploration_cov": [1.0, 0.01],
    "search.steps": 25,
    "search.runs": 8,
    "search.learning_rate": 0.15,
    "search.step_rule": "normalized",
    "search.eval_trials_per_point": 20,
}

# The world of variance_check.cfg made noise-free: with no sensor slope and
# no output noise both estimators recover the gradient exactly, so the
# check's verdict does not depend on the seed.  In the noisy world its
# 3-standard-error mean test fails about 1 seed in 100 by chance.  Sensors
# and output noise are still drawn, so the work done is the same.
_VARIANCE = {
    "synthetic.true_gradient": [1.5, -0.7],
    "synthetic.sensor_slope": [0.0, 0.0],
    "synthetic.output_variance": 0.0,
    "synthetic.sensor_cov": [[0.2, -0.05], [-0.05, 0.4]],
    "synthetic.exploration_cov": [[0.5, 0.1], [0.1, 0.3]],
    "variance.trials_per_batch": 12,
    "variance.replications": 4000,
}

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("dart_encode", "run", 1, _DART),
        Workload("cannon_sweep", "run", 2, _CANNON),
        Workload("variance_check", "variance-check", None, _VARIANCE),
    )
}
