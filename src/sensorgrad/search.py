"""Hill-climbing policy search with selectable gradient estimators.

Each step samples exploration policies around the nominal policy, runs
one trial per sample, estimates the gradient from the batch, and moves
the nominal policy along it.  The estimator choices are: regress scores
on policies alone, on policies and the trials' sensor readings jointly,
or on policies and an optimized low-dimensional sensor projection.

Randomness is hierarchical: every (run, step) owns two private streams
derived from the experiment seed, one for learning trials and one for
evaluation trials, and each trial gets a child of its step stream.  The
estimator choice never enters the derivation, so runs with different
estimators see identical noise at the same (run, step, trial) address
until their nominal policies diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoding import (
    EncodingError,
    EncodingSearchConfig,
    estimate_gradient_encoded,
    optimize_projection,
)
from .estimators import (
    EstimationError,
    GradientEstimate,
    PolicyDomainError,
    TrialBatch,
    estimate_g1,
    estimate_g2,
)
from .linreg import RegressionError
from .seeding import EVAL, LEARN, children, psd_sqrt, substream

__all__ = [
    "ESTIMATORS",
    "SearchConfig",
    "StepRecord",
    "LearningCurve",
    "sample_exploration_policies",
    "hill_climb_step",
    "evaluate_policy",
    "run_learning_curve",
]

ESTIMATORS = ("ignore_sensors", "with_sensors", "with_encoding")

_STEP_RULES = ("normalized", "fixed_rate")

_RECOVERABLE = (EstimationError, EncodingError, RegressionError, PolicyDomainError)


@dataclass(frozen=True)
class SearchConfig:
    """Everything one hill-climbing experiment needs besides the env.

    ``encode_trials_per_step`` > 0 gives the projection search its own
    fresh trial batch of that size each step, drawn around the same
    nominal policy; the gradient still comes from the learning batch.
    At 0 the search reuses the learning batch, which then has to
    satisfy the leave-one-out sample-size precondition itself.
    """

    initial_policy: np.ndarray
    trials_per_step: int
    exploration_cov: np.ndarray
    steps: int
    runs: int
    seed: int
    estimator: str = "ignore_sensors"
    step_rule: str = "normalized"
    learning_rate: float = 0.1
    eval_trials_per_point: int = 20
    encoding_dim: int = 1
    encode_trials_per_step: int = 0
    encode_max_iterations: int = 60
    encode_restarts: int = 3

    def __post_init__(self):
        policy = np.asarray(self.initial_policy, dtype=float)
        cov = np.asarray(self.exploration_cov, dtype=float)
        if policy.ndim != 1:
            raise ValueError("initial policy must be a vector")
        if cov.shape != (policy.shape[0], policy.shape[0]):
            raise ValueError("exploration covariance must be d x d")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator: {self.estimator}")
        if self.step_rule not in _STEP_RULES:
            raise ValueError(f"unknown step rule: {self.step_rule}")
        if not self.learning_rate > 0.0:
            raise ValueError("learning rate must be positive")
        if self.trials_per_step < 1:
            raise ValueError("trials_per_step must be positive")
        if self.steps < 0 or self.runs < 1:
            raise ValueError("steps must be nonnegative and runs positive")
        if self.eval_trials_per_point < 1:
            raise ValueError("eval_trials_per_point must be positive")
        if self.encoding_dim < 0:
            raise ValueError("encoding_dim must be nonnegative")
        if self.encode_trials_per_step < 0:
            raise ValueError("encode_trials_per_step must be nonnegative")
        object.__setattr__(self, "initial_policy", policy)
        object.__setattr__(self, "exploration_cov", cov)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one hill-climbing step (or its failure)."""

    run: int
    step: int
    estimator: str
    gradient_norm: float = float("nan")
    loo_cost: float = float("nan")
    mean_trial_score: float = float("nan")
    flagged_count: int = 0
    retried: bool = False
    eval_mean: float = float("nan")
    eval_std_error: float = float("nan")
    error: str = ""


@dataclass(frozen=True)
class LearningCurve:
    """Per-step evaluation aggregated over completed runs."""

    estimator: str
    mean_values: np.ndarray
    std_errors: np.ndarray
    run_values: np.ndarray
    run_indices: tuple
    failed_runs: tuple
    diagnostics: tuple

    @property
    def completed_runs(self) -> int:
        return self.run_values.shape[0]


def sample_exploration_policies(policy, exploration_cov, count, rng) -> np.ndarray:
    """Draw ``count`` policies i.i.d. from Normal(policy, exploration_cov)."""
    policy = np.asarray(policy, dtype=float)
    if count < 1:
        raise ValueError("count must be positive")
    root = psd_sqrt(exploration_cov)
    draws = rng.standard_normal((count, policy.shape[0]))
    return policy + draws @ root.T


def _estimate(
    batch: TrialBatch,
    config: SearchConfig,
    encode_seed: int,
    search_batch: TrialBatch | None = None,
):
    """Dispatch to the configured estimator.

    Returns (estimate, loo_cost or None).  ``search_batch``, when
    given, is the batch the projection search runs on; the gradient
    always comes from ``batch``.
    """
    if config.estimator == "ignore_sensors":
        return estimate_g1(batch), None
    if config.estimator == "with_sensors":
        return estimate_g2(batch), None
    encode_config = EncodingSearchConfig(
        target_dim=config.encoding_dim,
        max_iterations=config.encode_max_iterations,
        restarts=config.encode_restarts,
        seed=encode_seed,
    )
    if search_batch is None:
        search_batch = batch
    search_feats = search_batch.encoded()
    # Feature scales differ by orders of magnitude; standardized
    # coordinates keep the projection search well conditioned.
    center = search_feats.mean(axis=0)
    spread = search_feats.std(axis=0)
    spread = np.where(spread > 1e-12, spread, 1.0)
    projection = optimize_projection(
        search_batch, encode_config, sensors=(search_feats - center) / spread
    )
    estimate = estimate_gradient_encoded(
        batch, projection, sensors=(batch.encoded() - center) / spread
    )
    return estimate, projection.cost


def _gather_batch(env, policy, config: SearchConfig, count, explore_rng, trial_rng):
    """Sample ``count`` trials around ``policy`` and drop flagged ones."""
    policies = sample_exploration_policies(
        policy, config.exploration_cov, count, explore_rng
    )
    trials = env.sample_trials(policies, trial_rng)
    kept = tuple(t for t in trials if not t.flagged)
    if not kept:
        raise EstimationError("insufficient samples: every trial was flagged")
    batch = TrialBatch(policy, config.exploration_cov, kept)
    if config.estimator != "ignore_sensors" and hasattr(env, "encode_batch"):
        batch = env.encode_batch(batch)
    scores = np.array([t.score for t in trials])
    return batch, scores, len(trials) - len(kept)


def _attempt_step(env, policy, config: SearchConfig, rng):
    explore_rng, trial_rng, encode_rng = children(rng, 3)
    batch, scores, flagged = _gather_batch(
        env, policy, config, config.trials_per_step, explore_rng, trial_rng
    )
    search_batch = None
    if config.estimator == "with_encoding" and config.encode_trials_per_step > 0:
        enc_explore_rng, enc_trial_rng, seed_rng = children(encode_rng, 3)
        search_batch, _, _ = _gather_batch(
            env, policy, config, config.encode_trials_per_step,
            enc_explore_rng, enc_trial_rng,
        )
        encode_seed = int(seed_rng.integers(0, 2**32))
    else:
        encode_seed = int(encode_rng.integers(0, 2**32))
    estimate, loo = _estimate(batch, config, encode_seed, search_batch)
    return estimate, loo, scores, flagged


def _apply_rule(policy, estimate: GradientEstimate, config: SearchConfig, step_index: int):
    gradient = estimate.gradient
    if config.step_rule == "fixed_rate":
        return policy + config.learning_rate * gradient
    norm = float(np.linalg.norm(gradient))
    if norm == 0.0:
        return policy.copy()
    rate = config.learning_rate / np.sqrt(step_index + 1.0)
    return policy + rate * (gradient / norm)


def hill_climb_step(env, policy, config: SearchConfig, rng, *, step_index: int = 0):
    """One gradient step from ``policy``; returns (new policy, record).

    Flagged trials are dropped before estimation.  An estimator failure
    (rank deficiency, too few surviving trials) is retried once with
    fresh exploration samples from the same stream, then propagated.
    """
    policy = np.asarray(policy, dtype=float)
    retried = False
    try:
        estimate, loo, scores, flagged = _attempt_step(env, policy, config, rng)
    except _RECOVERABLE:
        retried = True
        estimate, loo, scores, flagged = _attempt_step(env, policy, config, rng)
    new_policy = _apply_rule(policy, estimate, config, step_index)
    record = StepRecord(
        run=-1,
        step=step_index,
        estimator=config.estimator,
        gradient_norm=float(np.linalg.norm(estimate.gradient)),
        loo_cost=float("nan") if loo is None else float(loo),
        mean_trial_score=float(np.mean(scores)),
        flagged_count=flagged,
        retried=retried,
    )
    return new_policy, record


def evaluate_policy(env, policy, count: int, rng):
    """Mean and standard error of ``count`` fresh trial scores at ``policy``.

    Flagged trials count like any other (their penalty score is part of
    the policy's value).  The standard error is None when count is 1.
    """
    if count < 1:
        raise ValueError("count must be positive")
    policy = np.asarray(policy, dtype=float)
    trials = env.sample_trials(np.tile(policy, (count, 1)), rng)
    scores = np.array([t.score for t in trials])
    mean = float(np.mean(scores))
    if count == 1:
        return mean, None
    return mean, float(np.std(scores, ddof=1) / np.sqrt(count))


def _execute_run(env, config: SearchConfig, run: int):
    """One full hill-climbing run; returns (values or None, records, failure)."""
    policy = config.initial_policy
    values = np.full(config.steps, np.nan)
    records = []
    for step in range(config.steps):
        learn_rng = substream(config.seed, run, step, LEARN)
        eval_rng = substream(config.seed, run, step, EVAL)
        try:
            policy, record = hill_climb_step(
                env, policy, config, learn_rng, step_index=step
            )
            mean, std_error = evaluate_policy(
                env, policy, config.eval_trials_per_point, eval_rng
            )
        except _RECOVERABLE as err:
            records.append(
                StepRecord(
                    run=run, step=step, estimator=config.estimator, error=str(err)
                )
            )
            return None, records, (run, step, str(err))
        values[step] = mean
        records.append(
            replace(
                record,
                run=run,
                eval_mean=mean,
                eval_std_error=float("nan") if std_error is None else std_error,
            )
        )
    return values, records, None


def run_learning_curve(env, config: SearchConfig, *, workers: int = 1) -> LearningCurve:
    """Aggregate hill-climbing runs into a per-step evaluation curve.

    After each step the updated nominal policy is scored with fresh
    evaluation trials.  A run that hits a propagated step error is
    recorded in ``failed_runs`` and excluded from the aggregates.

    ``workers`` > 1 executes independent runs on a thread pool; every
    run owns seed-derived streams and results are reduced in run-index
    order, so the curve is identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers == 1 or config.runs == 1:
        outcomes = [_execute_run(env, config, run) for run in range(config.runs)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(lambda run: _execute_run(env, config, run), range(config.runs))
            )
    records = []
    completed = []
    indices = []
    failed = []
    for run, (values, run_records, failure) in enumerate(outcomes):
        records.extend(run_records)
        if failure is not None:
            failed.append(failure)
        else:
            completed.append(values)
            indices.append(run)
    run_values = (
        np.array(completed) if completed else np.empty((0, config.steps))
    )
    if run_values.shape[0] > 0:
        means = run_values.mean(axis=0)
        if run_values.shape[0] > 1:
            std_errors = run_values.std(axis=0, ddof=1) / np.sqrt(run_values.shape[0])
        else:
            std_errors = np.zeros(config.steps)
    else:
        means = np.full(config.steps, np.nan)
        std_errors = np.full(config.steps, np.nan)
    return LearningCurve(
        estimator=config.estimator,
        mean_values=means,
        std_errors=std_errors,
        run_values=run_values,
        run_indices=tuple(indices),
        failed_runs=tuple(failed),
        diagnostics=tuple(records),
    )
