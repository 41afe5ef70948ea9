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

An environment provides ``sample_trials(policies, streams)``, one trial
per policy row drawn from its own stream, and ``check_policies(policies)``,
which raises :class:`PolicyDomainError` for a row outside its domain
without drawing anything.  The check lets :func:`run_learning_curve`
keep one run's infeasible batch out of the env call it shares with the
other runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import (
    EncodingError,
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
    "check_exploration_cov",
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
        check_exploration_cov(cov, policy.shape[0])
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
        if self.encode_max_iterations < 0:
            raise ValueError("encode_max_iterations must be nonnegative")
        if self.encode_restarts < 1:
            raise ValueError("encode_restarts must be at least 1")
        object.__setattr__(self, "initial_policy", policy)
        object.__setattr__(self, "exploration_cov", cov)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one hill-climbing step (or its failure).

    The fields, in order, are the columns of ``diagnostics.csv``, which
    writes ``step`` 1-based.
    """

    estimator: str
    run: int
    step: int
    gradient_norm: float = float("nan")
    loo_cost: float = float("nan")
    mean_trial_score: float = float("nan")
    flagged: int = 0
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


def check_exploration_cov(cov, dim: int) -> None:
    """Raise ValueError unless ``cov`` is a symmetric positive definite
    ``dim`` x ``dim`` matrix."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim):
        raise ValueError("exploration covariance must be d x d")
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-9 * max(
        1.0, np.max(np.abs(cov), initial=0.0)
    ):
        raise ValueError("exploration covariance must be symmetric")
    if dim and np.linalg.eigvalsh(cov)[0] <= 0.0:
        raise ValueError("exploration covariance must be positive definite")


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
    from .encoding import (
        EncodingSearchConfig,
        estimate_gradient_encoded,
        optimize_projection,
    )

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


@dataclass
class _Attempt:
    """One run's draws for one try at a step, and what simulating them gave.

    ``policies`` and ``streams`` hold the learning batch followed by the
    projection search's own batch of ``search_count`` trials (0 when the
    search reuses the learning batch).  ``outcome`` is the simulated
    trials, or the recoverable error the simulation raised.
    """

    policies: np.ndarray
    streams: list
    search_count: int
    encode_seed: int
    outcome: TrialBatch | Exception | None = None


def _draw_attempt(policy, config: SearchConfig, rng) -> _Attempt:
    """Draw one attempt's exploration policies and per-trial streams from ``rng``.

    Each call takes fresh children of ``rng``, so a retry draws anew.
    """
    explore_rng, trial_rng, encode_rng = children(rng, 3)
    count = config.trials_per_step
    policies = sample_exploration_policies(
        policy, config.exploration_cov, count, explore_rng
    )
    streams = children(trial_rng, count)
    search_count = 0
    seed_rng = encode_rng
    if config.estimator == "with_encoding" and config.encode_trials_per_step > 0:
        enc_explore_rng, enc_trial_rng, seed_rng = children(encode_rng, 3)
        search_count = config.encode_trials_per_step
        search_policies = sample_exploration_policies(
            policy, config.exploration_cov, search_count, enc_explore_rng
        )
        policies = np.concatenate([policies, search_policies])
        streams += children(enc_trial_rng, search_count)
    encode_seed = int(seed_rng.integers(0, 2**32))
    return _Attempt(policies, streams, search_count, encode_seed)


def _simulated_attempt(env, policy, config: SearchConfig, rng) -> _Attempt:
    attempt = _draw_attempt(policy, config, rng)
    attempt.outcome = env.sample_trials(attempt.policies, attempt.streams)
    return attempt


def _sample_blocks(env, blocks) -> list:
    """Simulate every ``(policies, streams)`` block in one env call.

    Returns each block's trials, or the recoverable error its domain
    check raised: a failing block stays out of the shared call, so it
    cannot abort the others.  An error raised by the shared call itself
    counts against every block in it.
    """
    outcomes = [None] * len(blocks)
    passed = []
    for index, (policies, _) in enumerate(blocks):
        try:
            env.check_policies(policies)
        except _RECOVERABLE as err:
            outcomes[index] = err
        else:
            passed.append(index)
    if not passed:
        return outcomes
    try:
        trials = env.sample_trials(
            np.concatenate([blocks[i][0] for i in passed]),
            [stream for i in passed for stream in blocks[i][1]],
        )
    except _RECOVERABLE as err:
        for index in passed:
            outcomes[index] = err
        return outcomes
    start = 0
    for index in passed:
        stop = start + len(blocks[index][1])
        outcomes[index] = trials.rows(slice(start, stop))
        start = stop
    return outcomes


def _kept_batch(env, config: SearchConfig, trials: TrialBatch) -> TrialBatch:
    """The unflagged trials, with the env's encoded sensors."""
    batch = trials.rows(~trials.flagged)
    if not batch.size:
        raise EstimationError("insufficient samples: every trial was flagged")
    if config.estimator != "ignore_sensors" and hasattr(env, "encode_batch"):
        batch = env.encode_batch(batch)
    return batch


def _estimate_attempt(env, config: SearchConfig, attempt: _Attempt):
    if isinstance(attempt.outcome, Exception):
        raise attempt.outcome
    split = len(attempt.streams) - attempt.search_count
    trials = attempt.outcome.rows(slice(None, split))
    batch = _kept_batch(env, config, trials)
    search_batch = None
    if attempt.search_count:
        search = attempt.outcome.rows(slice(split, None))
        search_batch = _kept_batch(env, config, search)
    estimate, loo = _estimate(batch, config, attempt.encode_seed, search_batch)
    return estimate, loo, trials.scores, int(trials.flagged.sum())


def _apply_rule(policy, estimate: GradientEstimate, config: SearchConfig, step_index: int):
    gradient = estimate.gradient
    if config.step_rule == "fixed_rate":
        return policy + config.learning_rate * gradient
    norm = float(np.linalg.norm(gradient))
    if norm == 0.0:
        return policy.copy()
    rate = config.learning_rate / np.sqrt(step_index + 1.0)
    return policy + rate * (gradient / norm)


def hill_climb_step(
    env, policy, config: SearchConfig, rng, *, step_index: int = 0, first=None
):
    """One gradient step from ``policy``; returns (new policy, record).

    Flagged trials are dropped before estimation.  An estimator failure
    (rank deficiency, too few surviving trials) is retried once with
    fresh exploration samples from the same stream, then propagated.

    ``first`` is the step's first attempt when the caller has already
    drawn it from ``rng`` and simulated it, as the lockstep driver does
    for all runs at once; by default the step draws and simulates it.
    """
    policy = np.asarray(policy, dtype=float)
    retried = False
    try:
        if first is None:
            first = _simulated_attempt(env, policy, config, rng)
        estimate, loo, scores, flagged = _estimate_attempt(env, config, first)
    except _RECOVERABLE:
        retried = True
        estimate, loo, scores, flagged = _estimate_attempt(
            env, config, _simulated_attempt(env, policy, config, rng)
        )
    new_policy = _apply_rule(policy, estimate, config, step_index)
    record = StepRecord(
        run=-1,
        step=step_index,
        estimator=config.estimator,
        gradient_norm=float(np.linalg.norm(estimate.gradient)),
        loo_cost=float("nan") if loo is None else float(loo),
        mean_trial_score=float(np.mean(scores)),
        flagged=flagged,
        retried=retried,
    )
    return new_policy, record


def evaluate_policy(env, policy, count: int, rng, *, trials=None):
    """Mean and standard error of ``count`` fresh trial scores at ``policy``.

    Flagged trials count like any other (their penalty score is part of
    the policy's value).  The standard error is None when count is 1.
    ``trials`` are the ``count`` trials when the caller has already
    simulated them on ``children(rng, count)``, as the lockstep driver
    does for all runs at once.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if trials is None:
        policy = np.asarray(policy, dtype=float)
        trials = env.sample_trials(np.tile(policy, (count, 1)), children(rng, count))
    scores = trials.scores
    mean = float(np.mean(scores))
    if count == 1:
        return mean, None
    return mean, float(np.std(scores, ddof=1) / np.sqrt(count))


def run_learning_curve(env, config: SearchConfig) -> LearningCurve:
    """Aggregate hill-climbing runs into a per-step evaluation curve.

    All runs advance in lockstep: at each step the first-attempt
    learning batches of every live run go through one env call, each
    run then estimates and steps on its own (retrying alone when it
    must), and the evaluation batches of the runs that stepped go
    through a second env call.  Every run draws from its own
    seed-derived streams, so a run's values do not depend on the other
    runs.  A run that hits a propagated step error is recorded in
    ``failed_runs``, drops out of later steps, and is excluded from the
    aggregates.
    """
    count = config.eval_trials_per_point
    policies = [config.initial_policy] * config.runs
    values = np.full((config.runs, config.steps), np.nan)
    records = [[] for _ in range(config.runs)]
    failures = {}

    def fail(run, step, err):
        records[run].append(
            StepRecord(run=run, step=step, estimator=config.estimator, error=str(err))
        )
        failures[run] = (run, step, str(err))

    for step in range(config.steps):
        live = [run for run in range(config.runs) if run not in failures]
        rngs = [substream(config.seed, run, step, LEARN) for run in live]
        attempts = [
            _draw_attempt(policies[run], config, rng) for run, rng in zip(live, rngs)
        ]
        outcomes = _sample_blocks(env, [(a.policies, a.streams) for a in attempts])
        stepped = []
        for run, rng, attempt, outcome in zip(live, rngs, attempts, outcomes):
            attempt.outcome = outcome
            try:
                policies[run], record = hill_climb_step(
                    env, policies[run], config, rng, step_index=step, first=attempt
                )
            except _RECOVERABLE as err:
                fail(run, step, err)
            else:
                stepped.append((run, record))
        eval_rngs = [substream(config.seed, run, step, EVAL) for run, _ in stepped]
        blocks = [
            (np.tile(policies[run], (count, 1)), children(rng, count))
            for (run, _), rng in zip(stepped, eval_rngs)
        ]
        outcomes = _sample_blocks(env, blocks)
        for (run, record), rng, outcome in zip(stepped, eval_rngs, outcomes):
            if isinstance(outcome, Exception):
                fail(run, step, outcome)
                continue
            mean, std_error = evaluate_policy(
                env, policies[run], count, rng, trials=outcome
            )
            values[run, step] = mean
            records[run].append(
                replace(
                    record,
                    run=run,
                    eval_mean=mean,
                    eval_std_error=float("nan") if std_error is None else std_error,
                )
            )
    indices = [run for run in range(config.runs) if run not in failures]
    run_values = values[indices]
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
        failed_runs=tuple(failures[run] for run in sorted(failures)),
        diagnostics=tuple(record for run_records in records for record in run_records),
    )
