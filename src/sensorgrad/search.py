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
without drawing anything.  :func:`run_learning_curve` is the only code
that simulates: a step's first attempts share one env call, its retries
share one more, and the check keeps one run's infeasible batch out of
the call it shares with the other runs.  It returns the runs' step
records, the one result of a learning run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import (
    EncodingSearchConfig,
    estimate_gradient_encoded,
    optimize_projection,
)
from .estimators import (
    EncodingError,
    EstimationError,
    GradientEstimate,
    PolicyDomainError,
    TrialBatch,
    estimate_g1,
    estimate_g2,
)
from .seeding import EVAL, LEARN, children, psd_sqrt, substream

__all__ = [
    "ESTIMATORS",
    "STEP_RULES",
    "SearchConfig",
    "StepRecord",
    "sample_exploration_policies",
    "hill_climb_step",
    "evaluate_policy",
    "run_learning_curve",
]

ESTIMATORS = ("ignore_sensors", "with_sensors", "with_encoding")

STEP_RULES = ("normalized", "fixed_rate")

_RECOVERABLE = (EstimationError, EncodingError, PolicyDomainError)


@dataclass(frozen=True)
class SearchConfig:
    """Everything one hill-climbing experiment needs besides the env.

    ``encoding`` holds the projection search's settings for the
    encoding estimator; each step searches with its seed replaced by one
    drawn from the step's own stream.  ``encode_trials_per_step`` > 0
    gives the search its own fresh trial batch of that size each step,
    drawn around the same nominal policy; the gradient still comes from
    the learning batch.  At 0 the search reuses the learning batch,
    which then has to satisfy the leave-one-out sample-size
    precondition itself.  The settings check nothing: each field's
    bounds (``step_rule`` in ``STEP_RULES``, positive counts, a d x d
    positive definite ``exploration_cov`` for a d-vector
    ``initial_policy``) are checked where its config key is read.
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
    encode_trials_per_step: int = 0
    encoding: EncodingSearchConfig = EncodingSearchConfig(target_dim=1)
    # psd_sqrt(exploration_cov), derived once for every draw of the search.
    exploration_root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("initial_policy", "exploration_cov"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "exploration_root", psd_sqrt(self.exploration_cov))


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


def sample_exploration_policies(
    policy, exploration_cov, count, rng, *, root=None
) -> np.ndarray:
    """Draw ``count`` policies i.i.d. from Normal(policy, exploration_cov).

    ``root`` is ``psd_sqrt(exploration_cov)``, for a caller that draws
    from the same covariance repeatedly and has computed it once.
    """
    policy = np.asarray(policy, dtype=float)
    if count < 1:
        raise ValueError("count must be positive")
    if root is None:
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
    if search_batch is None:
        search_batch = batch
    search_feats = search_batch.sensors
    # Feature scales differ by orders of magnitude; standardized
    # coordinates keep the projection search well conditioned.
    center = search_feats.mean(axis=0)
    spread = search_feats.std(axis=0)
    spread = np.where(spread > 1e-12, spread, 1.0)

    def standardized(trials: TrialBatch) -> TrialBatch:
        return replace(trials, sensors=(trials.sensors - center) / spread)

    projection = optimize_projection(
        standardized(search_batch), replace(config.encoding, seed=encode_seed)
    )
    estimate = estimate_gradient_encoded(standardized(batch), projection.matrix)
    return estimate, projection.cost


@dataclass(frozen=True)
class _Attempt:
    """One run's draws for one try at a step.

    ``policies`` and ``streams`` hold the learning batch followed by the
    projection search's own batch of ``search_count`` trials (0 when the
    search reuses the learning batch).
    """

    policies: np.ndarray
    streams: list
    search_count: int
    encode_seed: int


def _draw_attempt(policy, config: SearchConfig, rng) -> _Attempt:
    """Draw one attempt's exploration policies and per-trial streams from ``rng``.

    Each call takes fresh children of ``rng``, so a retry draws anew.
    """
    def explore(count, stream):
        return sample_exploration_policies(
            policy, config.exploration_cov, count, stream, root=config.exploration_root
        )

    explore_rng, trial_rng, encode_rng = children(rng, 3)
    count = config.trials_per_step
    policies = explore(count, explore_rng)
    streams = children(trial_rng, count)
    search_count = 0
    seed_rng = encode_rng
    if config.estimator == "with_encoding" and config.encode_trials_per_step > 0:
        enc_explore_rng, enc_trial_rng, seed_rng = children(encode_rng, 3)
        search_count = config.encode_trials_per_step
        policies = np.concatenate([policies, explore(search_count, enc_explore_rng)])
        streams += children(enc_trial_rng, search_count)
    encode_seed = int(seed_rng.integers(0, 2**32))
    return _Attempt(policies, streams, search_count, encode_seed)


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
    """The unflagged trials, with the sensors the env encodes them to."""
    batch = trials.rows(~trials.flagged)
    if not batch.size:
        raise EstimationError("insufficient samples: every trial was flagged")
    if config.estimator != "ignore_sensors" and hasattr(env, "encode_batch"):
        batch = env.encode_batch(batch)
    return batch


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
    env, policy, config: SearchConfig, attempt: _Attempt, outcome, step_index: int
):
    """One gradient step from ``policy`` on one simulated attempt.

    ``outcome`` is what simulating ``attempt`` gave: its trials, or the
    recoverable error the simulation raised, which is re-raised.
    Flagged trials are dropped before estimation; an estimator failure
    (rank deficiency, too few surviving trials) raises with ``flagged``
    set to the learning batch's flagged count.  The step neither
    simulates nor retries: :func:`run_learning_curve` does both.
    Returns (new policy, record).
    """
    if isinstance(outcome, Exception):
        raise outcome
    split = len(attempt.streams) - attempt.search_count
    trials = outcome.rows(slice(None, split))
    flagged = int(trials.flagged.sum())
    try:
        batch = _kept_batch(env, config, trials)
        search_batch = None
        if attempt.search_count:
            search_batch = _kept_batch(env, config, outcome.rows(slice(split, None)))
        estimate, loo = _estimate(batch, config, attempt.encode_seed, search_batch)
    except _RECOVERABLE as err:
        # Flagging is a common cause of too few samples: the failed
        # step's diagnostics row reports it.
        err.flagged = flagged
        raise
    record = StepRecord(
        run=-1,
        step=step_index,
        estimator=config.estimator,
        gradient_norm=float(np.linalg.norm(estimate.gradient)),
        loo_cost=float("nan") if loo is None else float(loo),
        mean_trial_score=float(np.mean(trials.scores)),
        flagged=flagged,
    )
    return _apply_rule(policy, estimate, config, step_index), record


def evaluate_policy(scores):
    """Mean and standard error of a policy's evaluation trial scores.

    Flagged trials count like any other (their penalty score is part of
    the policy's value).  The standard error is NaN for one score.
    Raises EstimationError when the mean or the spread overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(scores))
        spread = np.std(scores, ddof=1) if len(scores) > 1 else float("nan")
    if not np.isfinite(mean) or np.isinf(spread):
        raise EstimationError("scores too large to evaluate: their mean or spread overflows")
    return mean, float(spread / np.sqrt(len(scores)))


def run_learning_curve(env, config: SearchConfig) -> tuple:
    """Hill-climbing runs; returns their step records, run by run.

    All runs advance in lockstep: at each step the first-attempt
    learning batches of every live run go through one env call, each
    run then estimates and steps on its own, a step's retries share one
    env call, and the evaluation batches of the runs that stepped go
    through another.  Every run draws from its own seed-derived
    streams, so a run's records do not depend on the other runs.  A run
    whose retry fails too ends with a record holding the error and
    drops out of later steps.
    """
    count = config.eval_trials_per_point
    policies = [config.initial_policy] * config.runs
    records = [[] for _ in range(config.runs)]
    failures = set()

    def fail(run, step, err, retried):
        records[run].append(
            StepRecord(
                run=run,
                step=step,
                estimator=config.estimator,
                flagged=getattr(err, "flagged", 0),
                retried=retried,
                error=str(err),
            )
        )
        failures.add(run)

    for step in range(config.steps):
        live = [run for run in range(config.runs) if run not in failures]
        pending = [(run, substream(config.seed, run, step, LEARN)) for run in live]
        stepped = []
        for retried in (False, True):
            # A retry draws the next children of the same step stream.
            attempts = [_draw_attempt(policies[run], config, rng) for run, rng in pending]
            outcomes = _sample_blocks(env, [(a.policies, a.streams) for a in attempts])
            failed = []
            for (run, rng), attempt, outcome in zip(pending, attempts, outcomes):
                try:
                    policies[run], record = hill_climb_step(
                        env, policies[run], config, attempt, outcome, step
                    )
                except _RECOVERABLE as err:
                    if retried:
                        fail(run, step, err, retried=True)
                    else:
                        failed.append((run, rng))
                else:
                    stepped.append(replace(record, run=run, retried=retried))
            pending = failed
        # Retried runs rejoin in run order, as if none had retried.
        stepped.sort(key=lambda record: record.run)
        eval_rngs = [substream(config.seed, r.run, step, EVAL) for r in stepped]
        blocks = [
            (np.tile(policies[r.run], (count, 1)), children(rng, count))
            for r, rng in zip(stepped, eval_rngs)
        ]
        outcomes = _sample_blocks(env, blocks)
        for record, outcome in zip(stepped, outcomes):
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                mean, std_error = evaluate_policy(outcome.scores)
            except _RECOVERABLE as err:
                fail(record.run, step, err, record.retried)
                continue
            records[record.run].append(
                replace(record, eval_mean=mean, eval_std_error=std_error)
            )
    return tuple(record for run_records in records for record in run_records)
