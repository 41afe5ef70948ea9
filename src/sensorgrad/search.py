"""Hill-climbing policy search with selectable gradient estimators.

Each step samples exploration policies around the nominal policy, runs
one trial per sample, estimates the gradient from the batch, and moves
the nominal policy along it.  The estimator choices are: regress scores
on policies alone, on policies and the trials' sensor readings jointly,
or on policies and an optimized low-dimensional sensor projection.

Randomness is hierarchical: every (run, step) owns two private streams
derived from the experiment seed, one for learning trials and one for
evaluation trials.  An evaluation trial's stream is a child of its step
stream, a learning trial's a grandchild (of child 3a + 1 for attempt a,
0 first and 1 the retry); :mod:`sensorgrad.seeding` lists every
address.  The estimator choice never enters the derivation, so runs
with different estimators see identical noise at the same (run, step,
trial) address until their nominal policies diverge.

An environment is its ``sample_trials(policies, streams)``, one trial
per policy row drawn from its own stream.  The policies have the width
the config reader checked ``search.initial_policy`` against, and
``sample_trials`` raises nothing for any value: a trial it cannot score
is flagged in its row, by the environment or by :class:`TrialBatch`.
:func:`run_learning_curve` is the only code that simulates: every
(estimator, run) lane steps in one lockstep, sharing one env call, and
a lane fails only when its own batch cannot be used.
It returns the lanes' step records; a failed step is a record holding
its error.
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
    EstimationError,
    GradientEstimate,
    TrialBatch,
    estimate_g1,
    estimate_g2,
)
from .seeding import EVAL, LEARN, child, children, psd_sqrt, substream

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


@dataclass(frozen=True)
class SearchConfig:
    """Everything one hill-climbing experiment needs besides the env.

    Each of ``estimators`` makes ``runs`` runs.  ``encoding`` holds the
    projection search's settings for the encoding estimator; each step
    searches on its own fresh batch of ``encode_trials_per_step`` trials
    drawn around the same nominal policy; the gradient still comes from
    the learning batch.  The settings check nothing: each field's bounds
    (``step_rule`` in ``STEP_RULES``, positive counts, a d x d positive
    definite ``exploration_cov`` for a d-vector ``initial_policy``) are
    checked where its config key is read.
    """

    initial_policy: np.ndarray
    trials_per_step: int
    exploration_cov: np.ndarray
    steps: int
    runs: int
    seed: int
    estimators: tuple = ("ignore_sensors",)
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

    ``count`` is positive, as every count is read.  ``root`` is
    ``psd_sqrt(exploration_cov)``, for a caller that draws from the same
    covariance repeatedly and has computed it once.
    """
    policy = np.asarray(policy, dtype=float)
    if root is None:
        root = psd_sqrt(exploration_cov)
    draws = rng.standard_normal((count, policy.shape[0]))
    return policy + draws @ root.T


def _estimate(env, learning: TrialBatch, search: TrialBatch, config, estimator: str):
    """Dispatch to ``estimator``.

    Returns (estimate, loo_cost or None).  The gradient comes from the
    ``learning`` trials; the encoding estimator's projection search runs
    on its own ``search`` trials, which the other estimators leave empty.
    """
    batch = _kept_batch(env, estimator, learning)
    if estimator == "ignore_sensors":
        return estimate_g1(batch), None
    if estimator == "with_sensors":
        return estimate_g2(batch), None
    search_batch = _kept_batch(env, estimator, search)
    search_feats = search_batch.sensors
    # Feature scales differ by orders of magnitude; standardized
    # coordinates keep the projection search well conditioned.
    center = search_feats.mean(axis=0)
    spread = search_feats.std(axis=0)
    spread = np.where(spread > 1e-12, spread, 1.0)

    def standardized(trials: TrialBatch) -> TrialBatch:
        return replace(trials, sensors=(trials.sensors - center) / spread)

    projection = optimize_projection(standardized(search_batch), config.encoding)
    estimate = estimate_gradient_encoded(standardized(batch), projection.matrix)
    return estimate, projection.cost


def _draw_attempt(policy, config: SearchConfig, estimator: str, rng, a: int) -> tuple:
    """Draw attempt ``a``'s exploration policies and per-trial streams.

    Returns (policies, streams): the learning batch, from child 3a of the
    step stream ``rng`` and the children of child 3a + 1, followed for
    the encoding estimator by the projection search's own batch, from
    (3a + 2, 0) and the children of (3a + 2, 1).
    """
    def explore(count, stream):
        return sample_exploration_policies(
            policy, config.exploration_cov, count, stream, root=config.exploration_root
        )

    count = config.trials_per_step
    policies = explore(count, child(rng, 3 * a))
    streams = children(child(rng, 3 * a + 1), count)
    if estimator == "with_encoding":
        count = config.encode_trials_per_step
        search = explore(count, child(rng, 3 * a + 2, 0))
        policies = np.concatenate([policies, search])
        streams += children(child(rng, 3 * a + 2, 1), count)
    return policies, streams


def _sample_blocks(env, blocks) -> list:
    """Simulate every ``(policies, streams)`` block in one env call and
    return each block's trials."""
    if not blocks:
        return []
    trials = env.sample_trials(
        np.concatenate([policies for policies, _ in blocks]),
        [stream for _, streams in blocks for stream in streams],
    )
    stops = np.cumsum([len(streams) for _, streams in blocks])
    return [
        trials.rows(slice(stop - len(streams), stop))
        for stop, (_, streams) in zip(stops, blocks)
    ]


def _kept_batch(env, estimator: str, trials: TrialBatch) -> TrialBatch:
    """The unflagged trials, with the sensors the env encodes them to."""
    batch = trials.rows(~trials.flagged)
    if not batch.size:
        raise EstimationError("insufficient samples: every trial was flagged")
    if estimator != "ignore_sensors" and hasattr(env, "encode_batch"):
        batch = env.encode_batch(batch)
    return batch


@np.errstate(over="ignore", invalid="ignore")
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
    env, policy, config: SearchConfig, estimator: str, trials: TrialBatch, step_index: int
):
    """One ``estimator`` step from ``policy`` on one attempt's simulated ``trials``.

    Flagged trials are dropped before estimation.  Returns (new policy,
    record); on an estimator failure (rank deficiency, too few surviving
    trials) the policy is returned as it came and the record holds the
    error and the learning batch's flagged count, a common cause of too
    few samples.  The step neither simulates nor retries:
    :func:`run_learning_curve` does both.
    """
    learning = trials.rows(slice(None, config.trials_per_step))
    search = trials.rows(slice(config.trials_per_step, None))
    record = StepRecord(estimator, -1, step_index, flagged=int(learning.flagged.sum()))
    try:
        estimate, loo = _estimate(env, learning, search, config, estimator)
    except EstimationError as err:
        return policy, replace(record, error=str(err))
    record = replace(
        record,
        gradient_norm=float(np.linalg.norm(estimate.gradient)),
        loo_cost=float("nan") if loo is None else float(loo),
        mean_trial_score=float(np.mean(learning.scores)),
    )
    return _apply_rule(policy, estimate, config, step_index), record


def evaluate_policy(scores):
    """Mean and standard error of a policy's evaluation trial scores.

    Flagged trials with a finite score count like any other (the arm's
    penalty score is part of the policy's value).  The standard error is
    NaN for one score.  Raises EstimationError when a score is not
    finite, or when the mean or the spread of finite scores overflows.
    """
    if not np.isfinite(scores).all():
        raise EstimationError("an evaluation trial could not be scored")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(scores))
        spread = np.std(scores, ddof=1) if len(scores) > 1 else float("nan")
    if not np.isfinite(mean) or np.isinf(spread):
        raise EstimationError("scores too large to evaluate: their mean or spread overflows")
    return mean, float(spread / np.sqrt(len(scores)))


def _step_runs(env, config: SearchConfig, lanes, step: int, a: int) -> list:
    """Attempt ``a`` at ``step`` for each ``(estimator, policy, step stream)`` lane.

    Every lane's attempt is drawn, then all are simulated in one env call.
    Returns each lane's (new policy, record) from :func:`hill_climb_step`.
    """
    attempts = [
        _draw_attempt(policy, config, name, rng, a) for name, policy, rng in lanes
    ]
    return [
        hill_climb_step(env, policy, config, name, trials, step)
        for (name, policy, _), trials in zip(lanes, _sample_blocks(env, attempts))
    ]


def run_learning_curve(env, config: SearchConfig) -> tuple:
    """Hill-climbing runs of every estimator; returns their step records,
    estimator by estimator, run by run.

    Each (estimator, run) lane advances in lockstep: at each step
    :func:`_step_runs` moves every live lane on first attempts sharing
    one env call, and once more on the retries of the lanes whose record
    holds an error, then the evaluation batches of the lanes that stepped
    go through another.  A lane draws from its run's seed-derived streams
    whatever its estimator, so its records do not depend on the other
    lanes.  A lane whose retry fails too, or whose evaluation cannot be
    summarized, ends with a record holding the error and drops out of
    later steps.
    """
    count = config.eval_trials_per_point
    lanes = [(name, run) for name in config.estimators for run in range(config.runs)]
    policies = dict.fromkeys(lanes, config.initial_policy)
    records = {lane: [] for lane in lanes}
    for step in range(config.steps):
        live = [lane for lane in lanes if not (records[lane] and records[lane][-1].error)]
        rngs = {lane: substream(config.seed, lane[1], step, LEARN) for lane in live}
        stepped = {}
        pending = live
        for a in (0, 1):
            outcomes = _step_runs(
                env, config, [(lane[0], policies[lane], rngs[lane]) for lane in pending],
                step, a,
            )
            for lane, (policy, record) in zip(pending, outcomes):
                policies[lane] = policy
                stepped[lane] = replace(record, run=lane[1], retried=a == 1)
            pending = [lane for lane in pending if stepped[lane].error]
        evaluated = [lane for lane in live if not stepped[lane].error]
        blocks = [
            (np.tile(policies[lane], (count, 1)),
             children(substream(config.seed, lane[1], step, EVAL), count))
            for lane in evaluated
        ]
        for lane, trials in zip(evaluated, _sample_blocks(env, blocks)):
            record = stepped[lane]
            try:
                mean, std_error = evaluate_policy(trials.scores)
            except EstimationError as err:
                record = StepRecord(*lane, step, retried=record.retried, error=str(err))
            else:
                record = replace(record, eval_mean=mean, eval_std_error=std_error)
            stepped[lane] = record
        for lane in live:
            records[lane].append(stepped[lane])
    return tuple(record for lane in lanes for record in records[lane])
