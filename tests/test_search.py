"""Hill-climbing search: step rules, retries, aggregation, lockstep runs."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sensorgrad.dynamics_sensors import (
    DartEnv,
    fit_dynamics_model,
    sample_pretraining_states,
)
from sensorgrad.encoding import EncodingSearchConfig
from sensorgrad.envs.arm import ArmWorld
from sensorgrad.envs.cannon import CannonEnv, CannonWorld, cannon_true_value
from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import EstimationError
from sensorgrad.search import (
    SearchConfig,
    StepRecord,
    _draw_attempt,
    evaluate_policy,
    hill_climb_step,
    run_learning_curve,
    sample_exploration_policies,
)
from sensorgrad.seeding import EVAL, LEARN, children, substream

TRUE_GRADIENT = np.array([1.5, -0.7])


def noiseless_world() -> SyntheticWorld:
    return SyntheticWorld(
        true_gradient=TRUE_GRADIENT,
        sensor_slope=np.zeros(2),
        output_variance=0.0,
        sensor_cov=np.zeros((2, 2)),
        policy_sensor_coupling=np.zeros((2, 2)),
    )


def junk_sensor_world() -> SyntheticWorld:
    """Sensors fluctuate but carry no score information (zero slope)."""
    return SyntheticWorld(
        true_gradient=TRUE_GRADIENT,
        sensor_slope=np.zeros(2),
        output_variance=0.09,
        sensor_cov=0.5 * np.eye(2),
        policy_sensor_coupling=np.zeros((2, 2)),
    )


def informative_sensor_world() -> SyntheticWorld:
    return SyntheticWorld(
        true_gradient=TRUE_GRADIENT,
        sensor_slope=np.array([0.8, -1.2]),
        output_variance=0.01,
        sensor_cov=np.array([[0.2, -0.05], [-0.05, 0.4]]),
        policy_sensor_coupling=np.zeros((2, 2)),
    )


# The throwing posture of configs/dart_search.cfg.
DART_POLICY = np.array(
    [1.6196, 1.52648, 1.08784, 1.63504, 1.084] + [0.48032, 0.45472, 0.12, -0.11944]
)


def tiny_dart_env() -> DartEnv:
    """A dart sampler whose dynamics model is fit on 30 states, the fewest
    a config accepts: enough for tests that never read its encoding."""
    world = ArmWorld()
    states = sample_pretraining_states(
        world, 30, substream(0), policy_mean=DART_POLICY, policy_cov=0.01 * np.eye(9)
    )
    return DartEnv(world, fit_dynamics_model(world, states))


def base_config(**overrides) -> SearchConfig:
    settings = dict(
        initial_policy=np.array([0.2, -0.4]),
        trials_per_step=8,
        exploration_cov=0.09 * np.eye(2),
        steps=1,
        runs=1,
        seed=5,
        step_rule="fixed_rate",
        learning_rate=0.25,
    )
    settings.update(overrides)
    return SearchConfig(**settings)


def step_alone(env, policy, config, rng, step_index=0):
    """One step of one run of the config's one estimator outside the
    lockstep driver (the test oracle).

    Draws an attempt from ``rng`` and simulates it in its own env call;
    when its record holds an error, retries once with the next draws of
    the same stream.
    """
    (estimator,) = config.estimators

    def attempt():
        trials = env.sample_trials(*_draw_attempt(policy, config, estimator, rng))
        return hill_climb_step(env, policy, config, estimator, trials, step_index)

    new_policy, record = attempt()
    if not record.error:
        return new_policy, record
    new_policy, record = attempt()
    return new_policy, replace(record, retried=True)


class FlaggingEnv:
    """Flags every third trial of the base env."""

    def __init__(self, base):
        self.base = base

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        return replace(trials, flagged=np.arange(len(trials)) % 3 == 0)


class AllFlagged:
    """Flags every trial of the base env."""

    def __init__(self, base):
        self.base = base

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        return replace(trials, flagged=np.ones(len(trials), dtype=bool))


def test_exploration_samples_match_the_requested_moments():
    policy = np.array([1.0, -2.0, 0.5])
    cov = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, -0.05], [0.0, -0.05, 0.2]])
    draws = sample_exploration_policies(policy, cov, 40000, substream(101))
    assert draws.shape == (40000, 3)
    assert np.allclose(draws.mean(axis=0), policy, atol=0.02)
    assert np.allclose(np.cov(draws.T), cov, atol=0.02)
    again = sample_exploration_policies(policy, cov, 40000, substream(101))
    assert np.array_equal(draws, again)


def test_fixed_rate_step_moves_by_rate_times_gradient():
    env = SyntheticEnv(noiseless_world())
    config = base_config()
    policy = config.initial_policy
    new_policy, record = step_alone(
        env, policy, config, substream(5, 0, 0), step_index=0
    )
    assert np.allclose(new_policy, policy + 0.25 * TRUE_GRADIENT, atol=1e-9)
    assert record.retried is False
    assert record.flagged == 0
    assert np.isnan(record.loo_cost)
    assert record.gradient_norm == pytest.approx(
        float(np.linalg.norm(TRUE_GRADIENT)), rel=1e-8
    )


def test_normalized_steps_shrink_like_inverse_square_root():
    env = SyntheticEnv(noiseless_world())
    config = base_config(step_rule="normalized", learning_rate=0.1)
    policy = config.initial_policy
    first, _ = step_alone(env, policy, config, substream(7, 0), step_index=0)
    fourth, _ = step_alone(env, policy, config, substream(7, 1), step_index=3)
    assert np.linalg.norm(first - policy) == pytest.approx(0.1, rel=1e-12)
    assert np.linalg.norm(fourth - policy) == pytest.approx(0.05, rel=1e-12)
    direction = (first - policy) / np.linalg.norm(first - policy)
    assert np.allclose(
        direction, TRUE_GRADIENT / np.linalg.norm(TRUE_GRADIENT), atol=1e-8
    )


def test_zero_gradient_leaves_the_policy_in_place():
    flat = SyntheticWorld(
        true_gradient=np.zeros(2),
        sensor_slope=np.zeros(2),
        output_variance=0.0,
        sensor_cov=np.zeros((2, 2)),
        policy_sensor_coupling=np.zeros((2, 2)),
    )
    config = base_config(step_rule="normalized")
    policy = config.initial_policy
    new_policy, record = step_alone(
        SyntheticEnv(flat), policy, config, substream(9, 0), step_index=0
    )
    assert np.array_equal(new_policy, policy)
    assert record.gradient_norm == 0.0


def test_hill_climbing_improves_the_cannon_policy():
    env = CannonEnv(CannonWorld())
    config = base_config(
        initial_policy=np.array([19.0, np.pi / 4.0]),
        trials_per_step=12,
        exploration_cov=np.diag([0.25, 0.0025]),
        step_rule="normalized",
        learning_rate=0.05,
        seed=13,
    )
    policy = config.initial_policy
    start = cannon_true_value(env.world, policy, seed=99)
    for step in range(3):
        policy, _ = step_alone(
            env, policy, config, substream(13, 0, step, 0), step_index=step
        )
    assert cannon_true_value(env.world, policy, seed=99) > start


def test_zero_steps_gives_an_empty_curve():
    config = base_config(steps=0, runs=2, seed=3)
    assert run_learning_curve(SyntheticEnv(noiseless_world()), config) == ()


def _records_by_run(records):
    by_run = {}
    for record in records:
        by_run.setdefault(record.run, []).append(record)
    return by_run


def _completed(records):
    """The completed runs' indices and their (runs, steps) evaluations, as
    ``learning_curve.csv`` aggregates them: a run with an error row is out."""
    failed = {record.run for record in records if record.error}
    by_run = {
        run: [record.eval_mean for record in run_records]
        for run, run_records in _records_by_run(records).items()
        if run not in failed
    }
    return tuple(by_run), np.array(list(by_run.values()))


def _failed_runs(records):
    """(run, step, error) of each run's error row, in run order."""
    return tuple((r.run, r.step, r.error) for r in records if r.error)


PREFIX_CASES = {
    "cannon": (
        lambda: CannonEnv(CannonWorld()),
        dict(
            initial_policy=np.array([16.0, np.pi / 4.0]),
            exploration_cov=np.diag([0.25, 0.0025]),
            estimators=("with_sensors",),
            step_rule="normalized",
            learning_rate=0.05,
        ),
    ),
    "dart": (
        tiny_dart_env,
        dict(
            initial_policy=DART_POLICY,
            exploration_cov=0.002 * np.eye(9),
            trials_per_step=12,
            estimators=("ignore_sensors",),
            step_rule="normalized",
            learning_rate=0.03,
        ),
    ),
    "synthetic": (
        lambda: SyntheticEnv(informative_sensor_world()),
        dict(
            initial_policy=np.zeros(2),
            exploration_cov=0.25 * np.eye(2),
            estimators=("with_encoding",),
            encode_trials_per_step=12,
            encoding=EncodingSearchConfig(target_dim=1, max_iterations=10),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_a_run_does_not_depend_on_the_runs_beside_it(case):
    make_env, settings = PREFIX_CASES[case]
    settings = {"trials_per_step": 10, **settings}
    config = base_config(steps=3, runs=2, seed=17, **settings)
    few = run_learning_curve(make_env(), config)
    many = run_learning_curve(make_env(), replace(config, runs=5))
    (few_runs, few_values), (many_runs, many_values) = map(_completed, (few, many))
    assert few_runs == (0, 1) and many_runs == (0, 1, 2, 3, 4)
    assert np.array_equal(few_values, many_values[:2])
    # loo_cost is NaN outside the encoding estimator, so compare reprs.
    prefix = tuple(r for r in many if r.run < 2)
    assert repr(few) == repr(prefix)
    again = run_learning_curve(make_env(), config)
    assert repr(few) == repr(again)


# (A, B): the estimator of the lane under test and the one stepped beside it.
LANE_CASES = {
    "dart": ("ignore_sensors", "with_encoding"),
    "synthetic": ("with_encoding", "with_sensors"),
}


@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_a_lane_does_not_depend_on_the_estimators_beside_it(case):
    make_env, settings = PREFIX_CASES[case]
    encoding = dict(
        encode_trials_per_step=12,
        encoding=EncodingSearchConfig(target_dim=1, max_iterations=10),
    )
    config = base_config(
        steps=2, runs=2, seed=21, **{"trials_per_step": 10, **settings, **encoding}
    )
    a, b = LANE_CASES[case]

    def lane(estimators):
        records = run_learning_curve(make_env(), replace(config, estimators=estimators))
        return tuple(record for record in records if record.estimator == a)

    alone = lane((a,))
    assert len(alone) == 4 and _failed_runs(alone) == ()
    # loo_cost is NaN outside the encoding estimator, so compare reprs.
    assert repr(lane((b, a))) == repr(alone)
    assert repr(lane((a, b))) == repr(alone)


def test_a_lone_dart_run_matches_the_same_run_in_a_lockstep_batch():
    # With one evaluation trial per point a lone run evaluates in one-row
    # simulator calls, which must round as the shared two-row call does.
    # Rounding moves only some scores, so the run evaluates four points.
    make_env, settings = PREFIX_CASES["dart"]
    config = base_config(steps=4, runs=1, seed=18, eval_trials_per_point=1, **settings)
    alone = run_learning_curve(make_env(), config)
    paired = run_learning_curve(make_env(), replace(config, runs=2))
    (alone_runs, alone_values), (paired_runs, paired_values) = map(
        _completed, (alone, paired)
    )
    assert alone_runs == (0,) and paired_runs == (0, 1)
    assert np.array_equal(alone_values[0], paired_values[0])
    prefix = tuple(r for r in paired if r.run == 0)
    assert repr(alone) == repr(prefix)


def _stepped_alone(env, config, run):
    """Policies and step records of one run stepped without the lockstep
    driver, each evaluation simulated in its own env call; a step whose
    record holds an error ends the run."""
    policy = config.initial_policy
    count = config.eval_trials_per_point
    stepped, records = [], []
    for step in range(config.steps):
        policy, record = step_alone(
            env, policy, config, substream(config.seed, run, step, LEARN), step
        )
        if record.error:
            records.append(replace(record, run=run))
            break
        streams = children(substream(config.seed, run, step, EVAL), count)
        trials = env.sample_trials(np.tile(policy, (count, 1)), streams)
        mean, std_error = evaluate_policy(trials.scores)
        stepped.append(policy)
        records.append(
            replace(record, run=run, eval_mean=mean, eval_std_error=std_error)
        )
    return stepped, records


def test_lockstep_runs_match_runs_stepped_alone():
    env = SyntheticEnv(junk_sensor_world())
    config = base_config(
        steps=3, runs=3, seed=19, estimators=("with_sensors",), eval_trials_per_point=5
    )
    curve = run_learning_curve(env, config)
    by_run = _records_by_run(curve)
    runs, values = _completed(curve)
    assert runs == tuple(range(config.runs))
    for run in range(config.runs):
        _, records = _stepped_alone(env, config, run)
        assert np.array_equal(values[run], [r.eval_mean for r in records])
        assert repr(by_run[run]) == repr(records)


class FaultyEnv:
    """Junk-sensor synthetic env with faults aimed at chosen runs, each
    batch recognised by its trial streams' seed path.

    ``flagged`` (run, step) pairs: each run's first learning batch at
    that step comes back all flagged.  ``hopeless`` (run, step): that
    run's first learning batch and its retry both come back all flagged.
    ``broken_eval`` (run, step): that run's evaluation batch scores NaN.
    ``calls`` logs, per simulator call, the seed paths (run, step, kind,
    child) of its streams.
    """

    def __init__(self, flagged, hopeless, broken_eval):
        self.base = SyntheticEnv(junk_sensor_world())
        # A step's first attempt draws its trial streams from child 1 of
        # the step stream, its retry from child 4.
        self.flagged_keys = {(*lane, LEARN, 1) for lane in flagged}
        self.flagged_keys |= {(*hopeless, LEARN, 1), (*hopeless, LEARN, 4)}
        self.broken_eval = (*broken_eval, EVAL)
        self.calls = []

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        keys = [s.bit_generator.seed_seq.spawn_key[:4] for s in streams]
        self.calls.append(set(keys))
        broken = [key[:3] == self.broken_eval for key in keys]
        return replace(
            trials,
            scores=np.where(broken, np.nan, trials.scores),
            flagged=[key in self.flagged_keys for key in keys],
        )


FAULT_CONFIG = dict(
    steps=4, runs=6, seed=23, estimators=("with_sensors",), eval_trials_per_point=5
)


def _faulty_env():
    """Runs 1 and 5 retry at step 2, run 2 at step 1; run 5's retry fails
    and run 3's step-1 evaluation cannot be scored."""
    return FaultyEnv(flagged=((1, 2), (2, 1)), hopeless=(5, 2), broken_eval=(3, 1))


def test_faults_stay_with_the_runs_they_hit():
    config = base_config(**FAULT_CONFIG)
    clean = run_learning_curve(SyntheticEnv(junk_sensor_world()), config)
    faulty = run_learning_curve(_faulty_env(), config)
    error = "an evaluation trial could not be scored"
    flagged_error = "insufficient samples: every trial was flagged"
    assert _failed_runs(faulty) == ((3, 1, error), (5, 2, flagged_error))
    (clean_runs, clean_values), (faulty_runs, faulty_values) = map(
        _completed, (clean, faulty)
    )
    assert faulty_runs == (0, 1, 2, 4)
    before, after = _records_by_run(clean), _records_by_run(faulty)
    for run in (0, 4):
        assert repr(after[run]) == repr(before[run])
        assert np.array_equal(
            faulty_values[faulty_runs.index(run)], clean_values[clean_runs.index(run)]
        )
    # The all-flagged learning batches are retried from fresh draws of
    # the same step stream; nothing before them moves.
    for run, step in ((1, 2), (2, 1)):
        assert repr(after[run][:step]) == repr(before[run][:step])
        assert [r.retried for r in after[run]] == [s == step for s in range(4)]
    # The unscorable evaluation replaces that step's record with an error row.
    assert repr(after[3][:1]) == repr(before[3][:1])
    assert after[3][1:] == [
        StepRecord(run=3, step=1, estimator="with_sensors", error=error)
    ]
    # A step whose retry fails too ends the run with the retry's error.
    assert repr(after[5][:2]) == repr(before[5][:2])
    assert after[5][2:] == [
        StepRecord(
            run=5, step=2, estimator="with_sensors", flagged=8, retried=True,
            error=flagged_error,
        )
    ]


class OverflowingEnv:
    """Delegates to a base env, scoring inf every trial whose first policy
    entry passes ``threshold``: a trial that cannot be scored."""

    def __init__(self, base, threshold: float):
        self.base, self.threshold = base, threshold

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        past = trials.policies[:, 0] > self.threshold
        return replace(trials, scores=np.where(past, np.inf, trials.scores))


def test_trials_that_cannot_be_scored_stay_with_the_run_they_hit():
    # At this seed one trial of run 1, and no other run's, passes the
    # threshold at each step: it is flagged in its own row, and every run,
    # run 1 included, steps as it does alone.
    env = OverflowingEnv(SyntheticEnv(junk_sensor_world()), threshold=0.9)
    config = base_config(
        steps=2, runs=4, seed=6, estimators=("with_sensors",), eval_trials_per_point=5,
        step_rule="normalized", learning_rate=0.05,
    )
    by_run = _records_by_run(run_learning_curve(env, config))
    assert {run: [r.flagged for r in records] for run, records in by_run.items()} == {
        0: [0, 0], 1: [1, 1], 2: [0, 0], 3: [0, 0]
    }
    for run in range(config.runs):
        assert repr(by_run[run]) == repr(_stepped_alone(env, config, run)[1])


def test_a_steps_retries_share_one_env_call():
    config = base_config(**FAULT_CONFIG)
    env = _faulty_env()
    faulty = run_learning_curve(env, config)
    # A retry draws its trial streams from child 4 of the step stream.
    retry_calls = [keys for keys in env.calls if (1, 2, LEARN, 4) in keys]
    assert len(retry_calls) == 1
    assert {key[0] for key in retry_calls[0]} == {1, 5}
    assert all(key[1:] == (2, LEARN, 4) for key in retry_calls[0])
    after = _records_by_run(faulty)
    faulty_runs, faulty_values = _completed(faulty)
    for run in (1, 2):
        _, records = _stepped_alone(env, config, run)
        assert repr(after[run]) == repr(records)
        index = faulty_runs.index(run)
        assert np.array_equal(faulty_values[index], [r.eval_mean for r in records])
    # Run 5's retry fails alone as it fails in the shared call.
    _, records = _stepped_alone(env, config, 5)
    assert repr(after[5]) == repr(records)
    assert records[2].error == "insufficient samples: every trial was flagged"
    assert after[5][2].flagged == records[2].flagged == 8


def test_policy_evaluation_reports_mean_and_spread():
    mean, std_error = evaluate_policy(np.array([1.0, 2.0, 3.0, 6.0]))
    assert mean == 3.0
    assert std_error == pytest.approx(np.sqrt(14.0 / 3.0) / 2.0, rel=1e-12)
    mean, std_error = evaluate_policy(np.full(6, -2.5))
    assert (mean, std_error) == (-2.5, 0.0)
    mean, std_error = evaluate_policy(np.array([-4.0]))
    assert mean == -4.0 and np.isnan(std_error)


def test_an_evaluation_whose_scores_overflow_ends_the_run_in_an_error_row():
    class LoudEvaluations:
        """The first (learning) call as the base env gives it; every later
        call scores each trial -1e308, finite alone but not in a sum."""

        def __init__(self, base):
            self.base, self.calls = base, 0

        def sample_trials(self, policies, streams):
            trials = self.base.sample_trials(policies, streams)
            self.calls += 1
            if self.calls == 1:
                return trials
            return replace(trials, scores=np.full(len(trials), -1e308))

    message = "scores too large to evaluate: their mean or spread overflows"
    for scores in (np.full(4, -1e308), np.array([1e200, -1e200])):
        with pytest.raises(EstimationError, match=message):
            evaluate_policy(scores)
    # A score that is already infinite did not overflow in a sum.
    with pytest.raises(EstimationError, match="an evaluation trial could not be scored"):
        evaluate_policy(np.array([-np.inf, -1.0]))
    config = base_config(steps=2, runs=2, eval_trials_per_point=4)
    env = LoudEvaluations(SyntheticEnv(noiseless_world()))
    records = run_learning_curve(env, config)
    assert _failed_runs(records) == ((0, 0, message), (1, 0, message))
    assert len(records) == 2 and env.calls == 2


def test_single_evaluation_trial_records_no_spread():
    config = base_config(eval_trials_per_point=1, steps=1, runs=1)
    (record,) = run_learning_curve(SyntheticEnv(noiseless_world()), config)
    assert np.isnan(record.eval_std_error)


def test_failed_runs_are_recorded_not_raised():
    config = base_config(steps=2, runs=3, seed=9)
    records = run_learning_curve(AllFlagged(SyntheticEnv(noiseless_world())), config)
    assert _completed(records)[0] == ()
    assert len(_failed_runs(records)) == 3
    assert all(step == 0 for _, step, _ in _failed_runs(records))
    assert len(records) == 3
    assert all("every trial was flagged" in record.error for record in records)


def test_flagged_trials_are_dropped_and_counted():
    env = FlaggingEnv(SyntheticEnv(noiseless_world()))
    config = base_config(trials_per_step=16)
    policy = config.initial_policy
    new_policy, record = step_alone(
        env, policy, config, substream(5, 0, 0), step_index=0
    )
    assert record.flagged == 6
    assert np.allclose(new_policy, policy + 0.25 * TRUE_GRADIENT, atol=1e-9)


def test_an_all_flagged_batch_fails_the_step():
    env = AllFlagged(SyntheticEnv(noiseless_world()))
    config = base_config()
    policy = config.initial_policy
    new_policy, record = step_alone(env, policy, config, substream(5, 0, 0))
    assert new_policy.tobytes() == policy.tobytes()
    assert record.error == "insufficient samples: every trial was flagged"
    assert record.flagged == config.trials_per_step
    assert record.retried is True
    assert np.isnan(record.gradient_norm)


def test_a_step_that_flagging_fails_reports_its_flagged_trials():
    # The dart arm held at its start posture throws few darts forward:
    # most trials are flagged, too few remain for the regression, and
    # the failed step's row must say how many were flagged.
    _, settings = PREFIX_CASES["dart"]
    settings = {**settings, "initial_policy": np.repeat([1.9, 2.0, 0.6], 3)}
    config = base_config(steps=1, runs=1, seed=16, eval_trials_per_point=2, **settings)
    records = run_learning_curve(tiny_dart_env(), config)
    (record,) = records
    assert _failed_runs(records) and record.error.startswith("insufficient samples")
    assert record.flagged > 0
    assert f"n={config.trials_per_step - record.flagged} <" in record.error


def test_uninformative_sensors_give_no_systematic_edge():
    world = junk_sensor_world()
    settings = dict(
        initial_policy=np.zeros(2),
        trials_per_step=10,
        exploration_cov=0.25 * np.eye(2),
        steps=4,
        runs=50,
        seed=2027,
        step_rule="fixed_rate",
        learning_rate=0.05,
        eval_trials_per_point=20,
    )
    estimators = ("ignore_sensors", "with_sensors")
    records = run_learning_curve(
        SyntheticEnv(world), SearchConfig(**settings, estimators=estimators)
    )
    plain, joint = (
        [record for record in records if record.estimator == name] for name in estimators
    )
    (plain_runs, plain_values), (joint_runs, joint_values) = map(
        _completed, (plain, joint)
    )
    assert plain_runs == joint_runs
    result = stats.ttest_rel(joint_values[:, -1], plain_values[:, -1])
    assert result.pvalue > 0.05


def test_encoding_estimator_steps_and_reports_projection_cost():
    env = SyntheticEnv(informative_sensor_world())
    config = base_config(
        initial_policy=np.zeros(2),
        trials_per_step=10,
        exploration_cov=0.25 * np.eye(2),
        estimators=("with_encoding",),
        encode_trials_per_step=12,
        encoding=EncodingSearchConfig(target_dim=1, max_iterations=20),
        seed=31,
    )
    policy = config.initial_policy
    new_policy, record = step_alone(
        env, policy, config, substream(31, 0, 0), step_index=0
    )
    assert np.isfinite(record.loo_cost)
    assert np.all(np.isfinite(new_policy))
    assert np.linalg.norm(new_policy - policy) > 0.0
