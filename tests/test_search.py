"""Hill-climbing search: step rules, retries, aggregation, lockstep runs."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sensorgrad.envs.cannon import CannonEnv, CannonWorld, cannon_true_value
from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import EstimationError, NoiseSpec, PolicyDomainError
from sensorgrad.search import (
    SearchConfig,
    StepRecord,
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
        offset=0.3,
        noise=NoiseSpec(output_variance=0.0, sensor_cov=np.zeros((2, 2))),
    )


def junk_sensor_world() -> SyntheticWorld:
    """Sensors fluctuate but carry no score information (zero slope)."""
    return SyntheticWorld(
        true_gradient=TRUE_GRADIENT,
        sensor_slope=np.zeros(2),
        offset=0.0,
        noise=NoiseSpec(output_variance=0.09, sensor_cov=0.5 * np.eye(2)),
    )


def informative_sensor_world() -> SyntheticWorld:
    return SyntheticWorld(
        true_gradient=TRUE_GRADIENT,
        sensor_slope=np.array([0.8, -1.2]),
        offset=0.1,
        noise=NoiseSpec(
            output_variance=0.01,
            sensor_cov=np.array([[0.2, -0.05], [-0.05, 0.4]]),
        ),
    )


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


class FlakyEnv:
    """Delegates to a base env, failing the first ``failures`` batch calls."""

    def __init__(self, base, failures: int):
        self.base = base
        self.remaining = failures

    def sample_trials(self, policies, streams):
        if self.remaining > 0:
            self.remaining -= 1
            raise EstimationError("transient failure")
        return self.base.sample_trials(policies, streams)


class BrokenEnv:
    """Passes every domain check, then fails every simulation."""

    def check_policies(self, policies):
        return policies

    def sample_trials(self, policies, streams):
        raise PolicyDomainError("policy left the feasible set")


class FlaggingEnv:
    """Flags every third trial of the base env."""

    def __init__(self, base):
        self.base = base

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        return replace(trials, flagged=np.arange(len(trials)) % 3 == 0)


def test_exploration_samples_match_the_requested_moments():
    policy = np.array([1.0, -2.0, 0.5])
    cov = np.array([[0.4, 0.1, 0.0], [0.1, 0.3, -0.05], [0.0, -0.05, 0.2]])
    draws = sample_exploration_policies(policy, cov, 40000, substream(101))
    assert draws.shape == (40000, 3)
    assert np.allclose(draws.mean(axis=0), policy, atol=0.02)
    assert np.allclose(np.cov(draws.T), cov, atol=0.02)
    again = sample_exploration_policies(policy, cov, 40000, substream(101))
    assert np.array_equal(draws, again)
    with pytest.raises(ValueError, match="positive"):
        sample_exploration_policies(policy, cov, 0, substream(101))


def test_fixed_rate_step_moves_by_rate_times_gradient():
    env = SyntheticEnv(noiseless_world())
    config = base_config()
    policy = config.initial_policy
    new_policy, record = hill_climb_step(
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
    first, _ = hill_climb_step(env, policy, config, substream(7, 0), step_index=0)
    fourth, _ = hill_climb_step(env, policy, config, substream(7, 1), step_index=3)
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
        offset=1.0,
        noise=NoiseSpec(output_variance=0.0, sensor_cov=np.zeros((2, 2))),
    )
    config = base_config(step_rule="normalized")
    policy = config.initial_policy
    new_policy, record = hill_climb_step(
        SyntheticEnv(flat), policy, config, substream(9, 0), step_index=0
    )
    assert np.array_equal(new_policy, policy)
    assert record.gradient_norm == 0.0
    assert record.mean_trial_score == pytest.approx(1.0)


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
        policy, _ = hill_climb_step(
            env, policy, config, substream(13, 0, step, 0), step_index=step
        )
    assert cannon_true_value(env.world, policy, seed=99) > start


def test_zero_steps_gives_an_empty_curve():
    config = base_config(steps=0, runs=2, seed=3)
    curve = run_learning_curve(SyntheticEnv(noiseless_world()), config)
    assert curve.mean_values.shape == (0,)
    assert curve.std_errors.shape == (0,)
    assert curve.run_values.shape == (2, 0)
    assert curve.completed_runs == 2
    assert curve.run_indices == (0, 1)
    assert curve.failed_runs == ()
    assert curve.diagnostics == ()


def _records_by_run(curve):
    by_run = {}
    for record in curve.diagnostics:
        by_run.setdefault(record.run, []).append(record)
    return by_run


PREFIX_CASES = {
    "cannon": (
        lambda: CannonEnv(CannonWorld()),
        dict(
            initial_policy=np.array([16.0, np.pi / 4.0]),
            exploration_cov=np.diag([0.25, 0.0025]),
            estimator="with_sensors",
            step_rule="normalized",
            learning_rate=0.05,
        ),
    ),
    "synthetic": (
        lambda: SyntheticEnv(informative_sensor_world()),
        dict(
            initial_policy=np.zeros(2),
            exploration_cov=0.25 * np.eye(2),
            estimator="with_encoding",
            encode_trials_per_step=12,
            encode_max_iterations=10,
            encode_restarts=1,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_a_run_does_not_depend_on_the_runs_beside_it(case):
    make_env, settings = PREFIX_CASES[case]
    config = base_config(steps=3, runs=2, seed=17, trials_per_step=10, **settings)
    few = run_learning_curve(make_env(), config)
    many = run_learning_curve(make_env(), replace(config, runs=5))
    assert few.run_indices == (0, 1) and many.run_indices == (0, 1, 2, 3, 4)
    assert np.array_equal(few.run_values, many.run_values[:2])
    # loo_cost is NaN outside the encoding estimator, so compare reprs.
    prefix = tuple(r for r in many.diagnostics if r.run < 2)
    assert repr(few.diagnostics) == repr(prefix)
    again = run_learning_curve(make_env(), config)
    assert repr(few.diagnostics) == repr(again.diagnostics)


def _stepped_alone(env, config, run):
    """Policies and evaluations of one run stepped without the lockstep driver."""
    policy = config.initial_policy
    stepped, means = [], []
    for step in range(config.steps):
        policy, _ = hill_climb_step(
            env, policy, config, substream(config.seed, run, step, LEARN),
            step_index=step,
        )
        mean, _ = evaluate_policy(
            env, policy, config.eval_trials_per_point,
            substream(config.seed, run, step, EVAL),
        )
        stepped.append(policy)
        means.append(mean)
    return stepped, means


def test_lockstep_runs_match_runs_stepped_alone():
    env = SyntheticEnv(junk_sensor_world())
    config = base_config(
        steps=3, runs=3, seed=19, estimator="with_sensors", eval_trials_per_point=5
    )
    curve = run_learning_curve(env, config)
    for run in range(config.runs):
        _, means = _stepped_alone(env, config, run)
        assert np.array_equal(curve.run_values[run], means)


class FaultyEnv:
    """Junk-sensor synthetic env with faults aimed at chosen runs.

    ``infeasible`` (run, step): that run's first learning batch fails the
    domain check; the batch is recognised by its first exploration
    policy, derived from the run's seed path the way the search derives
    it.  ``flagged`` (run, step): that run's first learning batch comes
    back all flagged, recognised by its trial streams' seed path.
    ``broken_eval``: a policy whose evaluation batch fails the domain
    check.
    """

    def __init__(self, config, policies, infeasible, flagged, broken_eval):
        self.base = SyntheticEnv(junk_sensor_world())
        run, step = infeasible
        explore_rng = children(substream(config.seed, run, step, LEARN), 3)[0]
        self.infeasible_row = sample_exploration_policies(
            policies[run][step - 1], config.exploration_cov, 1, explore_rng
        )[0]
        self.flagged_key = (*flagged, LEARN, 1)
        self.broken_eval = broken_eval

    def check_policies(self, policies):
        policies = self.base.check_policies(policies)
        if np.array_equal(policies[0], self.infeasible_row) or np.array_equal(
            policies, np.tile(self.broken_eval, (policies.shape[0], 1))
        ):
            raise PolicyDomainError("policy left the feasible set")
        return policies

    def sample_trials(self, policies, streams):
        trials = self.base.sample_trials(policies, streams)
        keys = [s.bit_generator.seed_seq.spawn_key[:4] for s in streams]
        return replace(trials, flagged=[key == self.flagged_key for key in keys])


def test_faults_stay_with_the_runs_they_hit():
    config = base_config(
        steps=4, runs=5, seed=23, estimator="with_sensors", eval_trials_per_point=5
    )
    clean = run_learning_curve(SyntheticEnv(junk_sensor_world()), config)
    policies = [
        _stepped_alone(SyntheticEnv(junk_sensor_world()), config, run)[0]
        for run in range(config.runs)
    ]
    env = FaultyEnv(
        config, policies, infeasible=(1, 2), flagged=(2, 1),
        broken_eval=policies[3][1],
    )
    faulty = run_learning_curve(env, config)
    error = "policy left the feasible set"
    assert faulty.failed_runs == ((3, 1, error),)
    assert faulty.run_indices == (0, 1, 2, 4)
    before, after = _records_by_run(clean), _records_by_run(faulty)
    for run in (0, 4):
        assert repr(after[run]) == repr(before[run])
        assert np.array_equal(
            faulty.run_values[faulty.run_indices.index(run)], clean.run_values[run]
        )
    # The infeasible and the all-flagged learning batches are retried
    # from fresh draws of the same step stream; nothing before them moves.
    for run, step in ((1, 2), (2, 1)):
        assert repr(after[run][:step]) == repr(before[run][:step])
        assert [r.retried for r in after[run]] == [s == step for s in range(4)]
    # The broken evaluation replaces that step's record with an error row.
    assert repr(after[3][:1]) == repr(before[3][:1])
    assert after[3][1:] == [
        StepRecord(run=3, step=1, estimator="with_sensors", error=error)
    ]


def test_policy_evaluation_reports_mean_and_spread():
    quiet = CannonWorld(
        control_noise_cov=np.zeros((2, 2)), sensor_noise_cov=np.zeros((2, 2))
    )
    env = CannonEnv(quiet)
    policy = np.array([16.0, np.pi / 4.0])
    expected = -((16.0**2 / 9.8 - 400.0 / 9.8) ** 2)
    mean, std_error = evaluate_policy(env, policy, 6, substream(21))
    assert mean == pytest.approx(expected, rel=1e-12)
    # identical scores; the residual is np.std rounding, not spread
    assert std_error == pytest.approx(0.0, abs=1e-10)
    single_mean, single_se = evaluate_policy(env, policy, 1, substream(22))
    assert single_mean == pytest.approx(expected, rel=1e-12)
    assert single_se is None
    with pytest.raises(ValueError, match="positive"):
        evaluate_policy(env, policy, 0, substream(23))


def test_single_evaluation_trial_records_no_spread():
    config = base_config(eval_trials_per_point=1, steps=1, runs=1)
    curve = run_learning_curve(SyntheticEnv(noiseless_world()), config)
    assert np.isnan(curve.diagnostics[0].eval_std_error)
    assert curve.std_errors.shape == (1,)
    assert curve.std_errors[0] == 0.0


def test_one_transient_failure_is_retried():
    env = FlakyEnv(SyntheticEnv(noiseless_world()), failures=1)
    config = base_config()
    policy = config.initial_policy
    new_policy, record = hill_climb_step(
        env, policy, config, substream(5, 0, 0), step_index=0
    )
    assert record.retried is True
    assert np.allclose(new_policy, policy + 0.25 * TRUE_GRADIENT, atol=1e-9)


def test_a_second_failure_propagates():
    env = FlakyEnv(SyntheticEnv(noiseless_world()), failures=2)
    config = base_config()
    with pytest.raises(EstimationError, match="transient"):
        hill_climb_step(env, config.initial_policy, config, substream(5, 0, 0))


def test_failed_runs_are_recorded_not_raised():
    config = base_config(steps=2, runs=3, seed=9)
    curve = run_learning_curve(BrokenEnv(), config)
    assert curve.completed_runs == 0
    assert len(curve.failed_runs) == 3
    assert all(step == 0 for _, step, _ in curve.failed_runs)
    assert np.all(np.isnan(curve.mean_values))
    assert len(curve.diagnostics) == 3
    assert all("feasible" in record.error for record in curve.diagnostics)


def test_flagged_trials_are_dropped_and_counted():
    env = FlaggingEnv(SyntheticEnv(noiseless_world()))
    config = base_config(trials_per_step=16)
    policy = config.initial_policy
    new_policy, record = hill_climb_step(
        env, policy, config, substream(5, 0, 0), step_index=0
    )
    assert record.flagged == 6
    assert np.allclose(new_policy, policy + 0.25 * TRUE_GRADIENT, atol=1e-9)


def test_an_all_flagged_batch_fails_the_step():
    class AllFlagged:
        def __init__(self, base):
            self.base = base

        def sample_trials(self, policies, streams):
            trials = self.base.sample_trials(policies, streams)
            return replace(trials, flagged=np.ones(len(trials), dtype=bool))

    env = AllFlagged(SyntheticEnv(noiseless_world()))
    config = base_config()
    with pytest.raises(EstimationError, match="flagged"):
        hill_climb_step(env, config.initial_policy, config, substream(5, 0, 0))


def test_search_config_rejects_bad_settings():
    base = dict(
        initial_policy=np.zeros(2),
        trials_per_step=8,
        exploration_cov=np.eye(2),
        steps=1,
        runs=1,
        seed=0,
    )
    with pytest.raises(ValueError, match="estimator"):
        SearchConfig(**base, estimator="scores_only")
    with pytest.raises(ValueError, match="step rule"):
        SearchConfig(**base, step_rule="adam")
    with pytest.raises(ValueError, match="learning rate"):
        SearchConfig(**base, learning_rate=0.0)
    with pytest.raises(ValueError, match="d x d"):
        SearchConfig(**{**base, "exploration_cov": np.eye(3)})
    with pytest.raises(ValueError, match="symmetric"):
        SearchConfig(**{**base, "exploration_cov": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ValueError, match="positive definite"):
        SearchConfig(**{**base, "exploration_cov": np.diag([1.0, 0.0])})
    with pytest.raises(ValueError, match="trials_per_step"):
        SearchConfig(**{**base, "trials_per_step": 0})
    with pytest.raises(ValueError, match="encode_restarts"):
        SearchConfig(**base, encode_restarts=0)
    with pytest.raises(ValueError, match="encode_max_iterations"):
        SearchConfig(**base, encode_max_iterations=-1)


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
    plain = run_learning_curve(
        SyntheticEnv(world),
        SearchConfig(**settings, estimator="ignore_sensors"),
    )
    joint = run_learning_curve(
        SyntheticEnv(world),
        SearchConfig(**settings, estimator="with_sensors"),
    )
    assert plain.run_indices == joint.run_indices
    result = stats.ttest_rel(joint.run_values[:, -1], plain.run_values[:, -1])
    assert result.pvalue > 0.05


def test_encoding_estimator_steps_and_reports_projection_cost():
    env = SyntheticEnv(informative_sensor_world())
    config = base_config(
        initial_policy=np.zeros(2),
        trials_per_step=10,
        exploration_cov=0.25 * np.eye(2),
        estimator="with_encoding",
        encoding_dim=1,
        encode_max_iterations=20,
        encode_restarts=2,
        seed=31,
    )
    policy = config.initial_policy
    new_policy, record = hill_climb_step(
        env, policy, config, substream(31, 0, 0), step_index=0
    )
    assert np.isfinite(record.loo_cost)
    assert np.all(np.isfinite(new_policy))
    dedicated = replace(config, encode_trials_per_step=12)
    other_policy, other_record = hill_climb_step(
        env, policy, dedicated, substream(31, 0, 0), step_index=0
    )
    assert np.isfinite(other_record.loo_cost)
    assert np.all(np.isfinite(other_policy))
    # The dedicated search batch consumes different streams, so the two
    # variants are allowed to disagree; both must still step somewhere.
    assert np.linalg.norm(other_policy - policy) > 0.0
