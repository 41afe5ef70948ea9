from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorgrad.envs.synthetic import SyntheticEnv, SyntheticWorld
from sensorgrad.estimators import (
    EstimationError,
    TrialBatch,
    estimate_g1,
    estimate_g2,
    predicted_bias_g2,
    predicted_variance_g1,
    predicted_variance_g2,
)
from sensorgrad import experiments
from sensorgrad.experiments import replicate_gradients
from sensorgrad.search import sample_exploration_policies
from sensorgrad.seeding import EVAL, LEARN, VARIANCE, children, substream

TRUE_GRADIENT = np.array([1.5, -0.7])
SENSOR_SLOPE = np.array([0.8, -1.2])
SENSOR_COV = np.array([[0.2, -0.05], [-0.05, 0.4]])
EXPLORATION_COV = np.array([[0.5, 0.1], [0.1, 0.3]])
OUTPUT_VARIANCE = 0.09
COUPLING = np.array([[0.6, -0.3], [0.2, 0.5]])


def make_world(coupling=None, output_variance=OUTPUT_VARIANCE):
    return SyntheticWorld(
        TRUE_GRADIENT, SENSOR_SLOPE, output_variance, SENSOR_COV, coupling
    )


def zero_mean_batch(env, n, rep, seed):
    policies = sample_exploration_policies(
        np.zeros(2), EXPLORATION_COV, n, substream(seed, rep, LEARN)
    )
    return env.sample_trials(policies, children(substream(seed, rep, EVAL), n))


def mc_gradients(env, n, reps, seed):
    return replicate_gradients(env, EXPLORATION_COV, n, reps, seed)


def test_trial_record_rejects_nonfinite_score():
    # A trial's record is its row in the batch; one non-finite score refuses the batch.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TrialBatch(np.zeros((1, 2)), [bad], np.empty((1, 0)))
        with pytest.raises(ValueError, match="finite"):
            TrialBatch(np.zeros((3, 2)), [0.0, bad, 1.0], np.empty((3, 0)))


def test_batch_validation():
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(3), np.empty((3, 0)))
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(2), sensors=np.zeros(2))
    with pytest.raises(ValueError, match="one entry per trial"):
        TrialBatch(np.zeros((2, 2)), np.zeros(2), np.empty((2, 0)), flagged=[True])
    batch = TrialBatch(np.arange(6.0).reshape(3, 2), np.arange(3.0), np.eye(3))
    assert len(batch) == batch.size == 3
    assert not batch.flagged.any()
    picked = batch.rows(np.array([True, False, True]))
    assert np.array_equal(picked.policies, [[0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(picked.sensors, np.eye(3)[[0, 2]])
    assert np.array_equal(batch.rows(slice(1, None)).scores, [1.0, 2.0])
    encoded = replace(batch, sensors=np.ones((3, 1)))
    assert np.array_equal(encoded.sensors, np.ones((3, 1)))
    assert encoded.policies is batch.policies


@pytest.mark.parametrize(
    "index",
    [np.array([True, False, True, True]), slice(1, 3), np.array([3, 0, 2])],
    ids=["mask", "slice", "indices"],
)
def test_rows_equal_a_batch_built_from_the_sliced_arrays(index):
    rng = np.random.default_rng(12)
    policies, scores = rng.normal(size=(4, 2)), rng.normal(size=4)
    sensors, flagged = rng.normal(size=(4, 3)), np.array([False, True, False, True])
    picked = TrialBatch(policies, scores, sensors, flagged).rows(index)
    built = TrialBatch(policies[index], scores[index], sensors[index], flagged[index])
    assert len(picked) == len(built)
    for name in ("policies", "scores", "sensors", "flagged"):
        got, want = getattr(picked, name), getattr(built, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    unsensed = TrialBatch(policies, scores, np.empty((4, 0))).rows(index)
    assert unsensed.sensors.shape == (len(built), 0)
    with pytest.raises(ValueError, match="trial score must be finite"):
        TrialBatch(policies[index], np.full(len(built), np.nan), sensors[index])


def test_estimators_require_enough_samples():
    policies = np.array([[float(i), 0.5 * i] for i in range(3)])
    batch = TrialBatch(policies, np.arange(3.0), np.full((3, 1), 0.1))
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g1(batch)
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g2(batch)


@pytest.mark.parametrize("center", [True, False])
def test_scores_whose_sum_overflows_are_refused_by_name(center):
    # Each score is finite, but no regression can center them.
    policies = np.arange(12.0).reshape(6, 2) ** 2
    loud = TrialBatch(policies, np.full(6, -1e308), np.ones((6, 1)))
    for estimate in (estimate_g1, estimate_g2):
        with pytest.raises(EstimationError, match="scores too large to regress"):
            estimate(loud, center=center)
    # One replication whose sum overflows refuses the whole stack.
    scores = np.stack([np.linspace(-1.0, 1.0, 6), loud.scores])
    stack = TrialBatch(np.stack([policies] * 2), scores, np.zeros((2, 6, 0)))
    with pytest.raises(EstimationError, match="their sum overflows"):
        estimate_g1(stack, center=center)


def test_g1_exact_on_noiseless_linear_scores():
    rng = substream(21)
    policies = rng.normal(size=(8, 2))
    scores = policies @ TRUE_GRADIENT + 2.0
    estimate = estimate_g1(TrialBatch(policies, scores, np.empty((8, 0))))
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-10)
    assert estimate.offset == pytest.approx(2.0, abs=1e-10)


def test_g2_exact_at_minimal_sample_size_without_output_noise():
    # with zero direct noise the joint fit interpolates the score
    # equation and returns its policy coefficient exactly
    env = SyntheticEnv(make_world(output_variance=0.0))
    n = 2 + 2 + 2
    batch = zero_mean_batch(env, n, 0, seed=33)
    batch = replace(batch, scores=batch.scores + 1.5)
    estimate = estimate_g2(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-8)
    assert np.allclose(estimate.sensor_coefficients, SENSOR_SLOPE, atol=1e-8)


def test_g2_removes_sensor_explained_noise():
    env = SyntheticEnv(make_world())
    g1, g2 = mc_gradients(env, n=12, reps=2000, seed=11)
    err1 = np.mean(np.sum((g1 - TRUE_GRADIENT) ** 2, axis=1))
    err2 = np.mean(np.sum((g2 - TRUE_GRADIENT) ** 2, axis=1))
    assert err2 < 0.25 * err1


def test_variance_laws_match_monte_carlo():
    world = make_world()
    env = SyntheticEnv(world)
    n = 12
    g1, g2 = mc_gradients(env, n, reps=4000, seed=11)
    law1 = predicted_variance_g1(world, EXPLORATION_COV, n)
    law2 = predicted_variance_g2(world, EXPLORATION_COV, n)
    rel1 = np.linalg.norm(np.cov(g1.T) - law1) / np.linalg.norm(law1)
    rel2 = np.linalg.norm(np.cov(g2.T) - law2) / np.linalg.norm(law2)
    assert rel1 < 0.15
    assert rel2 < 0.15


def test_correlated_world_bias_and_variance_laws():
    coupling = COUPLING
    world = make_world(coupling=coupling)
    env = SyntheticEnv(world)
    n = 12
    reps = 4000
    g1, g2 = mc_gradients(env, n, reps=reps, seed=45)

    bias = predicted_bias_g2(world)
    assert np.allclose(bias, coupling @ SENSOR_SLOPE)
    se1 = g1.std(axis=0, ddof=1) / np.sqrt(reps)
    se2 = g2.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(g1.mean(axis=0) - TRUE_GRADIENT) < 4.0 * se1)
    assert np.all(np.abs(g2.mean(axis=0) - (TRUE_GRADIENT + bias)) < 4.0 * se2)

    law = predicted_variance_g2(world, EXPLORATION_COV, n)
    rel = np.linalg.norm(np.cov(g2.T) - law) / np.linalg.norm(law)
    assert rel < 0.15


def block_worlds():
    """The plain and the coupled variance-check world."""
    plain = SyntheticEnv(make_world())
    coupled = SyntheticEnv(make_world(coupling=COUPLING))
    return {"plain": plain, "coupled": coupled}


@pytest.mark.parametrize("world", ["plain", "coupled"])
def test_replications_are_the_leading_rows_of_a_longer_check(world):
    env = block_worlds()[world]
    reps = experiments.REPLICATION_CHUNK + 37
    short = mc_gradients(env, 12, reps, seed=71)
    long = mc_gradients(env, 12, 2 * reps, seed=71)
    for few, many in zip(short, long):
        assert np.array_equal(few, many[:reps])


@pytest.mark.parametrize("world", ["plain", "coupled"])
def test_replications_do_not_depend_on_the_chunk_size(monkeypatch, world):
    env = block_worlds()[world]
    results = []
    for chunk in (1, 7, 512, 1300):
        monkeypatch.setattr(experiments, "REPLICATION_CHUNK", chunk)
        results.append(mc_gradients(env, 12, 600, seed=72))
    for g1, g2 in results[1:]:
        assert np.array_equal(g1, results[0][0])
        assert np.array_equal(g2, results[0][1])


@pytest.mark.parametrize("world", ["plain", "coupled"])
def test_stacked_replications_equal_one_fit_per_replication(world):
    env = block_worlds()[world]
    n, reps, seed = 12, 40, 73
    g1, g2 = mc_gradients(env, n, reps, seed)
    # The same draws as replicate_gradients, then one 2-D batch each.
    policies = sample_exploration_policies(
        np.zeros(2), EXPLORATION_COV, n * reps, substream(seed, VARIANCE, LEARN)
    )
    trials = env.sample_trials(policies, substream(seed, VARIANCE, EVAL))
    for r in range(reps):
        batch = trials.rows(slice(r * n, (r + 1) * n))
        assert np.array_equal(estimate_g1(batch, center=False).gradient, g1[r])
        assert np.array_equal(estimate_g2(batch, center=False).gradient, g2[r])


def test_stacked_batch_shape_checks():
    rng = np.random.default_rng(13)
    policies, scores = rng.normal(size=(3, 5, 2)), rng.normal(size=(3, 5))
    sensors = rng.normal(size=(3, 5, 1))
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(policies[:2], scores, sensors)
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(policies, scores, sensors[:2])
    with pytest.raises(ValueError, match="one row per trial"):
        TrialBatch(policies[0], scores, sensors)
    with pytest.raises(ValueError, match="one entry per trial"):
        TrialBatch(policies, scores, sensors, flagged=np.zeros(5, dtype=bool))
    with pytest.raises(ValueError, match="scores must be"):
        TrialBatch(policies[None], scores[None], sensors[None])
    stack = TrialBatch(policies, scores, sensors)
    assert (len(stack), stack.size, stack.policy_dim) == (5, 5, 2)
    assert stack.flagged.shape == (3, 5) and not stack.flagged.any()
    # rows picks the same trials of every replication.
    picked = stack.rows(np.array([True, False, True, True, False]))
    assert np.array_equal(picked.policies, policies[:, [0, 2, 3]])
    assert np.array_equal(picked.scores, scores[:, [0, 2, 3]])
    assert np.array_equal(picked.sensors, sensors[:, [0, 2, 3]])
    for center in (True, False):
        g1 = estimate_g1(stack, center=center)
        g2 = estimate_g2(stack, center=center)
        assert g1.gradient.shape == g2.gradient.shape == (3, 2)
        assert g1.sensor_coefficients is None
        assert g2.sensor_coefficients.shape == (3, 1)
        assert np.shape(g2.offset) == np.shape(g2.residual_variance) == (3,)
        for r in range(3):
            batch = TrialBatch(policies[r], scores[r], sensors[r])
            alone = estimate_g2(batch, center=center)
            assert np.array_equal(alone.gradient, g2.gradient[r])
            assert alone.offset == g2.offset[r]
            assert alone.residual_variance == g2.residual_variance[r]


def test_correlated_law_reduces_to_independent_when_uncoupled():
    plain = np.linalg.inv(EXPLORATION_COV) * OUTPUT_VARIANCE / (12 - 2 - 2 - 1)
    for sensor_cov in (SENSOR_COV, np.zeros((2, 2))):
        for coupling in (None, np.zeros((2, 2))):
            world = SyntheticWorld(
                TRUE_GRADIENT, SENSOR_SLOPE, OUTPUT_VARIANCE, sensor_cov, coupling
            )
            law = predicted_variance_g2(world, EXPLORATION_COV, 12)
            assert np.allclose(law, plain, atol=1e-12)
    # A singular sensor covariance only matters once the sensors are coupled.
    coupled = SyntheticWorld(
        TRUE_GRADIENT, SENSOR_SLOPE, OUTPUT_VARIANCE, np.zeros((2, 2)), np.eye(2)
    )
    with pytest.raises(EstimationError, match="degenerate coupling"):
        predicted_variance_g2(coupled, EXPLORATION_COV, 12)


def test_predicted_bias_is_zero_without_a_coupling():
    for coupling in (None, np.zeros((2, 2))):
        bias = predicted_bias_g2(make_world(coupling=coupling))
        assert np.array_equal(bias, np.zeros(2))


def test_variance_laws_reject_degenerate_dof():
    world = make_world()
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g1(world, EXPLORATION_COV, 3)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2(world, EXPLORATION_COV, 5)
    with pytest.raises(EstimationError, match="variance undefined"):
        predicted_variance_g2(make_world(COUPLING), EXPLORATION_COV, 5)


@st.composite
def law_cases(draw):
    """A world with 1-3 policy and sensor dimensions, a PD sensor
    covariance and no, a zero or a random coupling, and an SPD
    exploration covariance."""
    d, d_s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spd(k):
        shape = rng.normal(size=(k, k))
        return shape @ shape.T + 0.1 * np.eye(k)

    coupling = draw(st.sampled_from([None, 0.0, 1.0]))
    if coupling is not None:
        coupling = coupling * rng.normal(size=(d, d_s))
    world = SyntheticWorld(
        rng.normal(size=d), rng.normal(size=d_s), rng.uniform(), spd(d_s), coupling
    )
    return world, spd(d)


@settings(max_examples=80, deadline=None)
@given(law_cases(), st.integers(0, 20))
def test_variance_laws_are_symmetric_positive_semidefinite(case, spare):
    world, exploration_cov = case
    n = world.policy_dim + world.sensor_dim + 2 + spare
    laws = (predicted_variance_g1, predicted_variance_g2)
    for law in laws:
        cov = law(world, exploration_cov, n)
        assert np.array_equal(cov, cov.T)
        scale = np.max(np.abs(cov))
        assert np.linalg.eigvalsh(cov)[0] >= -1e-12 * scale
    if world.policy_sensor_coupling is not None and not world.coupled:
        # A zero coupling is no coupling, bit for bit.
        uncoupled = replace(world, policy_sensor_coupling=None)
        for law in laws:
            assert np.array_equal(
                law(world, exploration_cov, n), law(uncoupled, exploration_cov, n)
            )
        assert np.array_equal(predicted_bias_g2(world), predicted_bias_g2(uncoupled))


def test_centered_estimators_tolerate_offsets_and_sensor_means():
    env = SyntheticEnv(make_world(output_variance=0.0))
    nominal = np.array([2.0, -1.5])
    policies = sample_exploration_policies(
        nominal, EXPLORATION_COV, 10, substream(51, LEARN)
    )
    trials = env.sample_trials(policies, children(substream(51, EVAL), 10))
    # Shift the readings to a nonzero mean, the score with them and by
    # an intercept.
    mean = np.array([3.0, -1.0])
    sensed = trials.sensors + mean
    batch = TrialBatch(policies, trials.scores - 4.0 + mean @ SENSOR_SLOPE, sensed)
    estimate = estimate_g2(batch)
    assert np.allclose(estimate.gradient, TRUE_GRADIENT, atol=1e-8)


@st.composite
def full_rank_batches(draw):
    """A batch of random policies, sensors and scores with n >= d + d_s + 2."""
    d = draw(st.integers(1, 4))
    ds = draw(st.integers(0, 4))
    n = d + ds + 2 + draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(scale=5.0, size=d + ds + 1)
    policies = rng.normal(size=(n, d)) + shift[:d]
    sensors = rng.normal(size=(n, ds)) + shift[d:-1]
    return TrialBatch(policies, rng.normal(size=n) + shift[-1], sensors)


@settings(max_examples=80, deadline=None)
@given(full_rank_batches(), st.booleans(), st.booleans())
def test_estimators_match_a_least_squares_fit_with_a_column_of_ones(
    batch, joint, center
):
    design = batch.policies
    if joint:
        design = np.concatenate([design, batch.sensors], axis=1)
    n, p = design.shape
    assume(np.linalg.cond(design - design.mean(axis=0)) < 1e6)
    # Centered fits carry an offset: the reference adds a column of ones.
    # Uncentered fits go through the origin.
    reference = np.concatenate([design, np.ones((n, 1))], axis=1) if center else design
    coef, _, _, _ = np.linalg.lstsq(reference, batch.scores, rcond=None)
    residuals = batch.scores - reference @ coef
    offset = coef[p] if center else 0.0
    estimate = (estimate_g2 if joint else estimate_g1)(batch, center=center)
    d = batch.policy_dim
    assert np.allclose(estimate.gradient, coef[:d], rtol=1e-10, atol=1e-10)
    if joint:
        assert np.allclose(
            estimate.sensor_coefficients, coef[d:p], rtol=1e-10, atol=1e-10
        )
    else:
        assert estimate.sensor_coefficients is None
    assert estimate.offset == pytest.approx(offset, rel=1e-10, abs=1e-10)
    dof = n - p - 1
    if dof > 0:
        assert estimate.residual_variance == pytest.approx(
            residuals @ residuals / dof, rel=1e-10, abs=1e-10
        )
    else:
        assert estimate.residual_variance is None
