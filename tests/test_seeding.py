import numpy as np

from sensorgrad.seeding import (
    ENCODE,
    EVAL,
    LEARN,
    PRETRAIN,
    VARIANCE,
    children,
    psd_sqrt,
    substream,
)


def test_stream_tags_are_distinct():
    tags = [LEARN, EVAL, PRETRAIN, ENCODE, VARIANCE]
    assert len(set(tags)) == len(tags)


def test_substream_is_reproducible():
    a = substream(17, 3, 2, LEARN).standard_normal(8)
    b = substream(17, 3, 2, LEARN).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_paths_are_independent_addresses():
    base = substream(17, 3, 2, LEARN).standard_normal(8)
    # consuming other paths first must not shift this one
    substream(17, 0, 0, LEARN).standard_normal(100)
    substream(17, 3, 2, EVAL).standard_normal(100)
    again = substream(17, 3, 2, LEARN).standard_normal(8)
    assert np.array_equal(base, again)


def test_substream_differs_across_paths_and_seeds():
    a = substream(17, 3, 2, LEARN).standard_normal(8)
    b = substream(17, 3, 2, EVAL).standard_normal(8)
    c = substream(18, 3, 2, LEARN).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_children_are_reproducible_and_distinct():
    streams = children(substream(5, 1), 4)
    again = children(substream(5, 1), 4)
    draws = [s.standard_normal(6) for s in streams]
    redraws = [s.standard_normal(6) for s in again]
    for d, r in zip(draws, redraws):
        assert np.array_equal(d, r)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_children_continue_the_spawn_sequence():
    parent = substream(5, 1)
    first = children(parent, 2)
    second = children(parent, 1)
    fresh = children(substream(5, 1), 3)
    draws = [s.standard_normal(4) for s in first + second]
    redraws = [s.standard_normal(4) for s in fresh]
    for d, r in zip(draws, redraws):
        assert np.array_equal(d, r)


def test_psd_sqrt_reproduces_the_covariance():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.2], [0.0, -0.2, 0.5]])
    root = psd_sqrt(cov)
    assert np.allclose(root @ root.T, cov, atol=1e-12)


def test_psd_sqrt_handles_rank_deficiency():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    root = psd_sqrt(cov)
    assert np.allclose(root @ root.T, cov, atol=1e-12)
