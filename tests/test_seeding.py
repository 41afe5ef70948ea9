import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorgrad.seeding import (
    ENCODE,
    EVAL,
    LEARN,
    PRETRAIN,
    VARIANCE,
    child,
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


def _same_draws(a, b) -> bool:
    return np.array_equal(a.standard_normal(4), b.standard_normal(4))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    path=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    count=st.integers(1, 5),
    data=st.data(),
)
def test_a_child_is_the_stream_at_its_address(seed, path, count, data):
    i = data.draw(st.integers(0, count - 1))
    j = data.draw(st.integers(0, 3))
    parent = substream(seed, *path)
    first = children(parent, count)
    # The parent has drawn and derived streams: neither moves its children.
    parent.standard_normal(3)
    again = children(parent, count)
    assert len(first) == len(again) == count
    assert all(_same_draws(a, b) for a, b in zip(first, again))
    assert _same_draws(children(substream(seed, *path), count)[i], substream(seed, *path, i))
    assert _same_draws(children(first[i], j + 1)[j], substream(seed, *path, i, j))
    assert _same_draws(child(parent, i, j), substream(seed, *path, i, j))


def test_psd_sqrt_reproduces_the_covariance():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.2], [0.0, -0.2, 0.5]])
    root = psd_sqrt(cov)
    assert np.allclose(root @ root.T, cov, atol=1e-12)


def test_psd_sqrt_handles_rank_deficiency():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    root = psd_sqrt(cov)
    assert np.allclose(root @ root.T, cov, atol=1e-12)
