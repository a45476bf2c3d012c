"""FrameDraws against its oracle, numpy.random: the same int64 arrays as
np.random.default_rng(entropy).integers, call after call. Only the tests
import numpy.random; the package never does (see test_runtime_deps.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack._draws import FrameDraws

# Bounds n of integers(0, n): 1 consumes nothing; past 2**31 Lemire's
# rejection turns down about half the words; 2**32 - 1, 2**32 and 2**32 + 7
# sit at the edge of the 32-bit path, and 2**40 and 2**63 past it.
EDGES = [1, 2, 3, 2300, 2**31 - 1, 2**31, 2**31 + 1, 2**31 + 12345,
         2**32 - 1, 2**32, 2**32 + 7, 2**40, 2**63]

# One int or several, each of one 32-bit word or more.
entropies = st.one_of(
    st.integers(0, 2**64 + 5),
    st.lists(st.integers(0, 2**64 + 5), min_size=1, max_size=6),
)
bounds = st.one_of(st.sampled_from(EDGES), st.integers(1, 2**40))
sizes = st.one_of(st.integers(0, 9), st.tuples(st.integers(0, 6), st.just(3)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(entropies, st.lists(st.tuples(st.integers(-1000, 1000), bounds, sizes), min_size=1, max_size=6))
def test_successive_calls_draw_what_numpy_draws(entropy, calls):
    ours, oracle = FrameDraws(entropy), np.random.default_rng(entropy)
    for low, n, size in calls:
        high = min(low + n, 2**63)
        got = ours.integers(low, high, size)
        want = oracle.integers(low, high, size)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(entropies, bounds, st.integers(0, 40))
def test_one_k_by_3_call_is_k_size_3_calls(entropy, n, k):
    """The property _ransac's one (iterations, 3) call rests on: the same
    triples, and the stream left at the same point."""
    whole, parts = FrameDraws(entropy), FrameDraws(entropy)
    triples = whole.integers(0, n, (k, 3))
    assert np.array_equal(triples.reshape(-1), [v for _ in range(k) for v in parts.integers(0, n, 3)])
    assert np.array_equal(whole.integers(0, n, 5), parts.integers(0, n, 5))


# The first four RANSAC triples of frames 0 and 1 at rng_seed 0, from 2,300
# ground candidates.
PINNED = {
    (0, 0): [[1956, 1465, 1175], [620, 708, 94], [173, 38, 403], [1870, 1493, 2099]],
    (0, 1): [[1200, 2046, 2283], [1281, 696, 1842], [525, 2199, 2049], [134, 145, 543]],
}


@pytest.mark.parametrize("entropy", PINNED)
def test_pinned_draws(entropy):
    assert FrameDraws(list(entropy)).integers(0, 2300, (4, 3)).tolist() == PINNED[entropy]


@pytest.mark.parametrize("entropy", PINNED)
def test_numpy_still_draws_the_pinned_values(entropy):
    """numpy's policy (NEP 19) does not promise Generator.integers the same
    algorithm across releases. If this fails and test_pinned_draws passes,
    the change is numpy's, and the tracks no longer follow numpy's draws."""
    got = np.random.default_rng(list(entropy)).integers(0, 2300, (4, 3))
    assert got.tolist() == PINNED[entropy]


@pytest.mark.parametrize(
    "entropy, low, high, error",
    [
        (-1, 0, 3, ValueError),
        ([0, -1], 0, 3, ValueError),
        (1.5, 0, 3, TypeError),
        ([0, 1.5], 0, 3, TypeError),
        (0, 5, 5, ValueError),
        (0, 5, 4, ValueError),
    ],
)
def test_bad_entropy_or_bounds_raise_as_in_numpy(entropy, low, high, error):
    with pytest.raises(error):
        np.random.default_rng(entropy).integers(low, high, 3)
    with pytest.raises(error):
        FrameDraws(entropy).integers(low, high, 3)
