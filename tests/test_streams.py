import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from tempersmc import streams


def test_same_key_same_output():
    a = streams.stream(123, 4, 5).random(16)
    b = streams.stream(123, 4, 5).random(16)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = streams.stream(123, 4, 5).random(16)
    b = streams.stream(123, 4, 6).random(16)
    c = streams.stream(123, 5, 5).random(16)
    d = streams.stream(124, 4, 5).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_path_order_matters():
    assert not np.array_equal(
        streams.stream(9, 1, 2).random(8), streams.stream(9, 2, 1).random(8)
    )


def test_derive_seed_stable_and_distinct():
    s1 = streams.derive_seed(7, 3, 100)
    assert s1 == streams.derive_seed(7, 3, 100)
    assert s1 != streams.derive_seed(7, 3, 101)
    assert 0 <= s1 < 2**64


def test_derived_child_independent_of_parent_streams():
    child = streams.stream(streams.derive_seed(7, 0), 0, 0).random(8)
    parent = streams.stream(7, 0, 0).random(8)
    assert not np.array_equal(child, parent)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1),
       st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)))
@example(seed=0, replicate=0)
@example(seed=2**64 - 1, replicate=2**32)
# a seed of five words: longer than the four-word pool
@example(seed=2**130 + 12345, replicate=7)
def test_replicate_stream_is_numpy_seed_sequence_sfc64(seed, replicate):
    # a replicate's draws can be reproduced with numpy alone, from its
    # (seed, replicate) key, for seeds and replicate ids past one word
    ss = np.random.SeedSequence(seed, spawn_key=(replicate,))
    expected = np.random.Generator(np.random.SFC64(ss)).random(9)
    np.testing.assert_array_equal(streams.stream(seed, replicate).random(9), expected)


# the cross-stream gate: disjoint pairs of streams, and its grid and level per kind of pair
_PAIRS = 10_000
_BINS = 10
_PAIR_ALPHA = 3e-5


def _cell_block_pair(seed, i):
    # blocks 0 and 1 of the finite cell (n, N) = (i + 1, 1000), keyed as stabilitylab keys it
    cell = streams.derive_seed(seed, i + 1, 1000)
    return streams.stream(cell, 0), streams.stream(cell, 1)


@pytest.mark.parametrize("pair", [
    lambda seed, i: (streams.stream(seed, 2 * i), streams.stream(seed, 2 * i + 1)),
    lambda seed, i: (streams.stream(seed, i), streams.stream(seed + 1, i)),
    _cell_block_pair,
], ids=["replicate-r-and-r+1", "seed-s-and-s+1", "finite-block-b-and-b+1"])
def test_neighbouring_streams_are_independent(pair):
    """Neighbouring keys give independent first uniforms.

    The pairs are replicate r against r + 1 of one seed, replicate r of seed
    s against seed s + 1, and blocks 0 and 1 of a finite cell.  For each
    kind, the first uniforms of 10,000 disjoint pairs are binned on a
    10 x 10 grid and compared with the uniform joint law by one chi-square
    test (99 degrees of freedom) at level 3e-5, so independent streams fail
    the three with probability below 1e-4.
    """
    first = np.array([[g.random() for g in pair(2024, i)] for i in range(_PAIRS)])
    cells = (first * _BINS).astype(int)
    observed = np.bincount(cells[:, 0] * _BINS + cells[:, 1], minlength=_BINS**2)
    _, pval = scipy.stats.chisquare(observed)
    assert pval > _PAIR_ALPHA
