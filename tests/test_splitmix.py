"""The counter-based SplitMix64 sampler of the probe and ``compare``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raschdesign._splitmix import GAMMA, Uniforms, mix, stream_start

MASK = (1 << 64) - 1


def reference_bits(start, first, n):
    """Draws first..first + n - 1 of the stream at ``start``, by the scalar
    SplitMix64 recurrence: add GAMMA to the state, then mix it."""
    state = (start + first * GAMMA) & MASK
    out = []
    for _ in range(n):
        state = (state + GAMMA) & MASK
        out.append(mix(state))
    return out


def draw(seed, streams, first, n, low=0.0, high=1.0, width=None):
    uniforms = Uniforms(seed, streams, width or n)
    return uniforms.draw(first, low, high, np.empty((len(streams), n)))


def test_mix_of_the_first_state_is_the_published_value():
    # the first output of SplitMix64 seeded with 0 (Vigna's splitmix64.c)
    assert mix(GAMMA) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200])
@pytest.mark.parametrize("first", [0, 7, 2**63, 2**64 - 3])
def test_draws_are_the_scalar_recurrence(seed, first):
    values = draw(seed, (0, 1), first, 9)
    for row, stream in zip(values, (0, 1)):
        bits = reference_bits(stream_start(seed, stream), first, 9)
        assert row.tolist() == [(b >> 11) * 2.0**-53 for b in bits]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**70),
    n=st.integers(min_value=1, max_value=300),
    cuts=st.lists(st.integers(min_value=1, max_value=300), max_size=6),
)
def test_a_draw_in_pieces_equals_one_draw(seed, n, cuts):
    low, high = np.array([[0.1], [1.0]]), np.array([[0.4], [1.3]])
    whole = draw(seed, (0, 1), 0, n, low, high)
    sizes = cuts or [n]
    pieces = Uniforms(seed, (0, 1), max(sizes))
    out, at, i = np.empty((2, n)), 0, 0
    while at < n:
        size = min(sizes[i % len(sizes)], n - at)
        pieces.draw(at, low, high, out[:, at:at + size])
        at, i = at + size, i + 1
    assert np.array_equal(whole, out)


@pytest.mark.parametrize("seeds", [(0, 1), (0, 2**200), (0, 2**32), (5, 5 + 2**64),
                                   (2**63, 0)])
def test_seeds_give_other_draws(seeds):
    a, b = (draw(seed, (0,), 0, 64) for seed in seeds)
    assert not np.isin(a, b).any()


def test_streams_give_other_draws_and_keys_do_not_wrap():
    # the key is seed 2^32 + stream, exact: no pair of the kind 2 seed + j
    # (mod 2^64) shares a start
    starts = {(seed, j): stream_start(seed, j)
              for seed in (0, 1, 2, 2**31, 2**63, 2**64, 2**200) for j in (0, 1, 2)}
    assert len(set(starts.values())) == len(starts)
    rows = draw(3, (0, 1, 2), 0, 64)
    for i in range(3):
        for j in range(i):
            assert not np.isin(rows[i], rows[j]).any()


def test_every_non_negative_seed_and_no_other():
    for seed in (0, 2**64 - 1, 2**64, 10**60):
        assert stream_start(seed, 0) >> 64 == 0
    with pytest.raises(ValueError):
        stream_start(-1, 0)
    with pytest.raises(ValueError):
        stream_start(0, 2**32)


@pytest.mark.parametrize("low,high", [(0.0, 1.0), (1e-9, 1.0), (1.0, 1.3), (-3.0, 1.0),
                                      (5.0, 5.0 + 1e-12)])
def test_values_lie_in_the_half_open_range(low, high):
    values = draw(11, (0, 1), 0, 20_000, low, high)
    assert (values >= low).all() and (values < high).all()
    assert values.min() < low + (high - low) * 0.01
    assert values.max() > high - (high - low) * 0.01


def test_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # offsets past 2^64 and a state that wraps in every array operation
        draw(2**200, (0, 1), 2**70, 1000)
        Uniforms(0, (0,), 5).draw(2**64 - 1, -1.0, 1.0, np.empty((1, 5)))
