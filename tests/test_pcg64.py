"""The port of `np.random.default_rng` in `pcg64` gives numpy's scalar
`uniform` and `integers` draws bit for bit, so the verification checks draw
the trials they drew through numpy."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotheta.pcg64 import default_rng
from rotheta.verification import _conservation_draw, _conservation_trials

PINNED_SEEDS = [0, 2**32, 2**64 + 1, 2**130]
# 2**31 + 1 values: Lemire's rejection loop runs for about half the draws
REJECTING = (0, 2**31 + 1)

seeds = st.one_of(st.sampled_from(PINNED_SEEDS), st.integers(0, 2**140))
uniform_calls = st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)).map(
    lambda c: (c[0], c[1], c[1] + c[2]))
integers_calls = st.tuples(
    st.just("integers"), st.integers(-2**40, 2**40),
    st.one_of(st.sampled_from([1, 2, 3, 19, 2**31, 2**31 + 1, 2**32 - 2, 2**32 - 1]),
              st.integers(1, 2**32 - 1))).map(lambda c: (c[0], c[1], c[1] + c[2]))
calls = st.lists(st.one_of(uniform_calls, integers_calls), max_size=60)


def _draws(rng, sequence):
    """Each call's value, a float as its hex string, an int as an int."""
    out = []
    for name, low, high in sequence:
        value = getattr(rng, name)(low, high)
        out.append(float(value).hex() if name == "uniform" else int(value))
    return out


def _assert_numpys(seed, sequence):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    assert _draws(ours, sequence) == _draws(theirs, sequence)
    # the two streams end in the same place, held half-word included
    tail = [("integers", 0, 2**32 - 1)] * 3 + [("uniform", 0.0, 1.0)] * 2
    assert _draws(ours, tail) == _draws(theirs, tail)


@given(seed=seeds, sequence=calls)
@settings(max_examples=200, deadline=None)
def test_mixed_draws_are_numpys_bit_for_bit(seed, sequence):
    _assert_numpys(seed, sequence)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_pinned_seeds_give_numpys_draws(seed):
    _assert_numpys(seed, [("uniform", -1.0, 1.0), ("integers", -9, 10), ("integers", 5, 6),
                          ("integers", *REJECTING), ("uniform", -2.0, -0.2),
                          ("integers", 0, 2**32 - 1), ("integers", 2, 13)] * 20)


def test_rejection_loop_draws_numpys_words():
    rng = default_rng(7)
    words = []
    next32 = rng._next32

    def counted():
        words.append(None)
        return next32()

    rng._next32 = counted
    ours = [rng.integers(*REJECTING) for _ in range(500)]
    theirs = np.random.default_rng(7).integers(*REJECTING, size=500).tolist()
    assert ours == theirs
    assert len(words) > 600     # about 1,000 words for 500 draws


def test_a_single_value_range_draws_nothing():
    rng = default_rng(3)
    assert [rng.integers(5, 6) for _ in range(4)] == [5] * 4
    assert rng.uniform(0.0, 1.0) == default_rng(3).uniform(0.0, 1.0)
    _assert_numpys(3, [("integers", 5, 6), ("uniform", 0.0, 1.0)])


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 1])
def test_the_held_half_word_survives_a_uniform(seed):
    # an integers draw keeps the upper half of its 64-bit word; uniforms
    # take whole words, and the next integers draw takes that half
    rng = default_rng(seed)
    rng.integers(0, 2**32 - 1)
    held = rng._upper
    assert held is not None
    for _ in range(3):
        rng.uniform(-1.0, 1.0)
    assert rng._upper == held
    _assert_numpys(seed, [("integers", 0, 2**32 - 1)] + [("uniform", -1.0, 1.0)] * 3
                   + [("integers", 0, 2**32 - 1)] * 3)


@pytest.mark.parametrize("make", [default_rng, np.random.default_rng], ids=["port", "numpy"])
def test_a_negative_seed_is_refused(make):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        make(-1)


@pytest.mark.parametrize("low, high", [(0, 2**32), (-5, 2**32), (0, 2**64)])
def test_a_range_numpy_draws_with_64_bits_raises(low, high):
    with pytest.raises(ValueError, match="not ported"):
        default_rng(0).integers(low, high)


def test_an_empty_range_raises():
    with pytest.raises(ValueError, match="low >= high"):
        default_rng(0).integers(3, 3)


def test_conservation_trials_are_numpys():
    # the check's exact theta = 1/4 draws follow the trials in the stream
    exact = [("integers", -9, 10), ("integers", 2, 13)] * 20
    for seed in range(100):
        ours, theirs = default_rng(seed), np.random.default_rng(seed)
        assert _conservation_trials(ours) == _conservation_trials(theirs), seed
        assert _draws(ours, exact) == _draws(theirs, exact), seed


@pytest.mark.parametrize("seed", [0, 7, 12, 999])
def test_census_draws_are_numpys(seed):
    ours, theirs = default_rng(seed), np.random.default_rng(seed)
    theta = Fraction(1, 4)
    assert ([_conservation_draw(ours, theta) for _ in range(1000)]
            == [_conservation_draw(theirs, theta) for _ in range(1000)])
