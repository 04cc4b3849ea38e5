"""normframes.rng against numpy.random.default_rng, bit for bit."""

import numpy as np
import pytest

from normframes import rng

SEEDS = list(range(256)) + [2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]
BOUNDS = (1, 2, 41, 1000, 2**31 + 1, 2**32)


def test_seed_words_are_the_seed_sequence_state():
    for seed in SEEDS:
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert rng.seed_words(seed) == want, seed


def test_doubles_match_for_every_size_form():
    for seed in SEEDS:
        want, got = np.random.default_rng(seed), rng.Generator(seed)
        assert got.random().hex() == want.random().hex(), seed
        for size in (5, (3, 4), (2, 0, 3)):
            a, b = want.random(size), got.random(size)
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), (seed, size)
        a, b = want.uniform(-2.0, 2.0, (2, 3)), got.uniform(-2.0, 2.0, (2, 3))
        assert (b.shape, b.tobytes()) == (a.shape, a.tobytes()), seed
        assert got.uniform(-1.0, 1.0).hex() == want.uniform(-1.0, 1.0).hex(), seed


def test_integers_match_interleaved_with_doubles():
    # each integer of a range up to 2**32 takes one buffered 32-bit half; a
    # double in between takes a whole output and leaves the buffered half
    for seed in SEEDS:
        want, got = np.random.default_rng(seed), rng.Generator(seed)
        for high in BOUNDS * 2:
            assert got.integers(0, high) == want.integers(0, high), (seed, high)
            assert got.integers(3, 3 + high) == want.integers(3, 3 + high), (seed, high)
            assert got.random().hex() == want.random().hex(), (seed, high)


def test_one_value_range_draws_nothing():
    # a drawn 32-bit half would leave the other half buffered for the next integer
    want, got = np.random.default_rng(5), rng.Generator(5)
    assert got.integers(7, 8) == want.integers(7, 8) == 7
    assert got.integers(0, 41) == want.integers(0, 41)


def test_integers_rejects_empty_and_wide_ranges():
    with pytest.raises(ValueError, match="low >= high"):
        rng.Generator(0).integers(4, 4)
    with pytest.raises(ValueError, match="exceeds"):
        rng.Generator(0).integers(0, 2**32 + 1)


def test_negative_seed_raises_numpys_value_error():
    with pytest.raises(ValueError, match="expected non-negative integer") as want:
        np.random.default_rng(-3)
    for seed in (-1, -3, -(2**70)):
        with pytest.raises(ValueError) as got:
            rng.Generator(seed)
        assert str(got.value) == str(want.value)
