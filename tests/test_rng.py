"""normframes.rng against numpy.random.default_rng, bit for bit."""

import numpy as np
import pytest

from normframes import rng

SEEDS = list(range(256)) + [2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]


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


def test_negative_seed_raises_numpys_value_error():
    with pytest.raises(ValueError, match="expected non-negative integer") as want:
        np.random.default_rng(-3)
    for seed in (-1, -3, -(2**70)):
        with pytest.raises(ValueError) as got:
            rng.Generator(seed)
        assert str(got.value) == str(want.value)
