"""numpy's ``default_rng(seed)`` stream for an int seed, without numpy.random.

Every seeded draw of the package (sample clouds, linearity probes and
probe fields) comes from here.  Importing ``numpy.random`` would load nine
extension modules and, through ``secrets``, OpenSSL; this module returns,
bit for bit, what numpy's ``Generator`` returns for the two methods the
package calls:

* ``SeedSequence`` mixes the seed's 32-bit words into a pool of four and
  hashes the pool out to four 64-bit words;
* PCG64 seeds its 128-bit LCG from them (``setseq``) and outputs XSL-RR
  128/64 (O'Neill, "PCG: A family of simple fast space-efficient
  statistically good algorithms for random number generation", 2014);
* ``random`` is (u >> 11) 2^-53, and ``uniform`` is low + (high - low) u.
"""

from __future__ import annotations

import math
import operator

import numpy as np

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list) -> int:
    value ^= const[0]
    const[0] = const[0] * 0x931E8875 & MASK32
    value = value * const[0] & MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
    return result ^ result >> 16


def seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const, halves = 0x8B51F9DD, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * 0x58F38DED & MASK32
        value = value * const & MASK32
        halves.append(value ^ value >> 16)
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


class Generator:
    """PCG64 seeded as ``numpy.random.default_rng(seed)``, with the methods
    of numpy's ``Generator`` that the package calls."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = seed_words(seed)
        self._inc = (w2 << 64 | w3) << 1 & MASK128 | 1
        self._state = ((self._inc + (w0 << 64 | w1)) * PCG_MULTIPLIER + self._inc) & MASK128

    def _next64(self) -> int:
        self._state = state = (self._state * PCG_MULTIPLIER + self._inc) & MASK128
        x, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def random(self, size=None):
        """Doubles in [0, 1): a float for ``size`` None, else an array of that shape."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        shape = (size,) if isinstance(size, int) else tuple(size)
        draws = [self._next64() >> 11 for _ in range(math.prod(shape))]
        return np.array(draws, dtype=float).reshape(shape) * 2.0**-53

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        low, high = float(low), float(high)
        return low + (high - low) * self.random(size)
