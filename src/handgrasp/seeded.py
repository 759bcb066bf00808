"""Seeded uniform draws, bit-equal to `numpy.random.default_rng(seed).uniform`.

The protocol's targets and the scripted runs' jitter need a few dozen
uniform draws from a non-negative integer seed. This module owns that
stream in pure Python, so the draws need no `numpy.random` and stay
fixed whatever numpy's Generator does in later versions. It follows
numpy's path step for step:

  seeding   SeedSequence hashes the seed's 32-bit words into a 4-word
            pool and expands the pool into PCG64's 128-bit state and
            increment
  generator PCG64: a 128-bit LCG step, then the XSL-RR output
  doubles   the top 53 bits of a 64-bit output, scaled by 2**-53
  draw      low + (high - low) * u; numpy's array `uniform` draws its
            elements in order, one double each
"""

from __future__ import annotations

import math
from itertools import cycle, islice

from .errors import InvalidArgument

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool hash constants
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state hash constants
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's words hashed and mixed together."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class SeededStream:
    """The uniform draws of `numpy.random.default_rng(seed)`, in its order."""

    def __init__(self, seed: int):
        if seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {seed}")
        # SeedSequence.generate_state(4, uint64): eight hashed pool words,
        # paired little-endian into 64-bit words
        hash_const = _INIT_B
        state_words = []
        for word in islice(cycle(_seed_pool(seed)), 8):
            word ^= hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            word = (word * hash_const) & _MASK32
            state_words.append(word ^ (word >> 16))
        w = [state_words[i] | state_words[i + 1] << 32 for i in range(0, 8, 2)]
        # pcg64_set_seed: the increment from words 2-3; the state steps from
        # 0, takes words 0-1 and steps again
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128

    def next_double(self) -> float:
        """A double in [0, 1): the top 53 bits of the next 64-bit output."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        value = ((value >> rot) | (value << (-rot & 63))) & _MASK64
        return (value >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """One draw in [low, high), as numpy's `uniform(low, high)` makes it.

        Like numpy, it refuses `high < low` and a width that is not finite.
        Unlike numpy, it draws from [0.0, -0.0], whose width -0.0 numpy
        refuses by its sign bit: it returns 0.0."""
        width = high - low
        if not 0.0 <= width < math.inf:
            raise InvalidArgument(f"uniform needs low <= high a finite width apart, got [{low!r}, {high!r}]")
        return low + width * self.next_double()
