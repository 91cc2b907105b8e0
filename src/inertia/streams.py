"""The random streams of ensemble members, seeded for a whole member range at once.

Member i of seed s draws from numpy's PCG64 seeded by
``SeedSequence(entropy=s, spawn_key=(i,))``. A SeedSequence per member costs
Python work per member, so ``seed_words`` computes every member's four PCG64
seed words at once with numpy's SeedSequence hash (numpy >= 1.19,
``bit_generator.pyx``), in uint32 arithmetic mod 2^32:

- hashmix(x): x ^= hc; hc *= MULT_A; x *= hc; x ^= x >> 16, with hc from INIT_A;
- mix(x, y): r = MIX_L * x - MIX_R * y; r ^ (r >> 16).

The entropy is the seed's four little-endian 32-bit words, zero-padded, then
i as one word. The pool is hashmix of the seed words. Then, for each source s
and destination d != s, pool[d] = mix(pool[d], hashmix(pool[s])); then, for
each d, pool[d] = mix(pool[d], hashmix(i)). The output is 8 words taken from
the pool in cycle, each x ^= hb; hb *= MULT_B; x *= hb; x ^= x >> 16 with hb
from INIT_B, read as 4 little-endian uint64. hc and hb evolve alike for every
member, so all but the index rounds and the output are computed once per seed.

This module loads numpy.random; ``integrators`` imports it at the first
stochastic run, so importing the package does not.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidArgument

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(hc: int, mult: int):
    """numpy's word hash x ^= hc; hc *= mult; x *= hc; x ^= x >> 16, carrying hc from call to call.

    Takes a Python int or a uint32 array: an array times a Python int below
    2**32 stays uint32, so both wrap mod 2**32.
    """
    def hash_word(x):
        nonlocal hc
        x = x ^ hc
        hc = hc * mult & _M32
        x = x * hc & _M32
        return x ^ (x >> 16)
    return hash_word


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def seed_words(seed: int, first: int, stop: int) -> np.ndarray:
    """PCG64 seed words of members ``first..stop-1``, as a (stop - first, 4) uint64 array.

    Row j equals ``SeedSequence(entropy=seed, spawn_key=(first + j,))
    .generate_state(4, np.uint64)`` bit for bit, for 0 <= seed < 2**128 and
    member indices below 2**32 (a larger index takes two spawn-key words).
    """
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise InvalidArgument(f"seed must be an integer in [0, 2**128), got {seed}")
    if not 0 <= first <= stop <= 2**32:
        raise InvalidArgument(f"member indices must lie in [0, 2**32), got {first}..{stop - 1}")
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(seed >> 32 * k & _M32) for k in range(4)]
    for s in range(4):
        for d in range(4):
            if d != s:
                pool[d] = _mix(pool[d], hashmix(pool[s]))
    index = np.arange(first, stop, dtype=np.uint64).astype(np.uint32)
    pool = [_mix(p, hashmix(index)) for p in pool]
    output = _hasher(_INIT_B, _MULT_B)
    words = np.stack([output(pool[j % 4]) for j in range(8)], axis=1)
    lo, hi = words[:, 0::2].astype(np.uint64), words[:, 1::2].astype(np.uint64)
    return lo | hi << np.uint64(32)


class _SeedWords(ISeedSequence):
    """One member's PCG64 seed words, computed ahead, behind numpy's seed-sequence interface."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("holds only the four uint64 words that PCG64 asks for")
        return self.words


def member_rngs(seed: int, first: int, stop: int) -> list[Generator]:
    """Generators of members ``first..stop-1``; the one place member streams are built."""
    return [Generator(PCG64(_SeedWords(words))) for words in seed_words(seed, first, stop)]
