"""Deterministic 64-bit RNG for every randomized suite.

splitmix64 (Steele, Lea & Flood 2014): a single 64-bit state advanced by a
fixed odd constant, output mixed by two xor-shift-multiply rounds.  The same
seed yields the same stream on every platform and library version, which is
what the reproducibility contract requires; library generators are avoided
on purpose.  Normal deviates come from the Box-Muller transform applied to
pairs of uniforms.

The k-th state after seeding is seed + k * gamma mod 2^64, so a block of
draws is computed at once in uint64 arrays (which wrap mod 2^64):
``uniforms(count)`` returns the same bits as ``count`` calls of ``uniform``
and leaves the same state.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 random bits -> double in [0, 1)
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next `count` draws of `uniform(lo, hi)`, bit for bit, as an array."""
        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA)
        self.state = (self.state + count * GAMMA) & MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def normal(self) -> float:
        # Box-Muller; guard the log against u1 == 0
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int) -> list[float]:
        return [self.normal() for _ in range(count)]
