"""Deterministic pseudo-random primitives.

Every stochastic choice in this package (validation splits, weight
initialization, synthetic noise) runs through the SplitMix64 generator below
rather than ``random`` or ``numpy.random``, whose streams are not guaranteed
bitwise-stable across releases.  The algorithm is fixed here, permanently:

    state_0 = mix64(seed) + stream * PHI          (all arithmetic mod 2**64)
    step:     state += PHI; output = mix64(state)

where PHI = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits: u = (output >> 11) * 2**-53, giving
values in [0, 1).  Normals use the Box-Muller transform on consecutive
uniforms.  Bounded integers use rejection sampling (no modulo bias), and
permutations use a Fisher-Yates shuffle driven by those integers.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seeded counter-based generator.  ``stream`` offsets the start: for
    the same seed, stream k's draws are stream 0's from draw k + 1 on, so
    distinct streams overlap rather than being independent (ROADMAP
    item 3)."""

    def __init__(self, seed: int, stream: int = 0):
        self._state = (_mix64(seed & _MASK64) + (stream & _MASK64) * _PHI) & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _PHI) & _MASK64
        return _mix64(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(low, high) for _ in range(n)], dtype=np.float64)

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; u1 nudged away from 0 so log() is finite.
        u1 = (self.next_u64() >> 11) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        if u1 == 0.0:
            u1 = 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def _outputs(self, count: int) -> np.ndarray:
        """The next `count` outputs of next_u64 as one uint64 array; the
        state is left where it was."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_PHI) + np.uint64(self._state)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z = (z ^ (z >> np.uint64(shift))) * np.uint64(factor)
        return z ^ (z >> np.uint64(31))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): for i = n-1 down to 1, swap
        position i with below(i + 1).  The draws are made as one block; from
        the first draw `below` would reject (probability below n / 2**64)
        on, `below` itself makes them."""
        out = list(range(n))
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for each i
        draws = self._outputs(bounds.size)
        # below(b) takes u <= 2**64 - 1 - 2**64 % b; 0 - b wraps to 2**64 - b
        limits = np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds
        rejected = np.flatnonzero(draws > limits)
        take = int(rejected[0]) if rejected.size else bounds.size
        self._state = (self._state + take * _PHI) & _MASK64
        picks = (draws[:take] % bounds[:take]).tolist()
        picks += [self.below(b) for b in range(n - take, 1, -1)]  # bounds[take:]
        for i, j in zip(range(n - 1, 0, -1), picks):
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.int_)
