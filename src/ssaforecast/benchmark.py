"""The two-sinusoid benchmark series for experiments and tests."""

from __future__ import annotations

import math

import numpy as np

from .rng import SplitMix64

# the noise's generator stream.  This does not keep it apart from the other
# draws of a seed: stream k is stream 0 advanced by k draws, so the noise
# reuses the draws init_network and split_validation take from stream 0 of
# the same seed, from the eighth on (ROADMAP item 3)
_NOISE_STREAM = 7
# the periods (in samples) and amplitudes of the two sinusoids, and the
# noise's standard deviation
_PERIODS = (11.0, 5.5)
_AMPLITUDES = (1.0, 0.4)
_NOISE_SIGMA = 0.3


def two_sine_signal(n: int = 600) -> np.ndarray:
    """The two sinusoids (fixed phases) alone, without the noise.

    The short period is half the long one, mimicking a fundamental plus
    harmonic; the window sizes used in experiments cover several
    fundamental cycles.
    """
    t = np.arange(n, dtype=np.float64)
    return (_AMPLITUDES[0] * np.sin(2.0 * math.pi * t / _PERIODS[0] + 0.7)
            + _AMPLITUDES[1] * np.sin(2.0 * math.pi * t / _PERIODS[1] + 2.3))


def two_sine_benchmark(n: int = 600, seed: int = 0) -> np.ndarray:
    """`two_sine_signal(n)` buried in white Gaussian noise."""
    noise = SplitMix64(seed, stream=_NOISE_STREAM).normals(n)
    return two_sine_signal(n) + _NOISE_SIGMA * noise
