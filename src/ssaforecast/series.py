"""Series ingestion, standardization, and supervised dataset construction."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensions,
    BadFraction,
    EmbeddingTooLarge,
    EmptyInput,
    NonMonotonicTime,
    NonUniformSpacing,
    ParseError,
    RuntimeFailure,
    ZeroVariance,
)
from .rng import SplitMix64

# relative tolerance on step uniformity of the time axis
SPACING_RTOL = 1e-9


def _as_values(series) -> np.ndarray:
    """Accept a StandardizedSeries or a bare 1-D float array."""
    values = getattr(series, "values", series)
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class RawSeries:
    """Uniformly sampled scalar observations in original units.  Time-order
    faults are reported by 1-based sample number, which is the data row
    number of a CSV file."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.ndim != 1 or ts.size != vals.size:
            raise ValueError("timestamps and values must be 1-D sequences of equal length")
        if ts.size < 2:
            raise EmptyInput(f"need at least two samples, got {ts.size}")
        if not np.all(np.isfinite(ts)) or not np.all(np.isfinite(vals)):
            raise ValueError("timestamps and values must be finite")
        steps = np.diff(ts)
        bad = np.nonzero(steps <= 0.0)[0]
        if bad.size:
            raise NonMonotonicTime(int(bad[0]) + 2)
        step = (ts[-1] - ts[0]) / (ts.size - 1)
        if np.max(np.abs(steps - step)) > SPACING_RTOL * abs(step):
            raise NonUniformSpacing(
                f"time axis is not uniformly spaced within {SPACING_RTOL:g} relative tolerance"
            )

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class StandardizedSeries:
    """Zero-mean, unit-variance values plus the affine map back to original
    units: original = scale * value + mean."""

    values: np.ndarray
    mean: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.values.size


def load_csv(path, value_column: str, time_column: str) -> RawSeries:
    """Read a comma-delimited UTF-8 file with a header row.

    Rows are kept in file order; both named columns must parse as finite
    reals, and RawSeries checks that there are at least two rows and that the
    timestamps are strictly increasing (duplicates rejected) and uniform.
    """
    # a byte that is not UTF-8 becomes a lone surrogate, so a cell holding one
    # fails to parse like any other malformed cell
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(0, value_column, "file has no header row")
        # a name repeated in the header names its last column
        index = {name: j for j, name in enumerate(header)}
        for col in (time_column, value_column):
            if col not in index:
                raise ParseError(0, col, "column missing from header")
        times: list[float] = []
        values: list[float] = []
        columns = ((time_column, index[time_column], times),
                   (value_column, index[value_column], values))
        # blank lines are skipped and do not count as rows
        for i, row in enumerate(filter(None, reader), start=1):
            for col, j, out in columns:
                if j >= len(row):
                    raise ParseError(i, col, "missing cell")
                try:
                    x = float(row[j])
                except ValueError:
                    raise ParseError(i, col) from None
                if not math.isfinite(x):
                    raise ParseError(i, col)
                out.append(x)
    return RawSeries(np.array(times), np.array(values))


def standardize(raw) -> StandardizedSeries:
    """Shift to zero mean and scale to unit population variance (divide by N,
    so the zero-lag autocorrelation of the output is exactly 1)."""
    values = _as_values(raw)
    if values.size < 2:
        raise ValueError("need at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        var = float(np.mean((values - mean) ** 2))
    if not math.isfinite(var):
        raise RuntimeFailure("series mean or variance overflows; cannot standardize")
    if var <= 0.0:
        raise ZeroVariance("series is constant; cannot standardize")
    scale = math.sqrt(var)
    return StandardizedSeries((values - mean) / scale, mean, scale)


def destandardize(values, mean: float, scale: float) -> np.ndarray:
    """Inverse of standardize: y = scale * x + mean, elementwise."""
    return scale * np.asarray(values, dtype=np.float64) + mean


def check_embedding_size(m: int, n: int, pairs: int = 1) -> None:
    """Reject an embedding below 1, or one that leaves fewer than `pairs`
    (window, target) pairs in an n-sample series."""
    if m < 1:
        raise BadDimensions(f"embedding dimension must be at least 1, got {m}")
    if m >= n:
        raise EmbeddingTooLarge(f"embedding dimension {m} needs a series longer than {n}")
    if n - m < pairs:
        raise EmbeddingTooLarge(
            f"embedding dimension {m} leaves {n - m} (window, target) pairs in {n} "
            f"samples; at least {pairs} are needed"
        )


def build_embedding(series, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide an m-wide window over the series: (inputs, targets), the N - m
    windows (oldest sample first) as an (N - m, m) array and the sample after
    each, both read-only views of the series."""
    values = _as_values(series)
    check_embedding_size(m, values.size)
    # each (m+1)-wide window is one pair: m inputs, then the target
    pairs = np.lib.stride_tricks.sliding_window_view(values, m + 1)
    return pairs[:, :m], pairs[:, m]


def split_validation(count: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train_indices, validation_indices) of `count` pairs, each sorted:
    round(fraction * count) pairs held out, chosen uniformly at random by the
    seeded generator (see rng module for the exact algorithm).

    The validation side always keeps at least one pair and leaves at least
    one pair for training.
    """
    if not 0.0 < fraction < 1.0:
        raise BadFraction(f"fraction must lie in (0, 1), got {fraction}")
    if count < 2:
        raise EmbeddingTooLarge(f"need at least 2 (window, target) pairs to split, got {count}")
    k = int(math.floor(fraction * count + 0.5))
    k = min(max(k, 1), count - 1)
    perm = SplitMix64(seed).permutation(count)
    return np.sort(perm[k:]), np.sort(perm[:k])
