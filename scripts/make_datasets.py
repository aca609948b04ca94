#!/usr/bin/env python3
"""Regenerate the committed data files (deterministic; safe to re-run).

    python scripts/make_datasets.py

Writes:
    data/sunspots_monthly.csv        synthetic monthly sunspot stand-in,
                                     792 rows (1944.0 .. 2009.92)
    tests/fixtures/benchmark_two_sine.csv
                                     the two-sinusoid benchmark realization
                                     used by the comparison experiments
    tests/fixtures/tiny_series.csv   short low-noise series for fast
                                     command-level golden tests
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.jsonio import write_csv
from ssaforecast.rng import SplitMix64

ROOT = Path(__file__).resolve().parents[1]
# the sunspot generator's stream: stream 0 of its seed advanced by 11 draws
_SUNSPOT_STREAM = 11


def synthetic_sunspot_series(
    n_months: int = 792,
    start_year: float = 1944.0,
    seed: int = 1944,
) -> tuple[np.ndarray, np.ndarray]:
    """Monthly sunspot-number stand-in: asymmetric ~11-year activity cycles
    with varying amplitude, non-negative, in realistic units.

    This is NOT observational data; swap in a real archive export for
    scientific use.  Returns (timestamps as year fractions, values).
    """
    rng = SplitMix64(seed, stream=_SUNSPOT_STREAM)
    months = np.arange(n_months, dtype=np.float64)
    timestamps = start_year + months / 12.0
    values = np.zeros(n_months)
    cycle_start = 0.0
    while cycle_start < n_months:
        period = 132.0 + 12.0 * (rng.uniform() - 0.5) * 2.0  # 10..12 years, in months
        amplitude = 90.0 + 90.0 * rng.uniform()  # peak 90..180
        rise_fraction = 0.35 + 0.1 * rng.uniform()  # fast rise, slow decline
        phase = (months - cycle_start) / period
        in_cycle = (phase >= 0.0) & (phase < 1.0)
        shape = np.zeros(n_months)
        rising = in_cycle & (phase < rise_fraction)
        falling = in_cycle & (phase >= rise_fraction)
        shape[rising] = np.sin(0.5 * math.pi * phase[rising] / rise_fraction) ** 2
        shape[falling] = (
            np.cos(0.5 * math.pi * (phase[falling] - rise_fraction) / (1.0 - rise_fraction)) ** 2
        )
        values += amplitude * shape
        cycle_start += period
    noise = np.array([rng.normal() for _ in range(n_months)])
    values = values * (1.0 + 0.1 * noise) + 4.0 * np.abs(noise)
    return timestamps, np.maximum(values, 0.0)


def main() -> None:
    ts, vals = synthetic_sunspot_series(n_months=792, start_year=1944.0, seed=1944)
    write_csv(ROOT / "data" / "sunspots_monthly.csv", ["time", "sunspots"], zip(ts, vals))

    bench = two_sine_benchmark(n=600, seed=0)
    write_csv(
        ROOT / "tests" / "fixtures" / "benchmark_two_sine.csv",
        ["time", "value"],
        zip(np.arange(600.0), bench),
    )

    # short, lightly-noised sinusoid: converges quickly in golden runs
    n = 120
    t = np.arange(n, dtype=np.float64)
    noise = SplitMix64(5, stream=7).normals(n)
    tiny = np.sin(2.0 * math.pi * t / 12.0 + 0.3) + 0.05 * noise
    write_csv(ROOT / "tests" / "fixtures" / "tiny_series.csv", ["time", "value"], zip(t, tiny))

    for rel in (
        "data/sunspots_monthly.csv",
        "tests/fixtures/benchmark_two_sine.csv",
        "tests/fixtures/tiny_series.csv",
    ):
        path = ROOT / rel
        rows = len(path.read_text().splitlines()) - 1
        print(f"wrote {rel} ({rows} rows)")


if __name__ == "__main__":
    main()
