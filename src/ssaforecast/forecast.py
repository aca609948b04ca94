"""Iterated closed-loop prediction, plus error metrics and
forecast assembly in original units."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NonFiniteOutput, ZeroVarianceTargets
from .mlp import Batch, Network, forward_batch
from .series import StandardizedSeries, destandardize


@dataclass(frozen=True)
class ForecastResult:
    horizon: int
    predictions: np.ndarray  # original units
    standardized_predictions: np.ndarray
    seed_window: np.ndarray  # the m standardized values that started the loop
    timestamps: np.ndarray  # extrapolated at the source spacing

    def peak(self) -> tuple[float, float]:
        """(timestamp, prediction) of the largest forecast value."""
        i = int(np.argmax(self.predictions))
        return float(self.timestamps[i]), float(self.predictions[i])


@dataclass(frozen=True)
class ForecastMetrics:
    rmse: float
    nrmse: float  # rmse / population std of the targets
    horizon: int


def multi_step_predict(net: Network, seed_window, horizon: int) -> np.ndarray:
    """Iterated closed-loop prediction: each output is appended to the window
    (oldest value dropped) and fed back.

    Raises NonFiniteOutput carrying the finite prefix if iteration diverges.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    window = np.asarray(seed_window, dtype=np.float64)
    if window.shape != (net.input_dim,):
        raise DimensionMismatch(
            f"seed window shape {window.shape} incompatible with input_dim {net.input_dim}"
        )
    batch = Batch(window[None, :], None, net.hidden_dim)
    window = batch.inputs[0]  # fed back in place
    out = np.empty(horizon)
    # overflow is the failure mode being detected, not an error to warn about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(horizon):
            y = float(forward_batch(net, batch)[0])
            if not math.isfinite(y):
                raise NonFiniteOutput(
                    f"iteration produced a non-finite value at step {i + 1}", partial=out[:i]
                )
            out[i] = y
            window[:-1] = window[1:]
            window[-1] = y
    return out


def evaluate(predictions, actual) -> ForecastMetrics:
    """RMSE plus RMSE normalized by the population std of the actuals."""
    p = np.asarray(predictions, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.size == 0 or a.size == 0:
        raise LengthMismatch("evaluate needs non-empty sequences")
    if p.shape != a.shape:
        raise LengthMismatch(f"length {p.size} vs {a.size}")
    rmse = float(np.sqrt(np.mean((p - a) ** 2)))
    std = float(np.sqrt(np.mean((a - a.mean()) ** 2)))
    if std == 0.0:
        raise ZeroVarianceTargets(rmse)
    return ForecastMetrics(rmse=rmse, nrmse=rmse / std, horizon=p.size)


def forecast_series(
    net: Network, series: StandardizedSeries, horizon: int, timestamps
) -> ForecastResult:
    """Seed the loop from the last m = net.input_dim standardized values,
    forecast `horizon` steps, convert back to original units with the
    series' mean and scale, and extend the time axis at the source spacing."""
    m = net.input_dim
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if series.n < m:
        raise DimensionMismatch(f"series length {series.n} shorter than embedding {m}")
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.size != series.n:
        raise LengthMismatch(f"{ts.size} timestamps for {series.n} samples")
    seed_window = series.values[-m:].copy()
    standardized = multi_step_predict(net, seed_window, horizon)
    step = (ts[-1] - ts[0]) / (ts.size - 1)
    future = ts[-1] + step * np.arange(1, horizon + 1)
    return ForecastResult(
        horizon=horizon,
        predictions=destandardize(standardized, series.mean, series.scale),
        standardized_predictions=standardized,
        seed_window=seed_window,
        timestamps=future,
    )
