"""Iterated closed-loop prediction, and forecast assembly in original units."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteOutput
from .mlp import Batch, Network, forward_batch
from .series import StandardizedSeries, destandardize


@dataclass(frozen=True)
class ForecastResult:
    horizon: int
    predictions: np.ndarray  # original units
    standardized_predictions: np.ndarray
    seed_window: np.ndarray  # the m standardized values that started the loop


def multi_step_predict(net: Network, seed_window, horizon: int) -> np.ndarray:
    """Iterated closed-loop prediction: each output is appended to the window
    (oldest value dropped) and fed back.

    Raises NonFiniteOutput carrying the finite prefix if iteration diverges.
    """
    if horizon < 1:
        raise ConfigError("horizon must be at least 1")
    window = np.asarray(seed_window, dtype=np.float64)
    if window.shape != (net.input_dim,):
        raise DimensionMismatch(
            f"seed window shape {window.shape} incompatible with input_dim {net.input_dim}"
        )
    batch = Batch(window[None, :], None, net.hidden_dim)
    window = batch.inputs[0]  # fed back in place
    try:
        out = np.empty(horizon)
    except (MemoryError, ValueError):  # beyond memory, or beyond numpy's largest size
        raise ConfigError(f"horizon {horizon} is too large") from None
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


def forecast_series(net: Network, series: StandardizedSeries, horizon: int) -> ForecastResult:
    """Seed the loop from the last m = net.input_dim standardized values,
    forecast `horizon` steps and convert back to original units with the
    series' mean and scale.  A step that overflows there raises
    NonFiniteOutput carrying the standardized predictions before it."""
    seed_window = series.values[-net.input_dim:].copy()
    standardized = multi_step_predict(net, seed_window, horizon)
    with np.errstate(over="ignore"):
        predictions = destandardize(standardized, series.mean, series.scale)
    overflow = np.flatnonzero(~np.isfinite(predictions))
    if overflow.size:
        raise NonFiniteOutput(f"forecast step {overflow[0] + 1} overflows in original units",
                              partial=standardized[: overflow[0]])
    return ForecastResult(
        horizon=horizon,
        predictions=predictions,
        standardized_predictions=standardized,
        seed_window=seed_window,
    )
