"""Spectral decomposition plus a coarse-to-fine trained neural predictor for
long-term univariate forecasting."""

from .curriculum import (
    CurriculumResult,
    StageParams,
    compare_curriculum_baseline,
    curriculum_train,
    error_vs_pc_curve,
    stage_counts,
)
from .forecast import ForecastResult, forecast_series, multi_step_predict
from .mlp import Batch, Network, backprop_gradient, forward_batch, gd_step, init_network, mse, train
from .series import (
    RawSeries,
    StandardizedSeries,
    build_embedding,
    destandardize,
    load_csv,
    split_validation,
    standardize,
)
from .ssa import (
    Decomposition,
    decompose,
    eigendecompose,
    lag_correlation,
    partial_reconstruction,
    principal_components,
    singular_spectrum_rows,
)

__version__ = "0.1.0"
