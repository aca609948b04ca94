"""Coarse-to-fine training: fit the network on a 2-component reconstruction
first, re-train on progressively richer reconstructions, and finish on the
raw series.  One network persists across stages (warm start).  The baseline
arm is the same loop with one raw stage, so it shares the embedding, split
and initialization rules."""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadHorizon, BadStep, ConfigError, DivergenceDetected, NonFiniteOutput
from .forecast import forecast_series
from .lanes import run_side_by_side
from .mlp import Batch, TrainState, forward_batch, init_network, mse, train
from .series import StandardizedSeries, build_embedding, split_validation, standardize
from .ssa import Decomposition, decompose, partial_reconstruction

DEFAULT_VALIDATION_FRACTION = 0.10


@dataclass(frozen=True)
class StageParams:
    epochs: int
    lr: float
    momentum: float = 0.9


def stage_counts(window: int, pc_step: int) -> tuple[int | None, ...]:
    """Component counts p = 2, 2+pc_step, ... capped at the window size, then
    None for the raw series."""
    if window < 2:
        raise BadStep("window must be at least 2")
    if pc_step < 1:
        raise BadStep(f"pc_step must be at least 1, got {pc_step}")
    ps = list(range(2, window + 1, pc_step))
    if ps[-1] != window:
        ps.append(window)
    return (*ps, None)


@dataclass(frozen=True)
class CurriculumResult:
    """Per stage: the state it hands on and its (k, 2) trace from `train`."""

    states: tuple[TrainState, ...]
    stage_traces: tuple[np.ndarray, ...]

    @property
    def final_state(self) -> TrainState:
        return self.states[-1]

    @property
    def total_epochs(self) -> int:
        return sum(map(len, self.stage_traces))


def curriculum_train(
    series: StandardizedSeries,
    dec: Decomposition | None,
    embedding: int,
    counts: Iterable[int | None],
    hidden: int,
    params: StageParams,
    seed: int,
    fraction: float = DEFAULT_VALIDATION_FRACTION,
    patience: int = 0,
    pin_split: bool = False,
) -> CurriculumResult:
    """Train one warm-started network through a stage per entry of `counts`:
    the p-component reconstruction of `series`, or the raw series for None.

    `dec` is the decomposition of `series`, computed once by the
    caller and shared by all stages and seeds; a raw-only run needs none.
    Each stage embeds its own source series (filtered inputs predict filtered
    targets), re-draws the validation split with seed + stage index, and
    hands its returned parameters to the next stage.  With pin_split=True the
    split is drawn once, with the seed, and every stage reuses its pair
    indices, which makes a run directly comparable to a baseline run on the
    same seed.
    """
    net = init_network(embedding, hidden, seed)
    states: list[TrainState] = []
    traces: list[np.ndarray] = []
    for idx, p in enumerate(counts):
        source = series.values if p is None else partial_reconstruction(dec, p)
        pairs = build_embedding(source, embedding)
        if not (pin_split and idx):  # a pinned run keeps the first stage's indices
            split = split_validation(pairs[1].size, fraction, seed if pin_split else seed + idx)
        try:
            state, trace = train(net, pairs, split, params.epochs, params.lr, params.momentum,
                                 patience)
        except DivergenceDetected as exc:
            # keep every completed stage alongside the failing stage's prefix
            exc.stage_traces = (*traces, exc.trace)
            raise
        net = state.network
        states.append(state)
        traces.append(trace)
    return CurriculumResult(tuple(states), tuple(traces))


@dataclass(frozen=True)
class PcCurvePoint:
    p: int
    train_mse: float
    validation_mse: float


@dataclass(frozen=True)
class PcCurve:
    points: tuple[PcCurvePoint, ...]
    baseline_train_mse: float
    baseline_validation_mse: float
    curriculum_epochs: int
    baseline_epochs: int


def error_vs_pc_curve(
    series: StandardizedSeries,
    window: int,
    embedding: int,
    hidden: int,
    params: StageParams,
    seed: int,
    fraction: float = DEFAULT_VALIDATION_FRACTION,
) -> PcCurve:
    """Cumulative warm-started sweep over p = 2..window.

    After training on each reconstruction depth the network is scored against
    raw-series pairs (one fixed split, drawn with the run seed), so every
    point and the baseline level share a common target.  The baseline arm
    gets the same total epoch budget in a single raw run.
    """
    dec = decompose(series, window)
    ps = range(2, window + 1)
    sweep = curriculum_train(series, dec, embedding, ps, hidden, params, seed, fraction)
    base = curriculum_train(series, None, embedding, (None,), hidden,
                            replace(params, epochs=sweep.total_epochs), seed, fraction)
    # built after training, which checks `hidden` first
    x, y = build_embedding(series.values, embedding)
    batches = [Batch(x[i], y[i], hidden) for i in split_validation(y.size, fraction, seed)]

    def score(net) -> tuple[float, ...]:
        return tuple(mse(forward_batch(net, b), b.targets) for b in batches)

    base_train, base_val = score(base.final_state.network)
    return PcCurve(
        points=tuple(PcCurvePoint(p, *score(s.network)) for p, s in zip(ps, sweep.states)),
        baseline_train_mse=base_train,
        baseline_validation_mse=base_val,
        curriculum_epochs=sweep.total_epochs,
        baseline_epochs=base.total_epochs,
    )


@dataclass(frozen=True)
class SeedComparison:
    seed: int
    curriculum_validation_mse: float
    baseline_validation_mse: float
    curriculum_forecast_rmse: float
    baseline_forecast_rmse: float
    curriculum_epochs: int
    baseline_epochs: int


@dataclass(frozen=True)
class ComparisonResult:
    per_seed: tuple[SeedComparison, ...]
    curve: PcCurve | None = None

    def median(self, attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in self.per_seed)

    def paired(self, metric: str) -> dict:
        """Curriculum against baseline on `metric` ("validation_mse" or
        "forecast_rmse"), seed by seed: the seeds each arm wins (lower is a
        win), the ties, the exact two-sided sign-test p-value over the untied
        seeds and the median paired difference (curriculum minus baseline)."""
        diffs = [
            getattr(r, f"curriculum_{metric}") - getattr(r, f"baseline_{metric}")
            for r in self.per_seed
        ]
        wins = sum(d < 0.0 for d in diffs)
        losses = sum(d > 0.0 for d in diffs)
        return {
            "curriculum_wins": wins,
            "baseline_wins": losses,
            "ties": len(diffs) - wins - losses,
            "sign_test_p": sign_test_p(wins, losses),
            "median_difference": statistics.median(diffs),
        }


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of `wins` against `losses` (ties
    already excluded): twice the smaller binomial(n, 1/2) tail, capped at 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def _compare_seed(
    std: StandardizedSeries,
    dec: Decomposition,
    holdout: np.ndarray,
    embedding: int,
    counts: tuple[int | None, ...],
    hidden: int,
    params: StageParams,
    seed: int,
    fraction: float,
) -> SeedComparison:
    """Both arms of one seed: curriculum, then a baseline with its budget."""
    cur = curriculum_train(std, dec, embedding, counts, hidden, params, seed, fraction,
                           pin_split=True)
    base = curriculum_train(std, None, embedding, (None,), hidden,
                            replace(params, epochs=cur.total_epochs), seed, fraction)
    forecasts = [forecast_series(run.final_state.network, std, holdout.size).predictions
                 for run in (cur, base)]
    # an overflow is reported below, not warned about
    with np.errstate(over="ignore"):
        cur_rmse, base_rmse = (math.sqrt(mse(f, holdout)) for f in forecasts)
    if not math.isfinite(cur_rmse + base_rmse):  # the sum of squared errors overflowed
        raise NonFiniteOutput(f"seed {seed}: forecast RMSE overflows in original units")
    return SeedComparison(
        seed=seed,
        curriculum_validation_mse=cur.final_state.validation_mse,
        baseline_validation_mse=base.final_state.validation_mse,
        curriculum_forecast_rmse=cur_rmse,
        baseline_forecast_rmse=base_rmse,
        curriculum_epochs=cur.total_epochs,
        baseline_epochs=base.total_epochs,
    )


def compare_curriculum_baseline(
    values,
    window: int,
    embedding: int,
    hidden: int,
    params: StageParams,
    pc_step: int,
    seeds,
    horizon: int,
    fraction: float = DEFAULT_VALIDATION_FRACTION,
) -> ComparisonResult:
    """Paired-seed comparison on one series (original units).

    The last `horizon` samples are held out; both arms train on the rest
    under identical total epoch budgets (early stopping disabled) and then
    forecast the holdout closed-loop.  Pairing: per seed, both arms share
    initial weights and the identical train/validation pair split (pinned
    across curriculum stages), and the baseline budget equals the epochs the
    curriculum consumed, so the reported validation errors differ only
    through the training path.

    The error-vs-p curve of the whole standardized series (run seed: the
    first seed) is returned as `curve`.  The curve and the seeds are
    independent tasks and run side by side (`run_side_by_side`); the results
    do not depend on the number of lanes.  A failure is raised as the serial
    run (curve, then seeds in order) meets it first, carrying `completed`:
    the ComparisonResult of the seeds before it, with `curve` None unless
    the curve finished.
    """
    values = np.asarray(values, dtype=np.float64)
    curve_series = standardize(values)
    if horizon < 1 or horizon >= values.size - embedding - 1:
        raise BadHorizon(
            f"holdout horizon {horizon} leaves too little of the {values.size} samples "
            f"for training with embedding {embedding}"
        )
    seeds = list(seeds)
    if not seeds:  # the curve runs with the first seed
        raise ConfigError("seeds must be non-empty")
    fit = values[: values.size - horizon]
    holdout = values[values.size - horizon :]
    std = standardize(fit)
    counts = stage_counts(window, pc_step)
    dec = decompose(std, window)
    tasks = [(error_vs_pc_curve, (curve_series, window, embedding, hidden, params, seeds[0],
                                  fraction))]
    tasks += [
        (_compare_seed, (std, dec, holdout, embedding, counts, hidden, params, seed, fraction))
        for seed in seeds
    ]
    # each task's epoch budget: the curve's sweep plus its equal-budget
    # baseline, or both arms of a seed
    costs = [2 * (window - 1) * params.epochs] + [2 * len(counts) * params.epochs] * len(seeds)
    outcomes = run_side_by_side(tasks, costs)
    failure = outcomes.pop() if isinstance(outcomes[-1], Exception) else None
    result = ComparisonResult(tuple(outcomes[1:]), outcomes[0] if outcomes else None)
    if failure is not None:
        failure.completed = result
        raise failure
    return result
