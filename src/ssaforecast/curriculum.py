"""Coarse-to-fine training: fit the network on a 2-component reconstruction
first, re-train on progressively richer reconstructions, and finish on the
raw series.  One network persists across stages (warm start).  A raw-only
baseline trainer with the same embedding/split/initialization rules serves as
the comparison arm."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import BadStep, DivergenceDetected, RuntimeFailure, ScheduleInvalid
from .forecast import evaluate, multi_step_predict
from .mlp import Network, TraceEntry, TrainState, forward_batch, init_network, mse, train
from .series import StandardizedSeries, build_embedding, destandardize, split_validation, standardize
from .ssa import ComponentSet, decompose, partial_reconstruction

DEFAULT_VALIDATION_FRACTION = 0.10


@dataclass(frozen=True)
class StageParams:
    epochs: int
    lr: float
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise ScheduleInvalid("stage epochs must be at least 1")
        if self.lr <= 0.0:
            raise ScheduleInvalid("stage learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ScheduleInvalid("stage momentum must lie in [0, 1)")


@dataclass(frozen=True)
class TrainingStage:
    """One curriculum stage: train on the p-component reconstruction, or on
    the raw series when p is None."""

    p: int | None
    params: StageParams

    @property
    def is_raw(self) -> bool:
        return self.p is None


@dataclass(frozen=True)
class CurriculumSchedule:
    stages: tuple[TrainingStage, ...]
    pc_step: int

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ScheduleInvalid("schedule needs at least one stage")
        if not self.stages[-1].is_raw:
            raise ScheduleInvalid("the final stage must train on the raw series")
        ps = [s.p for s in self.stages if not s.is_raw]
        if any(not s.is_raw for s in self.stages[len(ps):]):
            raise ScheduleInvalid("reconstruction stages must precede the raw stage")
        if any(a >= b for a, b in zip(ps, ps[1:])):
            raise ScheduleInvalid("component counts must be strictly increasing")
        if ps and any(p < 1 for p in ps):
            raise ScheduleInvalid("component counts must be positive")


def default_schedule(window: int, pc_step: int, params: StageParams) -> CurriculumSchedule:
    """Stages at p = 2, 2+pc_step, ... capped at the window size, then raw."""
    if window < 2:
        raise BadStep("window must be at least 2")
    if pc_step < 1:
        raise BadStep(f"pc_step must be at least 1, got {pc_step}")
    ps = list(range(2, window + 1, pc_step))
    if ps[-1] != window:
        ps.append(window)
    stages = [TrainingStage(p, params) for p in ps]
    stages.append(TrainingStage(None, params))
    return CurriculumSchedule(tuple(stages), pc_step)


@dataclass(frozen=True)
class CurriculumResult:
    final_state: TrainState
    stage_traces: tuple[tuple[TraceEntry, ...], ...]
    stage_boundaries: tuple[int, ...]  # cumulative epochs after each stage
    config_echo: dict
    initial_network: Network
    total_epochs: int


def _stage_source(components, series: StandardizedSeries, stage: TrainingStage) -> np.ndarray:
    if stage.is_raw:
        return series.values
    return partial_reconstruction(components, stage.p)


def curriculum_train(
    series: StandardizedSeries,
    components: ComponentSet,
    embedding: int,
    schedule: CurriculumSchedule,
    hidden: int,
    seed: int,
    fraction: float = DEFAULT_VALIDATION_FRACTION,
    patience: int | None = None,
    pin_split: bool = False,
) -> CurriculumResult:
    """Run every stage on one warm-started network.

    `components` is the decomposition of `series` (its window is the run's
    window), computed once by the caller and shared by all stages and seeds.
    Each stage embeds its own source series (filtered inputs predict filtered
    targets), re-draws the validation split with seed + stage index, and
    hands its returned parameters to the next stage.  With pin_split=True all
    stages reuse the seed-drawn split (same pair indices throughout), which
    makes a run directly comparable to a baseline run on the same seed.
    """
    window = components.window
    for stage in schedule.stages:
        if not stage.is_raw and stage.p > window:
            raise ScheduleInvalid(f"stage component count {stage.p} exceeds window {window}")
    net = init_network(embedding, hidden, seed)
    initial = net
    traces: list[tuple[TraceEntry, ...]] = []
    boundaries: list[int] = []
    total = 0
    state = None
    for idx, stage in enumerate(schedule.stages):
        source = _stage_source(components, series, stage)
        dataset = build_embedding(source, embedding)
        split = split_validation(dataset, fraction, seed if pin_split else seed + idx)
        try:
            state, trace = train(
                net, split, stage.params.epochs, stage.params.lr, stage.params.momentum, patience
            )
        except DivergenceDetected as exc:
            # keep every completed stage alongside the failing stage's prefix
            exc.stage_traces = tuple(traces) + (tuple(exc.trace),)
            raise
        net = state.network
        traces.append(tuple(trace))
        total += len(trace)
        boundaries.append(total)
    echo = {
        "window": window,
        "embedding": embedding,
        "hidden": hidden,
        "seed": seed,
        "fraction": fraction,
        "patience": patience,
        "pin_split": pin_split,
        "pc_step": schedule.pc_step,
        "stages": [
            {
                "source": "raw" if s.is_raw else s.p,
                "epochs": s.params.epochs,
                "lr": s.params.lr,
                "momentum": s.params.momentum,
            }
            for s in schedule.stages
        ],
    }
    return CurriculumResult(
        final_state=state,
        stage_traces=tuple(traces),
        stage_boundaries=tuple(boundaries),
        config_echo=echo,
        initial_network=initial,
        total_epochs=total,
    )


def baseline_train(
    series: StandardizedSeries,
    embedding: int,
    hidden: int,
    epochs: int,
    lr: float,
    momentum: float,
    seed: int,
    fraction: float = DEFAULT_VALIDATION_FRACTION,
    patience: int | None = None,
) -> tuple[TrainState, list[TraceEntry]]:
    """One-shot training on the raw series with the same embedding, split,
    and initialization rules as the curriculum path (same seed gives the same
    initial weights and, for a raw-only schedule, the identical run)."""
    dataset = build_embedding(series.values, embedding)
    split = split_validation(dataset, fraction, seed)
    net = init_network(embedding, hidden, seed)
    return train(net, split, epochs, lr, momentum, patience)


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
    _, _, components = decompose(series, window)
    raw_dataset = build_embedding(series.values, embedding)
    raw_split = split_validation(raw_dataset, fraction, seed)
    net = init_network(embedding, hidden, seed)
    points: list[PcCurvePoint] = []
    total = 0
    for idx, p in enumerate(range(2, window + 1)):
        source = partial_reconstruction(components, p)
        dataset = build_embedding(source, embedding)
        split = split_validation(dataset, fraction, seed + idx)
        state, trace = train(net, split, params.epochs, params.lr, params.momentum, patience=None)
        net = state.network
        total += len(trace)
        train_err = mse(forward_batch(net, raw_split.train.inputs), raw_split.train.targets)
        val_err = mse(forward_batch(net, raw_split.validation.inputs), raw_split.validation.targets)
        points.append(PcCurvePoint(p=p, train_mse=train_err, validation_mse=val_err))
    base_state, base_trace = baseline_train(
        series, embedding, hidden, total, params.lr, params.momentum, seed, fraction, patience=None
    )
    base_net = base_state.network
    return PcCurve(
        points=tuple(points),
        baseline_train_mse=mse(
            forward_batch(base_net, raw_split.train.inputs), raw_split.train.targets
        ),
        baseline_validation_mse=mse(
            forward_batch(base_net, raw_split.validation.inputs), raw_split.validation.targets
        ),
        curriculum_epochs=total,
        baseline_epochs=len(base_trace),
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
    horizon: int
    records: dict = field(default_factory=dict)

    def median(self, attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in self.per_seed)


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
    """
    values = np.asarray(values, dtype=np.float64)
    if horizon < 1 or horizon >= values.size - embedding - 1:
        raise ValueError("holdout horizon leaves too little data for training")
    fit = values[: values.size - horizon]
    holdout = values[values.size - horizon :]
    std = standardize(fit)
    schedule = default_schedule(window, pc_step, params)
    _, _, components = decompose(std, window)
    results: list[SeedComparison] = []
    for seed in seeds:
        try:
            cur = curriculum_train(
                std, components, embedding, schedule, hidden, seed, fraction, patience=None,
                pin_split=True,
            )
            base_state, base_trace = baseline_train(
                std, embedding, hidden, cur.total_epochs, params.lr, params.momentum,
                seed, fraction, patience=None,
            )
            seed_window = std.values[-embedding:]
            cur_pred = destandardize(
                multi_step_predict(cur.final_state.network, seed_window, horizon),
                std.mean, std.scale,
            )
            base_pred = destandardize(
                multi_step_predict(base_state.network, seed_window, horizon),
                std.mean, std.scale,
            )
        except RuntimeFailure as exc:
            # callers can still report every seed that finished
            exc.completed_seeds = tuple(results)
            raise
        results.append(
            SeedComparison(
                seed=seed,
                curriculum_validation_mse=cur.final_state.validation_mse,
                baseline_validation_mse=base_state.validation_mse,
                curriculum_forecast_rmse=evaluate(cur_pred, holdout).rmse,
                baseline_forecast_rmse=evaluate(base_pred, holdout).rmse,
                curriculum_epochs=cur.total_epochs,
                baseline_epochs=len(base_trace),
            )
        )
    return ComparisonResult(per_seed=tuple(results), horizon=horizon)
