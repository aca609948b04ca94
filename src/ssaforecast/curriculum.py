"""Coarse-to-fine training: fit the network on a 2-component reconstruction
first, re-train on progressively richer reconstructions, and finish on the
raw series.  One network persists across stages (warm start).  A raw-only
baseline trainer with the same embedding/split/initialization rules serves as
the comparison arm."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import BadHorizon, BadStep, DivergenceDetected, RuntimeFailure, ScheduleInvalid
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
    curve: PcCurve | None = None

    def median(self, attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in self.per_seed)


def assign_lanes(costs, lanes: int) -> list[list[int]]:
    """Spread task indices over `lanes` lanes: longest task first, each onto
    the least-loaded lane (the lowest-numbered one on a tie).  Each lane
    lists its tasks in index order, the order they would run serially."""
    loads = [0] * lanes
    assigned: list[list[int]] = [[] for _ in range(lanes)]
    for task in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        lane = min(range(lanes), key=loads.__getitem__)
        assigned[lane].append(task)
        loads[lane] += costs[task]
    return [sorted(lane) for lane in assigned]


def _run_lane(tasks, lane):
    """Yield the outcome (result or exception) of each of the lane's tasks
    and stop after the first exception: every later task of the lane comes
    after it in the serial order, so no caller needs its outcome."""
    for index in lane:
        fn, args = tasks[index]
        try:
            outcome = fn(*args)
        except Exception as exc:
            outcome = exc
        yield outcome
        if isinstance(outcome, Exception):
            return


def _lane_worker(tasks, lane, conn) -> None:
    for outcome in _run_lane(tasks, lane):
        conn.send(outcome)
    conn.close()


def _receive(conn, proc):
    """The next outcome a worker lane sends; a worker that died is a
    RuntimeFailure of the task it was running."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        return RuntimeFailure(
            f"compare worker process exited with code {proc.exitcode} before finishing"
        )


def run_side_by_side(tasks, costs) -> dict[int, object]:
    """Run independent `(fn, args)` tasks on up to one lane per CPU this
    process may use, and map each task index to its result or exception.

    Lane 0 runs in this process; every other lane runs in one forked worker,
    which inherits the tasks, so nothing but outcomes is pickled.  One lane
    (one CPU, one task, or no fork) is the serial run.  A task's exception,
    whatever its type, is its outcome, so failures do not depend on the lane
    a task ran in.  The serial run stops at its first failure, so a task
    after a failed one may get no outcome, and its worker is stopped early.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    lanes = assign_lanes(costs, max(1, min(cpus, len(tasks))))
    workers = []
    try:
        if len(lanes) > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                lanes = assign_lanes(costs, 1)
            for lane in lanes[1:]:
                reader, writer = context.Pipe(duplex=False)
                proc = context.Process(target=_lane_worker, args=(tasks, lane, writer))
                proc.start()
                # the next worker must not inherit this write end, or EOF
                # would never arrive if this one died
                writer.close()
                workers.append((lane, reader, proc))
        outcomes = dict(zip(lanes[0], _run_lane(tasks, lanes[0])))
        for lane, reader, proc in workers:
            for index in lane:
                if any(isinstance(outcomes[i], Exception) for i in outcomes if i < index):
                    break
                outcomes[index] = _receive(reader, proc)
    finally:
        for _, reader, proc in workers:
            # a worker still running holds only tasks whose outcome is not needed
            proc.terminate()
            proc.join()
            reader.close()
    return outcomes


def _compare_seed(
    std: StandardizedSeries,
    components: ComponentSet,
    holdout: np.ndarray,
    embedding: int,
    schedule: CurriculumSchedule,
    hidden: int,
    params: StageParams,
    seed: int,
    fraction: float,
) -> SeedComparison:
    """Both arms of one seed: curriculum, then a baseline with its budget."""
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
        multi_step_predict(cur.final_state.network, seed_window, holdout.size),
        std.mean, std.scale,
    )
    base_pred = destandardize(
        multi_step_predict(base_state.network, seed_window, holdout.size),
        std.mean, std.scale,
    )
    return SeedComparison(
        seed=seed,
        curriculum_validation_mse=cur.final_state.validation_mse,
        baseline_validation_mse=base_state.validation_mse,
        curriculum_forecast_rmse=evaluate(cur_pred, holdout).rmse,
        baseline_forecast_rmse=evaluate(base_pred, holdout).rmse,
        curriculum_epochs=cur.total_epochs,
        baseline_epochs=len(base_trace),
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
    curve_series: StandardizedSeries | None = None,
) -> ComparisonResult:
    """Paired-seed comparison on one series (original units).

    The last `horizon` samples are held out; both arms train on the rest
    under identical total epoch budgets (early stopping disabled) and then
    forecast the holdout closed-loop.  Pairing: per seed, both arms share
    initial weights and the identical train/validation pair split (pinned
    across curriculum stages), and the baseline budget equals the epochs the
    curriculum consumed, so the reported validation errors differ only
    through the training path.

    With `curve_series`, the error-vs-p curve of that series (run seed: the
    first seed) is computed too and returned as `curve`.  The curve and the
    seeds are independent tasks and run side by side (`run_side_by_side`);
    the results do not depend on the number of lanes.  A failure is raised
    as the serial run (curve, then seeds in order) meets it first, carrying
    `completed_seeds` (the seeds before it) and `curve` (None unless the
    curve finished).
    """
    values = np.asarray(values, dtype=np.float64)
    if horizon < 1 or horizon >= values.size - embedding - 1:
        raise BadHorizon(
            f"holdout horizon {horizon} leaves too little of the {values.size} samples "
            f"for training with embedding {embedding}"
        )
    seeds = list(seeds)
    fit = values[: values.size - horizon]
    holdout = values[values.size - horizon :]
    std = standardize(fit)
    schedule = default_schedule(window, pc_step, params)
    _, _, components = decompose(std, window)
    tasks = [
        (_compare_seed, (std, components, holdout, embedding, schedule, hidden, params, seed,
                         fraction))
        for seed in seeds
    ]
    # each task's epoch budget: both arms of a seed, or the curve's sweep
    # plus its equal-budget baseline
    costs = [2 * len(schedule.stages) * params.epochs] * len(tasks)
    if curve_series is not None:
        tasks.insert(0, (error_vs_pc_curve, (curve_series, window, embedding, hidden, params,
                                             seeds[0], fraction)))
        costs.insert(0, 2 * (window - 1) * params.epochs)
    outcomes = run_side_by_side(tasks, costs)
    curve = None
    results: list[SeedComparison] = []
    for index in range(len(tasks)):
        outcome = outcomes[index]
        if isinstance(outcome, Exception):
            # callers can still report the curve and every seed before it
            outcome.completed_seeds = tuple(results)
            outcome.curve = curve
            raise outcome
        if isinstance(outcome, PcCurve):
            curve = outcome
        else:
            results.append(outcome)
    return ComparisonResult(per_seed=tuple(results), horizon=horizon, curve=curve)
