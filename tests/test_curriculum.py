import numpy as np
import pytest

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.curriculum import (
    CurriculumSchedule,
    StageParams,
    TrainingStage,
    baseline_train,
    compare_curriculum_baseline,
    curriculum_train,
    default_schedule,
    error_vs_pc_curve,
)
from ssaforecast.errors import BadHorizon, BadStep, DivergenceDetected, ScheduleInvalid
from ssaforecast.mlp import init_network, train
from ssaforecast.series import build_embedding, split_validation, standardize
from ssaforecast.ssa import decompose, partial_reconstruction

PARAMS = StageParams(epochs=60, lr=0.05, momentum=0.9)


@pytest.fixture(scope="module")
def bench_series():
    return standardize(two_sine_benchmark(400, seed=0))


def components(series, window):
    _, _, comps = decompose(series, window)
    return comps


# -- default_schedule ---------------------------------------------------------

def test_schedule_m6_step2():
    sched = default_schedule(6, 2, PARAMS)
    assert [s.p for s in sched.stages] == [2, 4, 6, None]


def test_schedule_m35_step2():
    sched = default_schedule(35, 2, PARAMS)
    ps = [s.p for s in sched.stages if not s.is_raw]
    assert ps == list(range(2, 35, 2)) + [35]
    assert len(sched.stages) == 19
    assert sched.stages[-1].is_raw


def test_schedule_cap_applies():
    sched = default_schedule(5, 10, PARAMS)
    assert [s.p for s in sched.stages] == [2, 5, None]


def test_schedule_bad_step():
    with pytest.raises(BadStep):
        default_schedule(6, 0, PARAMS)
    with pytest.raises(BadStep):
        default_schedule(1, 1, PARAMS)


def test_schedule_validation():
    with pytest.raises(ScheduleInvalid):
        CurriculumSchedule((), 2)
    with pytest.raises(ScheduleInvalid):
        CurriculumSchedule((TrainingStage(2, PARAMS),), 2)  # missing final raw
    with pytest.raises(ScheduleInvalid):
        CurriculumSchedule(
            (TrainingStage(4, PARAMS), TrainingStage(2, PARAMS), TrainingStage(None, PARAMS)), 2
        )
    with pytest.raises(ScheduleInvalid):
        CurriculumSchedule(
            (TrainingStage(None, PARAMS), TrainingStage(2, PARAMS)), 2
        )
    with pytest.raises(ScheduleInvalid):
        StageParams(epochs=0, lr=0.1)


def test_raw_only_schedule_allowed():
    sched = CurriculumSchedule((TrainingStage(None, PARAMS),), 2)
    assert len(sched.stages) == 1


# -- curriculum_train ----------------------------------------------------------

def test_degenerate_raw_only_equals_baseline(bench_series):
    sched = CurriculumSchedule((TrainingStage(None, PARAMS),), 2)
    result = curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=3, patience=None)
    base_state, base_trace = baseline_train(
        bench_series, 5, 6, PARAMS.epochs, PARAMS.lr, PARAMS.momentum, seed=3, patience=None
    )
    assert list(result.stage_traces[0]) == base_trace
    np.testing.assert_array_equal(
        result.final_state.network.hidden_weights, base_state.network.hidden_weights
    )
    np.testing.assert_array_equal(
        result.final_state.network.output_bias, base_state.network.output_bias
    )


def test_same_seed_shares_initial_network(bench_series):
    sched = default_schedule(12, 4, PARAMS)
    result = curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=9, patience=None)
    base_init = init_network(5, 6, seed=9)
    np.testing.assert_array_equal(result.initial_network.hidden_weights, base_init.hidden_weights)
    np.testing.assert_array_equal(result.initial_network.output_weights, base_init.output_weights)


def test_warm_start_continuity(bench_series):
    """Replaying each stage from the previous stage's returned parameters
    reproduces the recorded traces bitwise."""
    window, m, hidden, seed = 12, 5, 6, 5
    sched = default_schedule(window, 6, PARAMS)
    result = curriculum_train(bench_series, components(bench_series, window), m, sched, hidden, seed, patience=None)

    _, _, comps = decompose(bench_series, window)
    net = init_network(m, hidden, seed)
    for idx, stage in enumerate(sched.stages):
        source = (
            bench_series.values if stage.is_raw else partial_reconstruction(comps, stage.p)
        )
        split = split_validation(build_embedding(source, m), 0.10, seed + idx)
        state, trace = train(net, split, stage.params.epochs, stage.params.lr, stage.params.momentum, None)
        assert tuple(trace) == result.stage_traces[idx]
        net = state.network


def test_stage_boundaries_partition_trace(bench_series):
    sched = default_schedule(12, 4, PARAMS)
    result = curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=2, patience=None)
    lengths = [len(t) for t in result.stage_traces]
    assert list(result.stage_boundaries) == list(np.cumsum(lengths))
    assert result.total_epochs == sum(lengths)
    assert len(result.stage_traces) == len(sched.stages)


def test_curriculum_bitwise_reproducible(bench_series):
    sched = default_schedule(12, 4, PARAMS)
    a = curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=7, patience=None)
    b = curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=7, patience=None)
    assert a.stage_traces == b.stage_traces
    np.testing.assert_array_equal(
        a.final_state.network.hidden_weights, b.final_state.network.hidden_weights
    )


def test_curriculum_rejects_oversized_stage(bench_series):
    sched = CurriculumSchedule(
        (TrainingStage(2, PARAMS), TrainingStage(40, PARAMS), TrainingStage(None, PARAMS)), 2
    )
    with pytest.raises(ScheduleInvalid):
        curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=0)


def test_config_echo_records_stages(bench_series):
    sched = default_schedule(8, 2, PARAMS)
    result = curriculum_train(bench_series, components(bench_series, 8), 4, sched, 5, seed=1, patience=None)
    echo = result.config_echo
    assert echo["window"] == 8 and echo["embedding"] == 4 and echo["seed"] == 1
    assert echo["stages"][-1]["source"] == "raw"
    assert echo["stages"][0]["source"] == 2


# -- error_vs_pc_curve -----------------------------------------------------------

def test_curve_point_count(bench_series):
    curve = error_vs_pc_curve(bench_series, 8, 4, 5, PARAMS, seed=0)
    assert [pt.p for pt in curve.points] == list(range(2, 9))
    assert curve.curriculum_epochs == 7 * PARAMS.epochs
    assert curve.baseline_epochs == curve.curriculum_epochs


def test_full_reconstruction_trains_like_raw(bench_series):
    """Completeness consequence: the p = M source equals the raw series to
    1e-8, so identical training runs on the two sources stay equivalent."""
    window, m = 12, 5
    _, _, comps = decompose(bench_series, window)
    full = partial_reconstruction(comps, window)
    assert np.max(np.abs(full - bench_series.values)) < 1e-8
    net = init_network(m, 6, seed=4)
    split_full = split_validation(build_embedding(full, m), 0.10, 11)
    split_raw = split_validation(build_embedding(bench_series.values, m), 0.10, 11)
    state_full, _ = train(net, split_full, 80, 0.05, 0.9, None)
    state_raw, _ = train(net, split_raw, 80, 0.05, 0.9, None)
    assert state_full.train_mse == pytest.approx(state_raw.train_mse, rel=1e-5)
    assert state_full.validation_mse == pytest.approx(state_raw.validation_mse, rel=1e-5)


@pytest.mark.slow
def test_curve_tail_reaches_baseline_level():
    """Qualitative shape on the benchmark: the large-p (noise-included)
    region is the curve's minimum and lands at or below ~1.1x the raw
    baseline level."""
    std = standardize(two_sine_benchmark(600, seed=0))
    params = StageParams(200, 0.05, 0.9)
    for seed in (0, 1, 2):
        curve = error_vs_pc_curve(std, 35, 5, 10, params, seed)
        vals = np.array([pt.validation_mse for pt in curve.points])
        assert int(np.argmin(vals)) >= len(vals) // 2
        assert vals[-1] <= vals[0]
        assert vals[-1] <= 1.1 * curve.baseline_validation_mse


# -- compare_curriculum_baseline ---------------------------------------------------

def test_comparison_budgets_equal(bench_series):
    values = two_sine_benchmark(400, seed=3)
    res = compare_curriculum_baseline(
        values, 12, 5, 6, StageParams(40, 0.05, 0.9), 4, seeds=[0, 1], horizon=30
    )
    assert len(res.per_seed) == 2
    for record in res.per_seed:
        assert record.curriculum_epochs == record.baseline_epochs
    assert res.median("curriculum_epochs") == res.per_seed[0].curriculum_epochs


def test_comparison_deterministic():
    values = two_sine_benchmark(400, seed=3)
    a = compare_curriculum_baseline(
        values, 12, 5, 6, StageParams(30, 0.05, 0.9), 4, seeds=[5], horizon=25
    )
    b = compare_curriculum_baseline(
        values, 12, 5, 6, StageParams(30, 0.05, 0.9), 4, seeds=[5], horizon=25
    )
    assert a.per_seed == b.per_seed


def test_comparison_rejects_oversized_horizon():
    values = two_sine_benchmark(100, seed=0)
    with pytest.raises(BadHorizon):
        compare_curriculum_baseline(
            values, 12, 5, 6, PARAMS, 4, seeds=[0], horizon=95
        )


def test_divergence_carries_stage_traces(bench_series):
    sched = default_schedule(12, 6, StageParams(50, 1e6, 0.0))
    with pytest.raises(DivergenceDetected) as err:
        curriculum_train(bench_series, components(bench_series, 12), 5, sched, 6, seed=0, patience=None)
    assert hasattr(err.value, "stage_traces")
    assert isinstance(err.value.stage_traces[-1], tuple)


def test_comparison_failure_carries_completed_seeds():
    values = two_sine_benchmark(400, seed=3)
    with pytest.raises(DivergenceDetected) as err:
        compare_curriculum_baseline(
            values, 12, 5, 6, StageParams(40, 1e6, 0.0), 4, seeds=[0, 1], horizon=30
        )
    assert err.value.completed_seeds == ()
