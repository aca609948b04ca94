from dataclasses import replace

import numpy as np
import pytest

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.curriculum import (
    ComparisonResult,
    SeedComparison,
    StageParams,
    compare_curriculum_baseline,
    curriculum_train,
    error_vs_pc_curve,
    sign_test_p,
    stage_counts,
)
from ssaforecast.errors import (
    BadComponentCount, BadHorizon, BadStep, ConfigError, DivergenceDetected,
)
from ssaforecast.forecast import forecast_series
from ssaforecast.mlp import init_network, train
from ssaforecast.rng import SplitMix64
from ssaforecast.series import build_embedding, split_validation, standardize
from ssaforecast.ssa import decompose, partial_reconstruction

PARAMS = StageParams(epochs=60, lr=0.05, momentum=0.9)


@pytest.fixture(scope="module")
def bench_series():
    return standardize(two_sine_benchmark(400, seed=0))


# -- stage_counts ---------------------------------------------------------------

def test_schedule_m6_step2():
    assert stage_counts(6, 2) == (2, 4, 6, None)


def test_schedule_m35_step2():
    counts = stage_counts(35, 2)
    assert list(counts[:-1]) == list(range(2, 35, 2)) + [35]
    assert len(counts) == 19
    assert counts[-1] is None


def test_schedule_cap_applies():
    assert stage_counts(5, 10) == (2, 5, None)


def test_schedule_bad_step():
    with pytest.raises(BadStep):
        stage_counts(6, 0)
    with pytest.raises(BadStep):
        stage_counts(1, 1)


# -- curriculum_train ----------------------------------------------------------

@pytest.mark.parametrize("counts", [stage_counts(12, 6), (None,)])
def test_warm_start_continuity(bench_series, counts):
    """Replaying each stage from the previous stage's returned parameters,
    starting from the seed's initial network, reproduces the recorded traces
    and handed-on states bitwise; a raw-only run is the baseline arm."""
    window, m, hidden, seed = 12, 5, 6, 5
    dec = decompose(bench_series, window)
    result = curriculum_train(bench_series, dec, m, counts, hidden, PARAMS, seed)

    net = init_network(m, hidden, seed)
    for idx, p in enumerate(counts):
        source = bench_series.values if p is None else partial_reconstruction(dec, p)
        pairs = build_embedding(source, m)
        split = split_validation(pairs[1].size, 0.10, seed + idx)
        state, trace = train(net, pairs, split, PARAMS.epochs, PARAMS.lr, PARAMS.momentum, 0)
        assert np.array_equal(trace, result.stage_traces[idx])
        np.testing.assert_array_equal(state.network.flat, result.states[idx].network.flat)
        net = state.network
    assert result.final_state is result.states[-1]


def test_stage_traces_partition_epochs(bench_series):
    counts = stage_counts(12, 4)
    result = curriculum_train(bench_series, decompose(bench_series, 12), 5, counts, 6, PARAMS,
                              seed=2)
    assert result.total_epochs == sum(len(t) for t in result.stage_traces)
    assert len(result.stage_traces) == len(result.states) == len(counts)


def test_pinned_split_is_drawn_once(bench_series, monkeypatch):
    """With pin_split=True the first stage draws the split and the later
    stages reuse its pair indices: one permutation for five stages, and each
    stage trains bitwise as on the split the seed draws for its own pairs."""
    window, m, hidden, seed = 12, 5, 6, 4
    counts = stage_counts(window, 4)
    assert len(counts) == 5
    dec = decompose(bench_series, window)
    calls = []
    permutation = SplitMix64.permutation
    monkeypatch.setattr(SplitMix64, "permutation",
                        lambda rng, n: calls.append(n) or permutation(rng, n))
    result = curriculum_train(bench_series, dec, m, counts, hidden, PARAMS, seed, pin_split=True)
    assert len(calls) == 1
    monkeypatch.undo()

    net = init_network(m, hidden, seed)
    for idx, p in enumerate(counts):
        source = bench_series.values if p is None else partial_reconstruction(dec, p)
        pairs = build_embedding(source, m)
        split = split_validation(pairs[1].size, 0.10, seed)
        state, trace = train(net, pairs, split, PARAMS.epochs, PARAMS.lr, PARAMS.momentum, 0)
        assert np.array_equal(trace, result.stage_traces[idx])
        net = state.network


def test_curriculum_bitwise_reproducible(bench_series):
    counts = stage_counts(12, 4)
    a = curriculum_train(bench_series, decompose(bench_series, 12), 5, counts, 6, PARAMS, seed=7)
    b = curriculum_train(bench_series, decompose(bench_series, 12), 5, counts, 6, PARAMS, seed=7)
    assert len(a.stage_traces) == len(b.stage_traces) == len(counts)
    assert all(map(np.array_equal, a.stage_traces, b.stage_traces))
    np.testing.assert_array_equal(
        a.final_state.network.hidden_weights, b.final_state.network.hidden_weights
    )


def test_curriculum_rejects_oversized_stage(bench_series):
    with pytest.raises(BadComponentCount):
        curriculum_train(bench_series, decompose(bench_series, 12), 5, (2, 40, None), 6, PARAMS,
                         seed=0)


@pytest.mark.parametrize("params", [
    StageParams(epochs=0, lr=0.05), StageParams(epochs=10, lr=0.0),
    StageParams(epochs=10, lr=0.05, momentum=1.0),
])
def test_curriculum_rejects_bad_stage_params(bench_series, params):
    with pytest.raises(ConfigError):
        curriculum_train(bench_series, None, 5, (None,), 6, params, seed=0)


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
    full = partial_reconstruction(decompose(bench_series, window), window)
    assert np.max(np.abs(full - bench_series.values)) < 1e-8
    net = init_network(m, 6, seed=4)
    pairs_full = build_embedding(full, m)
    pairs_raw = build_embedding(bench_series.values, m)
    split = split_validation(pairs_raw[1].size, 0.10, 11)
    state_full, _ = train(net, pairs_full, split, 80, 0.05, 0.9, 0)
    state_raw, _ = train(net, pairs_raw, split, 80, 0.05, 0.9, 0)
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


def test_comparison_rmse_scores_the_predict_path():
    # each arm's RMSE is that of forecast_series, in original units, against
    # the held-out tail of the series
    values = two_sine_benchmark(400, seed=3)
    params = StageParams(30, 0.05, 0.9)
    res = compare_curriculum_baseline(values, 12, 5, 6, params, 4, seeds=[5], horizon=25)
    fit, holdout = values[:-25], values[-25:]
    std = standardize(fit)
    cur = curriculum_train(std, decompose(std, 12), 5, stage_counts(12, 4), 6, params, 5,
                           pin_split=True)
    base = curriculum_train(std, None, 5, (None,), 6, replace(params, epochs=cur.total_epochs), 5)
    cur_rmse, base_rmse = (
        np.sqrt(np.mean((forecast_series(run.final_state.network, std, 25).predictions
                         - holdout) ** 2))
        for run in (cur, base)
    )
    record = res.per_seed[0]
    assert record.curriculum_forecast_rmse == pytest.approx(cur_rmse, rel=1e-12)
    assert record.baseline_forecast_rmse == pytest.approx(base_rmse, rel=1e-12)


@pytest.mark.parametrize("wins, losses, p", [
    (7, 3, 352 / 1024),  # 2 * (1 + 10 + 45 + 120) / 2**10
    (3, 7, 352 / 1024),
    (10, 0, 2 / 1024),
    (20, 20, 1.0),
    (0, 0, 1.0),
    (1, 0, 1.0),
])
def test_sign_test_p_values(wins, losses, p):
    assert sign_test_p(wins, losses) == p


def test_paired_summary_counts_wins_ties_and_median_difference():
    def record(seed, cur_val, base_val):
        return SeedComparison(seed, cur_val, base_val, 1.0, 2.0, 10, 10)

    res = ComparisonResult(
        per_seed=(record(0, 1.0, 2.0), record(1, 3.0, 3.0), record(2, 5.0, 4.0),
                  record(3, 0.5, 1.0)),
    )
    assert res.paired("validation_mse") == {
        "curriculum_wins": 2,
        "baseline_wins": 1,
        "ties": 1,
        "sign_test_p": 1.0,
        "median_difference": -0.25,  # median of -1, 0, 1, -0.5
    }
    assert res.paired("forecast_rmse")["curriculum_wins"] == 4
    assert res.paired("forecast_rmse")["sign_test_p"] == 2 / 16


def test_comparison_rejects_oversized_horizon():
    values = two_sine_benchmark(100, seed=0)
    with pytest.raises(BadHorizon):
        compare_curriculum_baseline(
            values, 12, 5, 6, PARAMS, 4, seeds=[0], horizon=95
        )


def test_comparison_rejects_empty_seeds():
    with pytest.raises(ConfigError, match="seeds must be non-empty"):
        compare_curriculum_baseline(two_sine_benchmark(100, seed=0), 12, 5, 6, PARAMS, 4,
                                    seeds=[], horizon=10)


def test_divergence_carries_stage_traces(bench_series):
    with pytest.raises(DivergenceDetected) as err:
        curriculum_train(bench_series, decompose(bench_series, 12), 5, stage_counts(12, 6), 6,
                         StageParams(50, 1e6, 0.0), seed=0)
    assert hasattr(err.value, "stage_traces")
    assert err.value.stage_traces[-1] is err.value.trace
    assert err.value.trace.ndim == 2 and err.value.trace.shape[1] == 2


def test_comparison_failure_carries_completed_seeds():
    values = two_sine_benchmark(400, seed=3)
    with pytest.raises(DivergenceDetected) as err:
        compare_curriculum_baseline(
            values, 12, 5, 6, StageParams(40, 1e6, 0.0), 4, seeds=[0, 1], horizon=30
        )
    assert err.value.completed.per_seed == ()
