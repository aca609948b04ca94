import numpy as np
import pytest
from dataclasses import replace

from ssaforecast.errors import (
    DimensionMismatch,
    LengthMismatch,
    NonFiniteOutput,
    ZeroVarianceTargets,
)
from ssaforecast.forecast import evaluate, forecast_series, multi_step_predict
from ssaforecast.mlp import Network, forward, init_network, train
from ssaforecast.rng import SplitMix64
from ssaforecast.series import build_embedding, split_validation, standardize


def linear_net(coeffs, gain=1.0, eps=1e-8):
    """Effectively-linear network: prediction = gain * dot(coeffs, window).

    One tanh unit per input, driven at amplitude eps where tanh is identity
    to within ~eps^2/3 relative error.
    """
    m = len(coeffs)
    hw = np.zeros((m, m))
    ow = np.zeros((1, m))
    for i, c in enumerate(coeffs):
        hw[i, i] = eps
        ow[0, i] = gain * c / eps
    return Network(hw, np.zeros(m), ow, np.zeros(1))


def test_one_step_zero_network():
    net = Network(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)), np.zeros(1))
    assert forward(net, np.array([5.0, -1.0, 2.0])) == 0.0


def test_constructed_copy_net_hits_last_element():
    net = linear_net([0.0, 0.0, 1.0])
    w = np.array([0.3, -0.5, 0.8])
    assert abs(forward(net, w) - 0.8) < 1e-6


def test_trained_copy_net_approximates_last_element():
    rng = SplitMix64(17)
    ds = build_embedding(rng.normals(300), 3)
    ds = replace(ds, targets=ds.inputs[:, -1].copy())
    split = split_validation(ds, 0.10, 17)
    state, _ = train(init_network(3, 8, seed=2), split, epochs=5000, lr=0.1, momentum=0.9, patience=None)
    w = np.array([0.3, -0.5, 0.8])
    assert abs(forward(state.network, w) - 0.8) < 1e-2


# -- multi_step_predict --------------------------------------------------------

def test_horizon_one_equals_one_step():
    net = init_network(3, 5, seed=9)
    w = SplitMix64(4).normals(3)
    assert multi_step_predict(net, w, 1)[0] == forward(net, w)


def test_contraction_halves_each_step():
    net = linear_net([0.0, 1.0], gain=0.5)
    preds = multi_step_predict(net, np.array([0.7, 1.0]), 6)
    np.testing.assert_allclose(preds, [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625], rtol=1e-9)


def test_window_rolls_oldest_out():
    # reads the OLDEST element: [a, b] -> a/2, so the roll order is observable
    net = linear_net([1.0, 0.0], gain=0.5)
    preds = multi_step_predict(net, np.array([0.8, 0.4]), 4)
    np.testing.assert_allclose(preds, [0.4, 0.2, 0.2, 0.1], rtol=1e-9)


def test_prefix_consistency():
    net = init_network(4, 8, seed=12)
    w = SplitMix64(5).normals(4)
    full = multi_step_predict(net, w, 9)
    for h in range(1, 9):
        np.testing.assert_array_equal(multi_step_predict(net, w, h), full[:h])


def test_six_year_monthly_horizon():
    net = init_network(5, 4, seed=1)
    preds = multi_step_predict(net, np.zeros(5), 72)
    assert preds.shape == (72,)


def test_non_finite_output_carries_partial():
    net = Network(np.array([[1.0]]), np.zeros(1), np.array([[1e308]]), np.array([1e308]))
    with pytest.raises(NonFiniteOutput) as err:
        multi_step_predict(net, np.array([1e-3]), 5)
    assert len(err.value.partial) == 1
    assert np.isfinite(err.value.partial[0])


def test_multi_step_rejects_bad_horizon_and_window():
    net = init_network(3, 2, seed=0)
    with pytest.raises(ValueError):
        multi_step_predict(net, np.zeros(3), 0)
    with pytest.raises(DimensionMismatch):
        multi_step_predict(net, np.zeros(4), 3)


def test_multi_step_does_not_mutate_inputs():
    net = init_network(3, 4, seed=2)
    w = np.array([0.1, 0.2, 0.3])
    multi_step_predict(net, w, 5)
    np.testing.assert_array_equal(w, [0.1, 0.2, 0.3])


# -- evaluate --------------------------------------------------------------------

def test_evaluate_perfect():
    metrics = evaluate([1.0, 2.0], [1.0, 2.0])
    assert metrics.rmse == 0.0 and metrics.nrmse == 0.0


def test_evaluate_hand_values():
    metrics = evaluate([0.0, 0.0], [1.0, -1.0])
    assert metrics.rmse == pytest.approx(1.0)
    assert metrics.nrmse == pytest.approx(1.0)
    assert metrics.horizon == 2


def test_evaluate_constant_targets():
    with pytest.raises(ZeroVarianceTargets) as err:
        evaluate([1.0, 2.0], [3.0, 3.0])
    assert err.value.rmse == pytest.approx(np.sqrt((4.0 + 1.0) / 2.0))


def test_evaluate_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        evaluate([], [])


def test_evaluate_scale_invariance():
    rng = SplitMix64(8)
    preds = rng.normals(40)
    actual = rng.normals(40)
    std_metrics = evaluate(preds, actual)
    scaled = evaluate(3.5 * preds + 2.0, 3.5 * actual + 2.0)
    assert scaled.rmse == pytest.approx(3.5 * std_metrics.rmse, rel=1e-12)
    assert scaled.nrmse == pytest.approx(std_metrics.nrmse, rel=1e-12)


# -- forecast_series ----------------------------------------------------------------

def test_forecast_series_round_trip_and_timestamps():
    rng = SplitMix64(3)
    values = 50.0 + 12.0 * rng.normals(60)
    ts = 2000.0 + np.arange(60) / 12.0
    std = standardize(values)
    net = init_network(5, 6, seed=4)
    result = forecast_series(net, std, 10, ts)
    assert result.horizon == 10
    np.testing.assert_allclose(
        result.standardized_predictions * std.scale + std.mean,
        result.predictions,
        atol=1e-12,
    )
    np.testing.assert_allclose(np.diff(result.timestamps), 1.0 / 12.0, atol=1e-9)
    assert result.timestamps[0] == pytest.approx(ts[-1] + 1.0 / 12.0)
    np.testing.assert_array_equal(result.seed_window, std.values[-5:])


def test_forecast_series_rejects_zero_horizon():
    std = standardize(SplitMix64(1).normals(30))
    net = init_network(5, 3, seed=0)
    with pytest.raises(ValueError):
        forecast_series(net, std, 0, np.arange(30.0))


def test_forecast_peak():
    rng = SplitMix64(9)
    values = rng.normals(40)
    std = standardize(values)
    net = init_network(3, 5, seed=11)
    result = forecast_series(net, std, 8, np.arange(40.0))
    t, v = result.peak()
    i = int(np.argmax(result.predictions))
    assert v == result.predictions[i] and t == result.timestamps[i]
