import numpy as np
import pytest

from ssaforecast.errors import ConfigError, DimensionMismatch, NonFiniteOutput
from ssaforecast.forecast import forecast_series, multi_step_predict
from ssaforecast.mlp import Network, init_network, train
from ssaforecast.rng import SplitMix64
from ssaforecast.series import StandardizedSeries, build_embedding, split_validation, standardize
from test_mlp import one_step


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
    assert one_step(net, np.array([5.0, -1.0, 2.0])) == 0.0


def test_constructed_copy_net_hits_last_element():
    net = linear_net([0.0, 0.0, 1.0])
    w = np.array([0.3, -0.5, 0.8])
    assert abs(one_step(net, w) - 0.8) < 1e-6


def test_trained_copy_net_approximates_last_element():
    rng = SplitMix64(17)
    inputs, _ = build_embedding(rng.normals(300), 3)
    pairs = (inputs, inputs[:, -1])
    split = split_validation(inputs.shape[0], 0.10, 17)
    state, _ = train(init_network(3, 8, seed=2), pairs, split, epochs=5000, lr=0.1, momentum=0.9,
                     patience=0)
    w = np.array([0.3, -0.5, 0.8])
    assert abs(one_step(state.network, w) - 0.8) < 1e-2


# -- multi_step_predict --------------------------------------------------------

def test_horizon_one_equals_one_step():
    net = init_network(3, 5, seed=9)
    w = SplitMix64(4).normals(3)
    assert multi_step_predict(net, w, 1)[0] == one_step(net, w)


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


def assert_partial(exc, want):
    """`exc.partial` holds `want`, the finite predictions before the failure,
    as a float64 array of its own, not a view of the horizon's buffer."""
    assert exc.partial.dtype == np.float64 and exc.partial.base is None
    np.testing.assert_array_equal(exc.partial, want)


def test_non_finite_output_carries_partial():
    net = Network(np.array([[1.0]]), np.zeros(1), np.array([[1e308]]), np.array([1e308]))
    with pytest.raises(NonFiniteOutput) as err:
        multi_step_predict(net, np.array([1e-3]), 5)
    assert_partial(err.value, [1e308 * np.tanh(1e-3) + 1e308])


def test_overflow_in_original_units_carries_standardized_partial():
    # y = tanh(x) + 1 from x = -100 gives 0, 1, 1.76...; at scale 1.5e308
    # the third step overflows
    net = Network(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.array([1.0]))
    series = StandardizedSeries(np.array([0.0, -100.0]), mean=0.0, scale=1.5e308)
    with pytest.raises(NonFiniteOutput, match="forecast step 3 overflows") as err:
        forecast_series(net, series, 5)
    assert_partial(err.value, [0.0, 1.0])


def test_multi_step_rejects_bad_horizon_and_window():
    net = init_network(3, 2, seed=0)
    with pytest.raises(ConfigError, match="horizon must be at least 1"):
        multi_step_predict(net, np.zeros(3), 0)
    with pytest.raises(DimensionMismatch):
        multi_step_predict(net, np.zeros(4), 3)


def test_multi_step_does_not_mutate_inputs():
    net = init_network(3, 4, seed=2)
    w = np.array([0.1, 0.2, 0.3])
    multi_step_predict(net, w, 5)
    np.testing.assert_array_equal(w, [0.1, 0.2, 0.3])


# -- forecast_series ----------------------------------------------------------------

def test_forecast_series_round_trip():
    rng = SplitMix64(3)
    values = 50.0 + 12.0 * rng.normals(60)
    std = standardize(values)
    net = init_network(5, 6, seed=4)
    result = forecast_series(net, std, 10)
    assert result.horizon == 10
    np.testing.assert_allclose(
        result.standardized_predictions * std.scale + std.mean,
        result.predictions,
        atol=1e-12,
    )
    np.testing.assert_array_equal(result.seed_window, std.values[-5:])


def test_forecast_series_hand_values():
    # copy the newest value at half gain: the standardized forecast halves
    # each step from the last standardized value, then maps back to units
    values = np.array([2.0, 4.0, 6.0, 8.0])
    std = standardize(values)
    result = forecast_series(linear_net([0.0, 1.0], gain=0.5), std, 3)
    last = (8.0 - 5.0) / np.sqrt(5.0)  # mean 5, population std sqrt(5)
    np.testing.assert_allclose(result.standardized_predictions,
                               [last / 2, last / 4, last / 8], rtol=1e-9)
    np.testing.assert_allclose(result.predictions, [6.5, 5.75, 5.375], rtol=1e-9)
    np.testing.assert_array_equal(std.values, (values - 5.0) / np.sqrt(5.0))


def test_forecast_series_rejects_zero_horizon():
    std = standardize(SplitMix64(1).normals(30))
    net = init_network(5, 3, seed=0)
    with pytest.raises(ConfigError):
        forecast_series(net, std, 0)


def test_forecast_series_rejects_short_series():
    std = standardize(SplitMix64(1).normals(4))
    with pytest.raises(DimensionMismatch):
        forecast_series(init_network(5, 3, seed=0), std, 3)
