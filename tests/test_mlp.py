import json
import math
import tracemalloc
import numpy as np
import pytest

from ssaforecast.errors import (
    BadDimensions,
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyBatch,
    EmptyInput,
    LengthMismatch,
)
from ssaforecast.mlp import (
    Batch,
    Network,
    backprop_gradient,
    forward_batch,
    gd_step,
    init_network,
    mse,
    network_from_dict,
    network_to_dict,
    train,
)
from ssaforecast.jsonio import dumps
from ssaforecast.rng import SplitMix64
from ssaforecast.series import build_embedding, split_validation


def zero_network(m=1, h=1):
    return Network(np.zeros((h, m)), np.zeros(h), np.zeros((1, h)), np.zeros(1))


def one_step(net, x) -> float:
    """The prediction for one input: forward_batch on a one-row Batch."""
    return float(forward_batch(net, Batch([x], None, net.hidden_dim))[0])


def random_network(m, h, seed, scale=1.0):
    rng = SplitMix64(seed)
    return Network(
        rng.uniforms(h * m, -scale, scale).reshape(h, m),
        rng.uniforms(h, -scale, scale),
        rng.uniforms(h, -scale, scale).reshape(1, h),
        rng.uniforms(1, -scale, scale),
    )


def make_split(n, m, seed, target_fn=None, noise=0.0):
    """(pairs, split): the embedded series, or its inputs with targets from
    `target_fn`, and a 10% validation split."""
    rng = SplitMix64(seed)
    series = rng.normals(n)
    inputs, targets = build_embedding(series, m)
    if target_fn is not None:
        targets = np.array([target_fn(x) for x in inputs])
        if noise:
            targets = targets + noise * rng.normals(len(targets))
    return (inputs, targets), split_validation(targets.size, 0.10, seed)


# -- init_network -------------------------------------------------------------

def test_init_deterministic():
    a = init_network(5, 10, seed=42)
    b = init_network(5, 10, seed=42)
    np.testing.assert_array_equal(a.hidden_weights, b.hidden_weights)
    np.testing.assert_array_equal(a.output_weights, b.output_weights)


def test_init_shapes():
    net = init_network(5, 10, seed=0)
    assert net.hidden_weights.shape == (10, 5)
    assert net.output_weights.shape == (1, 10)
    assert net.hidden_biases.shape == (10,)
    assert net.output_bias.shape == (1,)
    assert np.all(net.hidden_biases == 0.0) and net.output_bias[0] == 0.0


def test_init_bounds_over_many_seeds():
    bound_h = 1.0 / math.sqrt(5)
    bound_o = 1.0 / math.sqrt(10)
    for seed in range(1000):
        net = init_network(5, 10, seed)
        assert np.all(np.abs(net.hidden_weights) <= bound_h)
        assert np.all(np.abs(net.output_weights) <= bound_o)


def test_init_bad_dimensions():
    with pytest.raises(BadDimensions):
        init_network(0, 5, seed=1)
    with pytest.raises(BadDimensions):
        init_network(5, 0, seed=1)


# -- forward -------------------------------------------------------------------

def test_forward_zero_network():
    net = zero_network(4, 3)
    assert one_step(net, np.ones(4)) == 0.0


def test_forward_is_tanh_for_unit_scalar_net():
    net = Network(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
    assert one_step(net, [0.5]) == pytest.approx(0.46211715726000974, abs=1e-12)
    assert one_step(net, [0.0]) == 0.0


def test_forward_output_layer_affine():
    net = random_network(3, 4, seed=5, scale=0.5)
    doubled = Network(
        net.hidden_weights, net.hidden_biases, 2.0 * net.output_weights, 2.0 * net.output_bias
    )
    x = np.array([0.3, -0.2, 0.9])
    assert one_step(doubled, x) == pytest.approx(2.0 * one_step(net, x), rel=1e-12)


def test_forward_dimension_mismatch():
    net = zero_network(3, 2)
    with pytest.raises(DimensionMismatch):
        one_step(net, np.ones(4))
    with pytest.raises(DimensionMismatch):
        forward_batch(net, Batch(np.ones((5, 4)), None, 2))


# -- mse -------------------------------------------------------------------------

def test_mse_perfect_fit():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_mse_unit_errors():
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_mse_hand_value():
    assert mse([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(14.0 / 3.0)


def test_mse_errors():
    with pytest.raises(LengthMismatch):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(EmptyInput):
        mse([], [])


# -- backprop_gradient -----------------------------------------------------------

def finite_difference_gradient(net, inputs, targets, step=1e-6):
    """Central differences on the batch MSE, one flat parameter entry at a
    time; a flat vector in the network's layout, like backprop_gradient's."""

    def loss(flat):
        trial = Network._from_flat(flat, net.hidden_dim, net.input_dim)
        return mse(forward_batch(trial, Batch(inputs, None, net.hidden_dim)), targets)

    grad = np.zeros_like(net.flat)
    for idx in range(grad.size):
        plus = net.flat.copy()
        minus = net.flat.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (loss(plus) - loss(minus)) / (2.0 * step)
    return grad


def assert_gradients_close(got, want, rtol=1e-5, atol=1e-8):
    assert got.shape == want.shape
    scale = np.maximum(np.abs(got), np.abs(want))
    small = scale < atol
    np.testing.assert_array_less(np.abs(got - want)[small], atol)
    big = ~small
    assert np.all(np.abs(got - want)[big] <= rtol * scale[big])


def test_gradient_zero_at_perfect_fit():
    # zero network predicts 0; zero targets make the fit exact
    net = zero_network(3, 4)
    loss, grad = backprop_gradient(net, Batch(np.ones((5, 3)), np.zeros(5), 4))
    assert loss == 0.0
    assert grad.shape == net.flat.shape
    assert np.all(grad == 0.0)


def test_gradient_matches_finite_differences():
    rng = SplitMix64(31)
    for case in range(10):
        m = 1 + int(rng.below(5))
        h = 1 + int(rng.below(8))
        n = 1 + int(rng.below(12))
        net = random_network(m, h, seed=1000 + case, scale=1.2)
        inputs = rng.normals(n * m).reshape(n, m)
        targets = rng.normals(n)
        _, got = backprop_gradient(net, Batch(inputs, targets, h))
        want = finite_difference_gradient(net, inputs, targets)
        assert_gradients_close(got, want)


def test_output_bias_gradient_single_sample():
    net = random_network(2, 3, seed=9, scale=0.3)
    x = np.array([[0.4, -0.7]])
    t = np.array([0.2])
    a = one_step(net, x[0])
    _, grad = backprop_gradient(net, Batch(x, t, 3))
    # the output bias is the last entry of the flat layout
    assert grad[-1] == pytest.approx(2.0 * (a - t[0]), rel=1e-12)


def test_gradient_loss_is_batch_mse():
    net = random_network(3, 4, seed=21, scale=0.8)
    rng = SplitMix64(22)
    inputs = rng.normals(30).reshape(10, 3)
    targets = rng.normals(10)
    batch = Batch(inputs, targets, 4)
    loss, _ = backprop_gradient(net, batch)
    assert loss == mse(forward_batch(net, batch), targets)


def test_parameter_arrays_are_views_of_flat_vector():
    net = random_network(3, 4, seed=23)
    assert net.flat.shape == (4 * 3 + 4 + 4 + 1,)
    # the hidden layer is one row-major (H, m+1) block [W | b]
    layer = np.column_stack([net.hidden_weights, net.hidden_biases])
    np.testing.assert_array_equal(
        net.flat, np.concatenate([layer.ravel(), net.output_weights.ravel(), net.output_bias])
    )
    np.testing.assert_array_equal(net.hidden_layer, layer)
    for name in ("hidden_weights", "hidden_biases", "output_weights", "output_bias",
                 "hidden_layer"):
        assert np.shares_memory(getattr(net, name), net.flat)


def test_network_rejects_non_finite_and_bad_shapes():
    with pytest.raises(ValueError, match="must be finite"):
        Network(np.full((1, 1), np.nan), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        Network(np.zeros((2, 1)), np.zeros(1), np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        Network(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), np.zeros(2))


def test_gradient_empty_batch():
    with pytest.raises(EmptyBatch):
        backprop_gradient(zero_network(2, 2), Batch(np.empty((0, 2)), np.empty(0), 2))


def test_batch_rejects_mismatched_shapes():
    with pytest.raises(EmptyBatch):
        Batch(np.ones(3), None, 2)
    with pytest.raises(DimensionMismatch):
        Batch(np.ones((5, 3)), np.zeros(4), 2)
    batch = Batch(np.ones((5, 3)), np.zeros(5), 2)
    for net in (zero_network(3, 3), zero_network(2, 2)):
        with pytest.raises(DimensionMismatch):
            backprop_gradient(net, batch)
        with pytest.raises(DimensionMismatch):
            forward_batch(net, batch)


def pass_peak_bytes(run) -> int:
    """tracemalloc's peak over one call of `run`, after a warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_passes_reuse_the_batch_scratch():
    """A pass on a prepared batch allocates no array that grows with the
    batch: its peak memory is the same at 9,000 and 36,000 rows, where
    rebuilding [x|1] alone would add 27,000 * (m+1) floats."""
    m, h = 5, 10
    net = random_network(m, h, seed=27)
    rng = SplitMix64(28)
    peaks = []
    for n in (9000, 36000):
        batch = Batch(rng.normals(n * m).reshape(n, m), rng.normals(n), h)
        peaks.append([pass_peak_bytes(lambda: backprop_gradient(net, batch)),
                      pass_peak_bytes(lambda: forward_batch(net, batch))])
    for small, big in zip(*peaks):
        assert big - small < 1024


@pytest.mark.parametrize("n", [490, 708, 55])
def test_gradient_pass_allocates_less_than_a_hidden_array(n):
    """Over repeated gradient passes (m=5, H=10) the peak stays within one
    (H, n) float array plus 4 KiB: no (n, H) outer product and no 128 KiB
    ufunc buffer for it.  What is left at these sizes is numpy buffering the
    row-broadcast product (1 - h^2) * dout."""
    m, h = 5, 10
    net = random_network(m, h, seed=n)
    rng = SplitMix64(n + 1)
    batch = Batch(rng.normals(n * m).reshape(n, m), rng.normals(n), h)

    def passes():
        for _ in range(10):
            backprop_gradient(net, batch)

    assert pass_peak_bytes(passes) <= n * h * 8 + 4096


# -- gd_step ----------------------------------------------------------------------

def step(net, velocity, grad, lr, momentum):
    """gd_step on copies of the network's flat vector and the velocity: the
    stepped network and the new velocity."""
    theta, velocity = net.flat.copy(), velocity.copy()
    gd_step(theta, velocity, grad, lr, momentum)
    return Network._from_flat(theta, net.hidden_dim, net.input_dim), velocity


def test_gd_step_updates_in_place():
    # v = 0.5 * 1 - 0.25 * 1 and theta = 0 + v, exactly
    theta, velocity = np.zeros(5), np.ones(5)
    assert gd_step(theta, velocity, np.ones(5), lr=0.25, momentum=0.5) is None
    np.testing.assert_array_equal(velocity, np.full(5, 0.25))
    np.testing.assert_array_equal(theta, np.full(5, 0.25))


def test_gd_step_fixed_point():
    net = random_network(2, 2, seed=3)
    zero = np.zeros_like(net.flat)
    stepped, _ = step(net, zero, zero, lr=0.1, momentum=0.0)
    np.testing.assert_array_equal(stepped.hidden_weights, net.hidden_weights)
    np.testing.assert_array_equal(stepped.output_bias, net.output_bias)


def test_gd_step_momentum_zero_is_sgd():
    net = random_network(2, 2, seed=4)
    grad = Network(
        np.full((2, 2), 0.5), np.full(2, -0.25), np.full((1, 2), 1.0), np.array([2.0])
    ).flat
    stepped, _ = step(net, np.zeros_like(net.flat), grad, lr=0.1, momentum=0.0)
    np.testing.assert_allclose(
        stepped.hidden_weights, net.hidden_weights - 0.05, atol=1e-15
    )
    np.testing.assert_allclose(stepped.hidden_biases, net.hidden_biases + 0.025, atol=1e-15)
    np.testing.assert_allclose(stepped.output_weights, net.output_weights - 0.1, atol=1e-15)
    np.testing.assert_allclose(stepped.output_bias, net.output_bias - 0.2, atol=1e-15)


def test_gd_step_quadratic_hand_iteration():
    # f(w) = w^2 on the output bias alone: w <- w - 0.1 * 2w = 0.8 w
    net = Network(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.array([1.0]))
    velocity = np.zeros_like(net.flat)
    for _ in range(3):
        w = net.output_bias[0]
        grad = Network(
            np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.array([2.0 * w])
        ).flat
        net, velocity = step(net, velocity, grad, lr=0.1, momentum=0.0)
    assert net.output_bias[0] == pytest.approx(0.512, abs=1e-15)


def test_gd_step_momentum_accumulates_velocity():
    # constant gradient g: v1 = -lr g, v2 = momentum v1 - lr g
    net = zero_network(1, 1)
    grad = Network(np.ones((1, 1)), np.ones(1), np.ones((1, 1)), np.ones(1)).flat
    net, velocity = step(net, np.zeros_like(net.flat), grad, lr=0.1, momentum=0.5)
    net, velocity = step(net, velocity, grad, lr=0.1, momentum=0.5)
    assert velocity.shape == net.flat.shape
    np.testing.assert_allclose(velocity, -0.15, rtol=1e-15)
    np.testing.assert_allclose(net.flat, -0.25, rtol=1e-15)


def test_gd_step_rejects_non_finite_parameters():
    net = zero_network(1, 1)
    grad = Network(np.ones((1, 1)), np.ones(1), np.ones((1, 1)), np.array([-1e308])).flat
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        gd_step(net.flat.copy(), np.zeros_like(net.flat), grad, lr=10.0, momentum=0.0)


def test_gd_step_rejects_mismatched_gradient():
    net = zero_network(2, 3)
    with pytest.raises(DimensionMismatch):
        gd_step(net.flat.copy(), np.zeros_like(net.flat), zero_network(3, 2).flat, 0.1, 0.0)


# -- train ------------------------------------------------------------------------

def test_train_already_optimal_returns_immediately():
    pairs, split = make_split(60, 3, seed=2, target_fn=lambda x: 0.0)
    state, trace = train(zero_network(3, 4), pairs, split, epochs=50, lr=0.1, momentum=0.9,
                         patience=200)
    assert trace.shape == (1, 2)
    assert trace[0, 0] == 0.0
    assert state.train_mse == 0.0


def test_train_linear_target_converges():
    pairs, split = make_split(220, 1, seed=6, target_fn=lambda x: 0.5 * x[0])
    net = init_network(1, 4, seed=0)
    state, trace = train(net, pairs, split, epochs=2000, lr=0.05, momentum=0.9, patience=0)
    assert state.train_mse < 1e-4


def test_train_divergence_detected():
    pairs, split = make_split(80, 2, seed=8)
    net = init_network(2, 4, seed=1)
    with pytest.raises(DivergenceDetected) as err:
        train(net, pairs, split, epochs=200, lr=1e6, momentum=0.0, patience=200)
    # the epochs before the failing one
    failed = int(str(err.value).rsplit(" ", 1)[1])
    trace = err.value.trace
    assert trace.shape == (failed - 1, 2) and trace.dtype == np.float64
    assert np.isfinite(trace).all()


def test_trace_costs_at_most_32_bytes_an_epoch():
    """The trace is one float64 pair an epoch, grown as training goes: the
    peak memory of a 20,000-epoch run exceeds a 2,000-epoch run's by at most
    32 bytes for each extra epoch (a Python record per epoch costs about
    160), and the trace is a C-contiguous (k, 2) float64 array."""
    pairs, split = make_split(24, 2, seed=3)
    net = init_network(2, 3, seed=1)
    traces, peaks = {}, {}
    for epochs in (2000, 20000):
        def run():
            traces[epochs] = train(net, pairs, split, epochs=epochs, lr=0.01, momentum=0.9,
                                   patience=0)[1]
        peaks[epochs] = pass_peak_bytes(run)
    trace = traces[20000]
    assert trace.shape == (20000, 2) and trace.dtype == np.float64
    assert trace.flags.c_contiguous
    assert peaks[20000] - peaks[2000] <= 32 * 18000


def test_train_monotone_descent_on_quadratic():
    # zero hidden and output weights freeze everything except the output
    # bias, making the loss exactly quadratic (L = 2); lr < 1/L
    pairs, split = make_split(100, 2, seed=12)
    state, trace = train(zero_network(2, 3), pairs, split, epochs=60, lr=0.4, momentum=0.0,
                         patience=0)
    errors = trace[:, 0]
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))


def test_train_trace_bitwise_deterministic():
    pairs, split = make_split(120, 3, seed=5)
    net = init_network(3, 6, seed=7)
    _, t1 = train(net, pairs, split, epochs=150, lr=0.05, momentum=0.9, patience=0)
    _, t2 = train(net, pairs, split, epochs=150, lr=0.05, momentum=0.9, patience=0)
    assert t1.shape == (150, 2) and np.array_equal(t1, t2)


def test_train_returns_best_validation_state():
    pairs, split = make_split(100, 2, seed=44, target_fn=lambda x: x[0] * x[1], noise=0.3)
    net = init_network(2, 8, seed=3)
    state, trace = train(net, pairs, split, epochs=400, lr=0.1, momentum=0.9, patience=0)
    assert state.validation_mse <= trace[:, 1].min()


def test_train_leaves_its_network_unchanged():
    pairs, split = make_split(120, 3, seed=5)
    net = init_network(3, 6, seed=7)
    before = net.flat.copy()
    state, trace = train(net, pairs, split, epochs=80, lr=0.05, momentum=0.9, patience=0)
    np.testing.assert_array_equal(net.flat, before)
    assert state.epoch > 1 and not np.shares_memory(state.network.flat, net.flat)


def test_best_network_survives_warm_started_training():
    """The returned best network is a snapshot: training on from it, as the
    next curriculum stage does, and training the same call's parameters on
    past the best epoch leave it as it was."""
    pairs, split = make_split(100, 2, seed=44, target_fn=lambda x: x[0] * x[1], noise=0.3)
    state, trace = train(init_network(2, 8, seed=3), pairs, split, epochs=400, lr=0.1,
                         momentum=0.9, patience=0)
    assert state.epoch < len(trace)  # the parameters moved on after the best epoch
    snapshot = state.network.flat.copy()
    (inputs, targets), (_, validation) = pairs, split
    pred = mse(forward_batch(state.network, Batch(inputs[validation], None, 8)),
               targets[validation])
    assert pred == state.validation_mse
    later, _ = train(state.network, *make_split(100, 2, seed=45), epochs=100, lr=0.1,
                     momentum=0.9, patience=200)
    np.testing.assert_array_equal(state.network.flat, snapshot)
    assert not np.array_equal(later.network.flat, snapshot)


def test_train_early_stopping_cuts_budget():
    pairs, split = make_split(100, 2, seed=44, target_fn=lambda x: x[0] * x[1], noise=0.3)
    net = init_network(2, 8, seed=3)
    _, trace_full = train(net, pairs, split, epochs=400, lr=0.1, momentum=0.9, patience=0)
    _, trace_cut = train(net, pairs, split, epochs=400, lr=0.1, momentum=0.9, patience=10)
    assert len(trace_cut) <= len(trace_full)


def test_patience_zero_disables_early_stop():
    # on a noise series the validation error stops improving long before
    # the 300-epoch budget runs out
    pairs, split = make_split(80, 3, seed=3)
    net = init_network(3, 4, seed=3)
    _, full = train(net, pairs, split, epochs=300, lr=0.05, momentum=0.9, patience=0)
    _, cut = train(net, pairs, split, epochs=300, lr=0.05, momentum=0.9, patience=1)
    assert len(full) == 300 > len(cut)


def test_train_rejects_negative_patience():
    pairs, split = make_split(80, 3, seed=3)
    with pytest.raises(ConfigError, match=r"patience must be non-negative \(0 disables"):
        train(init_network(3, 4, seed=3), pairs, split, epochs=300, lr=0.05, momentum=0.9,
              patience=-1)


# -- serialization ------------------------------------------------------------------

def test_network_round_trip():
    net = init_network(4, 6, seed=11)
    back = network_from_dict(network_to_dict(net))
    np.testing.assert_array_equal(back.hidden_weights, net.hidden_weights)
    np.testing.assert_array_equal(back.hidden_biases, net.hidden_biases)
    np.testing.assert_array_equal(back.output_weights, net.output_weights)
    np.testing.assert_array_equal(back.output_bias, net.output_bias)


@pytest.mark.parametrize("key, text", [
    ("hidden_biases", "[0, 0, 0, 0, 0]"),  # one short
    ("hidden_dim", "5"),
    ("input_dim", "Infinity"),
    ("input_dim", "1e400"),  # read as inf
    ("input_dim", "4.9"),
    ("input_dim", '"4"'),
    ("input_dim", "4.0"),
    ("input_dim", "true"),
])
def test_network_from_dict_rejects_inconsistent_arrays(key, text):
    # a field of an (H=6, m=4) network replaced by the JSON value `text`
    payload = network_to_dict(init_network(4, 6, seed=11))
    payload[key] = json.loads(text)
    with pytest.raises(LengthMismatch):
        network_from_dict(payload)


@pytest.mark.parametrize("key, value", [
    ("hidden_biases", ["0.5", True, " 1e-3 "]),
    ("hidden_biases", [0.5, False, 0.0]),
    ("hidden_weights", [[0.1, 0.2], ["0.3", 0.4], [0.5, 0.6]]),
    ("output_weights", [[0.1, None, 0.3]]),
    ("output_bias", [True]),
])
def test_network_from_dict_rejects_entries_that_are_not_numbers(key, value):
    # an array of an (H=3, m=2) network replaced by `value`
    payload = network_to_dict(init_network(2, 3, seed=0))
    payload[key] = value
    with pytest.raises(LengthMismatch):
        network_from_dict(payload)


def test_network_from_dict_reads_integer_entries():
    # jsonio writes an integral float, such as a zero bias, as an integer
    net = init_network(2, 3, seed=0)
    payload = json.loads(dumps(network_to_dict(net)))
    assert payload["hidden_biases"] == [0, 0, 0] and type(payload["output_bias"][0]) is int
    back = network_from_dict(payload)
    np.testing.assert_array_equal(back.flat, net.flat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["hidden_weights", "output_bias"])
def test_network_from_dict_rejects_non_finite_values(key, bad):
    payload = network_to_dict(init_network(3, 4, seed=12))
    if key == "hidden_weights":
        payload[key][1][2] = bad
    else:
        payload[key][0] = bad
    with pytest.raises(LengthMismatch, match="must be finite"):
        network_from_dict(payload)


@pytest.mark.parametrize("key, value", [
    ("hidden_activation", "relu"),
    ("output_activation", "tanh"),
    ("format_version", 99),
    ("format_version", "1"),
])
def test_network_from_dict_rejects_unknown_activation(key, value):
    # an activation or format version that network_to_dict does not write
    payload = network_to_dict(init_network(2, 2, seed=0))
    payload[key] = value
    with pytest.raises(LengthMismatch):
        network_from_dict(payload)
