"""The lean trainer in ssaforecast.mlp against the reference loop in
tests/reference_train.py.

The trainer folds the hidden biases into the hidden-layer matmul, so its
arithmetic is not the reference's and the two agree to a tolerance, not
bitwise: every gradient, forward pass and batch error to GRADIENT_RTOL at
the same parameters, and a whole run's errors and best network to
TRACE_RTOL.  Control flow must agree exactly: the epochs run, the best epoch,
the patience stop, the zero-error stop and the type, message and epochs of a
failure.  The plateau and zero-error cases keep the hidden layer at zero, so
there the fold changes no rounding and the runs must agree bitwise.
"""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from reference_train import (
    reference_backprop_gradient,
    reference_forward_batch,
    reference_mse,
    reference_train,
)

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.errors import DivergenceDetected
from ssaforecast.mlp import (
    Network,
    _views,
    backprop_gradient,
    forward_batch,
    init_network,
    train,
)
from ssaforecast.rng import SplitMix64
from ssaforecast.series import build_embedding, load_csv, split_validation, standardize
from ssaforecast.ssa import decompose, partial_reconstruction

SUNSPOTS = Path(__file__).resolve().parents[1] / "data" / "sunspots_monthly.csv"
ARRAYS = ("hidden_weights", "hidden_biases", "output_weights", "output_bias")

# A sum of n products rounds to within about n * 2**-53 of its exact value,
# about 1e-13 relative at the largest batch here (n = 800); the fold
# reorders such sums.  Measured: at most 2.5e-14 relative on gradients and
# 6.2e-16 on training errors over 300 epochs.
GRADIENT_RTOL = 1e-10
TRACE_RTOL = 1e-9


def assert_close(got, want, rtol):
    """Elementwise within rtol of the largest reference magnitude; rtol=0
    demands equal values."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def errors(trace):
    return [(e.train_mse, e.validation_mse) for e in trace]


def assert_runs_agree(net, split, epochs, lr, momentum, patience, rtol=TRACE_RTOL):
    state, trace = train(net, split, epochs, lr, momentum, patience)
    ref_state, ref_trace = reference_train(net, split, epochs, lr, momentum, patience)
    # control flow: exactly the same epochs, stop and best epoch
    assert [e.epoch for e in trace] == [e.epoch for e in ref_trace]
    assert state.epoch == ref_state.epoch
    assert_close(errors(trace), errors(ref_trace), rtol)
    assert_close([state.train_mse, state.validation_mse],
                 [ref_state.train_mse, ref_state.validation_mse], rtol)
    for name in ARRAYS:
        assert_close(getattr(state.network, name), getattr(ref_state.network, name), rtol)
    return state, trace


def random_network(m, h, rng):
    return Network(
        rng.uniforms(h * m, -1.0, 1.0).reshape(h, m),
        rng.uniforms(h, -1.0, 1.0),
        rng.uniforms(h, -1.0, 1.0).reshape(1, h),
        rng.uniforms(1, -1.0, 1.0),
    )


def test_gradient_agrees_with_reference():
    rng = SplitMix64(611)
    for _ in range(60):
        m = 1 + int(rng.below(6))
        h = 1 + int(rng.below(12))
        n = 1 + int(rng.below(800))
        net = random_network(m, h, rng)
        inputs = rng.normals(n * m).reshape(n, m)
        targets = rng.normals(n)
        loss, grad = backprop_gradient(net, inputs, targets)
        assert grad.shape == net.flat.shape
        got = _views(grad, h, m)
        want = reference_backprop_gradient(net, inputs, targets)
        for name in ARRAYS:
            assert_close(got[name], getattr(want, name), GRADIENT_RTOL)
        predictions = reference_forward_batch(net, inputs)
        assert_close(forward_batch(net, inputs), predictions, GRADIENT_RTOL)
        assert loss == pytest.approx(reference_mse(predictions, targets), rel=GRADIENT_RTOL)


@pytest.fixture(scope="module")
def sunspots():
    raw = load_csv(SUNSPOTS, "sunspots", "time")
    return standardize(raw)


def test_warm_started_sunspot_curriculum_with_patience(sunspots):
    """All 19 stages of the sunspot curriculum (M=35, pc_step=2, 600 epochs,
    patience 200), each started from the trainer's best network of the
    previous stage; some stages stop on patience and some run their full
    budget."""
    _, _, comps = decompose(sunspots, 35)
    net = init_network(5, 10, seed=0)
    lengths = []
    for idx, p in enumerate([*range(2, 35, 2), 35, None]):
        source = sunspots.values if p is None else partial_reconstruction(comps, p)
        split = split_validation(build_embedding(source, 5), 0.10, idx)
        state, trace = assert_runs_agree(net, split, 600, 0.05, 0.9, patience=200)
        if len(trace) < 600:
            assert state.epoch == len(trace) - 200
        lengths.append(len(trace))
        net = state.network
    assert min(lengths) < 600 and max(lengths) == 600


@pytest.mark.parametrize("hidden, m, momentum", [(5, 4, 0.9), (7, 3, 0.5), (1, 1, 0.0), (12, 6, 0.95)])
def test_full_budget_without_patience(hidden, m, momentum):
    series = standardize(two_sine_benchmark(300, seed=hidden)).values
    split = split_validation(build_embedding(series, m), 0.10, seed=m)
    net = init_network(m, hidden, seed=hidden + m)
    _, trace = assert_runs_agree(net, split, 300, 0.05, momentum, patience=None)
    assert len(trace) == 300


def test_plateau_keeps_the_first_best_epoch():
    """Only the output bias can move (zero weights): it settles on the mean
    training target, the validation error stops changing bit for bit, and the
    first epoch at that level stays the best until patience runs out."""
    rows = np.linspace(-1.0, 1.0, 120).reshape(40, 3)
    train_pairs = SimpleNamespace(inputs=rows, targets=1.0 + 0.5 * (-1.0) ** np.arange(40))
    validation_pairs = SimpleNamespace(inputs=rows[:5], targets=np.full(5, 2.0))
    split = SimpleNamespace(train=train_pairs, validation=validation_pairs)
    net = Network(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
    state, trace = assert_runs_agree(net, split, 1000, 0.4, 0.0, patience=50, rtol=0.0)
    assert len(trace) < 1000 and state.epoch == len(trace) - 50
    assert trace[-1].validation_mse == state.validation_mse


def test_zero_error_stops_at_once():
    series = standardize(two_sine_benchmark(120, seed=2)).values
    split = split_validation(build_embedding(series, 3), 0.10, seed=2)
    zero = lambda a: replace(a, targets=np.zeros_like(a.targets))
    split = replace(split, train=zero(split.train), validation=zero(split.validation))
    net = Network(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
    state, trace = assert_runs_agree(net, split, 50, 0.1, 0.9, patience=10, rtol=0.0)
    assert len(trace) == 1 and state.train_mse == 0.0


def failure(run):
    with pytest.raises(Exception) as err:
        run()
    exc = err.value
    return type(exc), str(exc), getattr(exc, "trace", [])


def assert_same_failure(net, split, epochs, lr, momentum, patience=None):
    kind, message, trace = failure(lambda: train(net, split, epochs, lr, momentum, patience))
    want = failure(lambda: reference_train(net, split, epochs, lr, momentum, patience))
    assert (kind, message) == want[:2]
    assert [e.epoch for e in trace] == [e.epoch for e in want[2]]
    assert_close(errors(trace), errors(want[2]), TRACE_RTOL)
    return kind, message, trace


def test_divergence_fails_like_the_reference():
    series = standardize(two_sine_benchmark(200, seed=4)).values
    split = split_validation(build_embedding(series, 4), 0.10, seed=4)
    kind, message, trace = assert_same_failure(init_network(4, 5, seed=4), split, 200, 1e6, 0.0)
    assert kind is DivergenceDetected
    assert message.startswith("training error became non-finite at epoch")
    assert len(trace) > 1


def huge_input_split(scale, target):
    pair = SimpleNamespace(inputs=np.full((2, 1), scale), targets=np.full(2, target))
    return SimpleNamespace(train=pair, validation=pair)


def test_non_finite_gradient_fails_like_the_reference():
    # finite error, but dz^T x overflows on inputs near the float64 limit
    net = Network(np.full((1, 1), 1e-308), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    kind, message, _ = assert_same_failure(net, huge_input_split(1e308, target=100.0), 5, 0.1, 0.9)
    assert (kind, message) == (DivergenceDetected, "gradient became non-finite at epoch 1")


def test_non_finite_step_fails_like_the_reference():
    # finite gradient, but the step overflows the hidden weight: the reference
    # lets the bare ValueError through, the trainer reports a divergence
    net = Network(np.full((1, 1), 1e-300), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    split = huge_input_split(1e300, target=1.0)
    got = failure(lambda: train(net, split, 5, 1e10, 0.9))
    want = failure(lambda: reference_train(net, split, 5, 1e10, 0.9))
    assert want[:2] == (ValueError, "network parameters must be finite")
    assert got[:2] == (DivergenceDetected, "parameters became non-finite at epoch 1")
    assert got[2] == want[2] == []
