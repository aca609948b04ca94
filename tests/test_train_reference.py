"""The lean trainer in ssaforecast.mlp against the reference loop in
tests/reference_train.py.

The trainer folds the hidden biases into the hidden-layer matmul and runs in
an (H, n) layout whose hidden gradient scales by the output weights after
the product with the inputs, not in an (n, H) outer product before it.  So
its arithmetic is not the reference's and the two agree to a tolerance, not
bitwise: every gradient, forward pass and batch error to GRADIENT_RTOL at
the same parameters, and a whole run's errors and best network to
TRACE_RTOL.  Control flow must agree exactly on the fixed cases here: the
epochs run, the best epoch, the patience stop, the zero-error stop and the
type, message and epochs of a failure.  (On random inputs it need not: the
rounding order can decide whether an error hits exactly 0.0, a near-tie for
the best epoch, or an overflow at inputs near 1e300.)  The plateau and
zero-error cases keep the hidden layer at zero, so there neither change
alters any rounding and the runs must agree bitwise.

The trainer must also agree bitwise with the allocating trainer kept there
(`allocating_train`), which does the same (H, n) arithmetic: preparing the
batches once and stepping the parameters in place reorders no arithmetic.
"""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_train import (
    allocating_train,
    reference_backprop_gradient,
    reference_forward_batch,
    reference_mse,
    reference_train,
)

from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.errors import DivergenceDetected
from ssaforecast.mlp import (
    Batch,
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


def reference_trace(entries):
    """A reference trainer's trace in `train`'s form, the (k, 2) float64
    array of (train MSE, validation MSE), once its entries are checked to
    number the epochs 1..k."""
    assert [e.epoch for e in entries] == list(range(1, len(entries) + 1))
    return np.array([e[1:] for e in entries], dtype=np.float64).reshape(-1, 2)


def named_split(pairs, split):
    """The reference trainers' form of `train`'s (pairs, split): the train
    and validation pairs by name."""
    (inputs, targets), (train_idx, validation_idx) = pairs, split
    return SimpleNamespace(
        train=SimpleNamespace(inputs=inputs[train_idx], targets=targets[train_idx]),
        validation=SimpleNamespace(inputs=inputs[validation_idx], targets=targets[validation_idx]),
    )


def assert_runs_agree(net, pairs, split, epochs, lr, momentum, patience, rtol=TRACE_RTOL):
    state, trace = train(net, pairs, split, epochs, lr, momentum, patience or 0)
    ref_state, ref_trace = reference_train(net, named_split(pairs, split), epochs, lr, momentum,
                                           patience)
    # control flow: exactly the same epochs, stop and best epoch
    ref_trace = reference_trace(ref_trace)
    assert trace.shape == ref_trace.shape
    assert state.epoch == ref_state.epoch
    assert_close(trace, ref_trace, rtol)
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
        predictions = reference_forward_batch(net, inputs)
        batch = Batch(inputs, targets, h)
        assert_close(forward_batch(net, batch), predictions, GRADIENT_RTOL)
        loss, grad = backprop_gradient(net, batch)
        assert grad.shape == net.flat.shape
        got = _views(grad, h, m)
        want = reference_backprop_gradient(net, inputs, targets)
        for name in ARRAYS:
            assert_close(got[name], getattr(want, name), GRADIENT_RTOL)
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
    dec = decompose(sunspots, 35)
    net = init_network(5, 10, seed=0)
    lengths = []
    for idx, p in enumerate([*range(2, 35, 2), 35, None]):
        source = sunspots.values if p is None else partial_reconstruction(dec, p)
        pairs = build_embedding(source, 5)
        split = split_validation(pairs[1].size, 0.10, idx)
        state, trace = assert_runs_agree(net, pairs, split, 600, 0.05, 0.9, patience=200)
        if len(trace) < 600:
            assert state.epoch == len(trace) - 200
        lengths.append(len(trace))
        net = state.network
    assert min(lengths) < 600 and max(lengths) == 600


@pytest.mark.parametrize("hidden, m, momentum", [(5, 4, 0.9), (7, 3, 0.5), (1, 1, 0.0), (12, 6, 0.95)])
def test_full_budget_without_patience(hidden, m, momentum):
    series = standardize(two_sine_benchmark(300, seed=hidden)).values
    pairs = build_embedding(series, m)
    split = split_validation(pairs[1].size, 0.10, seed=m)
    net = init_network(m, hidden, seed=hidden + m)
    _, trace = assert_runs_agree(net, pairs, split, 300, 0.05, momentum, patience=None)
    assert len(trace) == 300


def test_plateau_keeps_the_first_best_epoch():
    """Only the output bias can move (zero weights): it settles on the mean
    training target, the validation error stops changing bit for bit, and the
    first epoch at that level stays the best until patience runs out."""
    rows = np.linspace(-1.0, 1.0, 120).reshape(40, 3)
    # 40 training pairs, then the first 5 inputs again with target 2 to validate
    pairs = (np.vstack([rows, rows[:5]]),
             np.concatenate([1.0 + 0.5 * (-1.0) ** np.arange(40), np.full(5, 2.0)]))
    split = (np.arange(40), np.arange(40, 45))
    net = Network(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
    state, trace = assert_runs_agree(net, pairs, split, 1000, 0.4, 0.0, patience=50, rtol=0.0)
    assert len(trace) < 1000 and state.epoch == len(trace) - 50
    assert trace[-1, 1] == state.validation_mse


def test_zero_error_stops_at_once():
    series = standardize(two_sine_benchmark(120, seed=2)).values
    inputs, targets = build_embedding(series, 3)
    pairs = (inputs, np.zeros_like(targets))
    split = split_validation(targets.size, 0.10, seed=2)
    net = Network(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
    state, trace = assert_runs_agree(net, pairs, split, 50, 0.1, 0.9, patience=10, rtol=0.0)
    assert len(trace) == 1 and state.train_mse == 0.0


def failure(run):
    with pytest.raises(Exception) as err:
        run()
    exc = err.value
    return type(exc), str(exc), getattr(exc, "trace", [])


def assert_same_failure(net, pairs, split, epochs, lr, momentum, patience=None):
    kind, message, trace = failure(lambda: train(net, pairs, split, epochs, lr, momentum,
                                                 patience or 0))
    want = failure(lambda: reference_train(net, named_split(pairs, split), epochs, lr, momentum,
                                           patience))
    assert (kind, message) == want[:2]
    want_trace = reference_trace(want[2])
    assert trace.shape == want_trace.shape
    assert_close(trace, want_trace, TRACE_RTOL)
    return kind, message, trace


def test_divergence_fails_like_the_reference():
    series = standardize(two_sine_benchmark(200, seed=4)).values
    pairs = build_embedding(series, 4)
    split = split_validation(pairs[1].size, 0.10, seed=4)
    kind, message, trace = assert_same_failure(init_network(4, 5, seed=4), pairs, split, 200, 1e6,
                                               0.0)
    assert kind is DivergenceDetected
    assert message.startswith("training error became non-finite at epoch")
    assert len(trace) > 1


def huge_input_split(scale, target):
    """(pairs, split): two equal pairs, each both trained on and validated on."""
    both = np.arange(2)
    return (np.full((2, 1), scale), np.full(2, target)), (both, both)


def test_non_finite_gradient_fails_like_the_reference():
    # finite error, but dz^T x overflows on inputs near the float64 limit
    net = Network(np.full((1, 1), 1e-308), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    kind, message, _ = assert_same_failure(net, *huge_input_split(1e308, target=100.0), 5, 0.1,
                                           0.9)
    assert (kind, message) == (DivergenceDetected, "gradient became non-finite at epoch 1")


def test_non_finite_step_fails_like_the_reference():
    # finite gradient, but the step overflows the hidden weight: the reference
    # lets the bare ValueError through, the trainer reports a divergence
    net = Network(np.full((1, 1), 1e-300), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    pairs, split = huge_input_split(1e300, target=1.0)
    got = failure(lambda: train(net, pairs, split, 5, 1e10, 0.9, 200))
    want = failure(lambda: reference_train(net, named_split(pairs, split), 5, 1e10, 0.9))
    assert want[:2] == (ValueError, "network parameters must be finite")
    assert got[:2] == (DivergenceDetected, "parameters became non-finite at epoch 1")
    assert want[2] == []
    assert got[2].shape == (0, 2) and got[2].dtype == np.float64


def outcome(run, as_trace=lambda trace: trace):
    """A run's result with every float as its bytes: ("ok", best epoch, best
    flat vector, best errors, trace) or ("diverged", message, trace), the
    trace as its shape, dtype and bytes; `as_trace` puts a reference
    trainer's trace in `train`'s form."""
    def trace_bytes(trace):
        trace = as_trace(trace)
        return trace.shape, trace.dtype, trace.tobytes()

    try:
        state, trace = run()
    except DivergenceDetected as exc:
        return "diverged", str(exc), trace_bytes(exc.trace)
    errors = np.array([state.train_mse, state.validation_mse]).tobytes()
    return "ok", state.epoch, state.network.flat.tobytes(), errors, trace_bytes(trace)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    h=st.integers(1, 12),
    n=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 30.0, 1e150, 1e300, 1e308]),
    weight=st.sampled_from([1.0, 1e-150, 1e-300, 1e-308]),
    lr=st.floats(-3.0, 10.0).map(lambda e: 10.0**e),
    momentum=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    patience=st.one_of(st.none(), st.integers(1, 30)),
    epochs=st.integers(1, 80),
)
@example(m=4, h=5, n=120, seed=4, scale=1.0, weight=1.0, lr=1e6, momentum=0.0, patience=None,
         epochs=200)
@example(m=1, h=1, n=2, seed=0, scale=1e308, weight=1e-308, lr=0.1, momentum=0.9,
         patience=None, epochs=5)
@example(m=1, h=1, n=2, seed=0, scale=1e300, weight=1e-300, lr=1e10, momentum=0.9,
         patience=None, epochs=5)
@example(m=3, h=4, n=60, seed=9, scale=1.0, weight=1.0, lr=0.1, momentum=0.9, patience=5,
         epochs=400)
def test_trainer_matches_allocating_trainer_bitwise(m, h, n, seed, scale, weight, lr, momentum,
                                                    patience, epochs):
    """Across sizes, step sizes and stopping rules, including runs that
    diverge through the gradient, the step or the training error (inputs up
    to 1e308 against hidden weights down to 1e-308): the same trace,
    best epoch, best errors and best flat vector to the bit, or the same
    DivergenceDetected message and partial trace."""
    rng = SplitMix64(seed)
    inputs = rng.uniforms((n + 4) * m, -scale, scale).reshape(n + 4, m)
    targets = rng.normals(n + 4)
    pairs, split = (inputs, targets), (np.arange(n), np.arange(n, n + 4))
    net = random_network(m, h, rng)
    net = replace(net, hidden_weights=weight * net.hidden_weights)
    before = net.flat.copy()
    got = outcome(lambda: train(net, pairs, split, epochs, lr, momentum, patience or 0))
    want = outcome(lambda: allocating_train(net, named_split(pairs, split), epochs, lr, momentum,
                                            patience), reference_trace)
    assert got == want
    np.testing.assert_array_equal(net.flat, before)
