"""Reference trainer: the full-batch momentum training loop as first written,
one state record and Network rebuilt per epoch and three forward passes per
epoch (one inside the gradient, one for the training error after the step,
one for the validation error).

The functions below are that loop, its update step, its gradient, its
forward pass (hidden biases added after the matmul, not folded into it) and
its error measure verbatim, renamed with a ``reference_`` prefix and made to
call one another.  The gradient and velocity keep their four named arrays
(`ReferenceGradient`), and the state record keeps the learning rate, momentum
and velocity (`ReferenceState`).  They share only the Network class, the
trace entry and the error classes with ssaforecast.mlp, so tests can check
the lean trainer against this loop.

The ``allocating_`` functions at the end are the lean trainer's arithmetic
without its prepared batches: the (H, n) layout (inputs stored transposed,
hidden activations as (H, n), the hidden gradient taken without the outer
product), but each pass rebuilds [x|1]^T and every intermediate, and each
step builds a new Network.  Tests pin the in-place trainer to them bitwise.
The ``reference_`` gradient keeps the (n, H) outer-product arithmetic the
trainer had before that layout.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ssaforecast.errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyBatch,
    EmptyInput,
    LengthMismatch,
)
from ssaforecast.mlp import Network, TraceEntry, TrainState, _views


class ReferenceGradient(NamedTuple):
    """Parameter-shaped gradient (or momentum velocity)."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: np.ndarray

    @staticmethod
    def zeros_like(net: Network) -> "ReferenceGradient":
        return ReferenceGradient(
            np.zeros_like(net.hidden_weights), np.zeros_like(net.hidden_biases),
            np.zeros_like(net.output_weights), np.zeros_like(net.output_bias),
        )


@dataclass(frozen=True)
class ReferenceState:
    network: Network
    epoch: int
    train_mse: float
    validation_mse: float
    learning_rate: float
    momentum: float
    velocity: ReferenceGradient


def reference_forward_batch(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (n, m) batch."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatch(f"batch shape {x.shape} incompatible with input_dim {net.input_dim}")
    hidden = np.tanh(x @ net.hidden_weights.T + net.hidden_biases)
    return hidden @ net.output_weights[0] + net.output_bias[0]


def reference_mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or t.size == 0:
        raise EmptyInput("mse needs at least one value")
    if p.shape != t.shape:
        raise LengthMismatch(f"length {p.size} vs {t.size}")
    return float(np.mean((p - t) ** 2))


def reference_backprop_gradient(net: Network, inputs, targets) -> ReferenceGradient:
    """Exact gradient of the batch MSE with respect to every parameter."""
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyBatch("gradient needs a non-empty (n, m) batch")
    if x.shape[1] != net.input_dim or t.shape != (x.shape[0],):
        raise DimensionMismatch("batch shapes inconsistent with the network")
    n = x.shape[0]
    z = x @ net.hidden_weights.T + net.hidden_biases  # (n, H)
    h = np.tanh(z)
    pred = h @ net.output_weights[0] + net.output_bias[0]
    # d(MSE)/d(pred_i) = 2/n * (pred_i - t_i)
    dout = (2.0 / n) * (pred - t)  # (n,)
    g_ow = (dout @ h)[None, :]  # (1, H)
    g_ob = np.array([dout.sum()])
    dz = np.outer(dout, net.output_weights[0]) * (1.0 - h * h)  # (n, H)
    g_hw = dz.T @ x  # (H, m)
    g_hb = dz.sum(axis=0)
    return ReferenceGradient(g_hw, g_hb, g_ow, g_ob)


def reference_gd_step(state: ReferenceState, grad: ReferenceGradient) -> ReferenceState:
    """One momentum update: v <- momentum*v - lr*g; theta <- theta + v."""
    net, vel = state.network, state.velocity
    if grad.hidden_weights.shape != net.hidden_weights.shape:
        raise DimensionMismatch("gradient shape does not match the network")
    new_vel = ReferenceGradient(
        state.momentum * vel.hidden_weights - state.learning_rate * grad.hidden_weights,
        state.momentum * vel.hidden_biases - state.learning_rate * grad.hidden_biases,
        state.momentum * vel.output_weights - state.learning_rate * grad.output_weights,
        state.momentum * vel.output_bias - state.learning_rate * grad.output_bias,
    )
    new_net = Network(
        net.hidden_weights + new_vel.hidden_weights,
        net.hidden_biases + new_vel.hidden_biases,
        net.output_weights + new_vel.output_weights,
        net.output_bias + new_vel.output_bias,
    )
    return replace(state, network=new_net, velocity=new_vel)


def reference_train(
    net: Network,
    split,
    epochs: int = 5000,
    lr: float = 0.01,
    momentum: float = 0.9,
    patience: int | None = 200,
) -> tuple[ReferenceState, list[TraceEntry]]:
    """Full-batch gradient descent on the training pairs.

    Each epoch takes one step and then records (epoch, train MSE, validation
    MSE) at the new parameters.  Returns the state with the lowest validation
    MSE seen; training stops early after `patience` epochs without
    improvement (patience=None runs the full budget), or immediately once the
    training error hits exactly zero.

    Raises DivergenceDetected (carrying the partial trace) if the training
    error becomes non-finite.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    state = ReferenceState(
        network=net,
        epoch=0,
        train_mse=math.inf,
        validation_mse=math.inf,
        learning_rate=lr,
        momentum=momentum,
        velocity=ReferenceGradient.zeros_like(net),
    )
    trace: list[TraceEntry] = []
    best: ReferenceState | None = None
    stale = 0
    for epoch in range(1, epochs + 1):
        # overflow here is not an error condition: it surfaces as a
        # non-finite training error and raises DivergenceDetected below
        with np.errstate(over="ignore", invalid="ignore"):
            grad = reference_backprop_gradient(state.network, split.train.inputs, split.train.targets)
            if not all(
                np.all(np.isfinite(g))
                for g in (grad.hidden_weights, grad.hidden_biases, grad.output_weights, grad.output_bias)
            ):
                raise DivergenceDetected(
                    f"gradient became non-finite at epoch {epoch}", trace=trace
                )
            state = reference_gd_step(state, grad)
            train_err = reference_mse(
                reference_forward_batch(state.network, split.train.inputs), split.train.targets
            )
            if not math.isfinite(train_err):
                raise DivergenceDetected(
                    f"training error became non-finite at epoch {epoch}", trace=trace
                )
            val_err = reference_mse(
                reference_forward_batch(state.network, split.validation.inputs), split.validation.targets
            )
        state = replace(state, epoch=epoch, train_mse=train_err, validation_mse=val_err)
        trace.append(TraceEntry(epoch, train_err, val_err))
        if best is None or val_err < best.validation_mse:
            best = state
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
        if train_err == 0.0:
            break
    assert best is not None
    return best, trace


# -- the allocating lean trainer ----------------------------------------------------

def allocating_with_ones(x: np.ndarray) -> np.ndarray:
    """The (n, m) batch transposed with a ones row appended, to meet [W | b]:
    a C-contiguous (m+1, n) array, as mlp.Batch stores it (a transposed
    view would make BLAS take another kernel and round differently)."""
    x1t = np.empty((x.shape[1] + 1, x.shape[0]))
    x1t[:-1] = x.T
    x1t[-1] = 1.0
    return x1t


def allocating_forward_batch(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (n, m) batch."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatch(f"batch shape {x.shape} incompatible with input_dim {net.input_dim}")
    hidden = net.hidden_layer @ allocating_with_ones(x)
    np.tanh(hidden, out=hidden)
    return net.output_weights[0] @ hidden + net.output_bias[0]


def allocating_mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or t.size == 0:
        raise EmptyInput("mse needs at least one value")
    if p.shape != t.shape:
        raise LengthMismatch(f"length {p.size} vs {t.size}")
    return allocating_mean_square(p - t)


def allocating_mean_square(err: np.ndarray) -> float:
    # np.mean's own arithmetic (sum, then divide by the count) without its
    # Python-level overhead, so the value matches np.mean bitwise
    return float(np.add.reduce(err**2, axis=None) / err.size)


def allocating_backprop_gradient(net: Network, inputs, targets) -> tuple[float, np.ndarray]:
    """(loss, grad): the batch MSE and its exact gradient with respect to
    every parameter, from one forward pass; `grad` is a flat vector in the
    network's layout (`_views`)."""
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyBatch("gradient needs a non-empty (n, m) batch")
    if x.shape[1] != net.input_dim or t.shape != (x.shape[0],):
        raise DimensionMismatch("batch shapes inconsistent with the network")
    n = x.shape[0]
    # in-place steps: z = [W|b] [x|1]^T, h = tanh(z), pred = w_out h + b_out,
    # without the temporaries
    x1t = allocating_with_ones(x)
    h = net.hidden_layer @ x1t
    np.tanh(h, out=h)  # (H, n)
    err = net.output_weights[0] @ h
    err += net.output_bias[0]
    err -= t  # pred - t
    loss = allocating_mean_square(err)
    grad = np.empty_like(net.flat)
    g = _views(grad, net.hidden_dim, net.input_dim)
    # d(MSE)/d(pred_i) = 2/n * (pred_i - t_i)
    dout = err
    dout *= 2.0 / n
    g["output_weights"][0] = h @ dout
    g["output_bias"][0] = dout.sum()
    # ((1 - h^2) * dout) [x|1], then each row scaled by w_out; the ones row
    # of [x|1]^T makes the last column the hidden-bias gradient
    dz = (1.0 - h * h) * dout  # (H, n)
    g["hidden_layer"][:] = (dz @ x1t.T) * net.output_weights.T
    return loss, grad


def allocating_gd_step(
    net: Network, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float
) -> tuple[Network, np.ndarray]:
    """One momentum update: v <- momentum*v - lr*g; theta <- theta + v, with
    v and g flat vectors in the network's layout.

    Returns the new network and velocity; raises ValueError if the updated
    parameters are not finite."""
    if grad.shape != net.flat.shape:
        raise DimensionMismatch("gradient length does not match the network")
    v = momentum * velocity - lr * grad
    return Network._from_flat(net.flat + v, net.hidden_dim, net.input_dim), v


def allocating_train(
    net: Network,
    split,
    epochs: int = 5000,
    lr: float = 0.01,
    momentum: float = 0.9,
    patience: int | None = 200,
) -> tuple[TrainState, list[TraceEntry]]:
    """Full-batch gradient descent on the training pairs.

    Each epoch takes one step and then records (epoch, train MSE, validation
    MSE) at the new parameters.  Returns the state with the lowest validation
    MSE seen; training stops early after `patience` epochs without
    improvement (patience=None runs the full budget), or immediately once the
    training error hits exactly zero.

    Raises DivergenceDetected (carrying the partial trace) if the gradient,
    the parameters after a step or the training error become non-finite.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    inputs, targets = split.train.inputs, split.train.targets
    velocity = np.zeros_like(net.flat)
    trace: list[TraceEntry] = []
    best_epoch = 0
    stale = 0
    # overflow here is not an error condition: it surfaces as a non-finite
    # gradient, step or training error and raises DivergenceDetected below
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient pass at each epoch's stepped parameters also gives that
        # epoch's training error, and its gradient drives the next epoch's step
        _, grad = allocating_backprop_gradient(net, inputs, targets)
        for epoch in range(1, epochs + 1):
            if not np.isfinite(grad).all():
                raise DivergenceDetected(
                    f"gradient became non-finite at epoch {epoch}", trace=trace
                )
            try:
                net, velocity = allocating_gd_step(net, velocity, grad, lr, momentum)
            except ValueError:  # the step overflowed the parameters
                raise DivergenceDetected(
                    f"parameters became non-finite at epoch {epoch}", trace=trace
                ) from None
            train_err, grad = allocating_backprop_gradient(net, inputs, targets)
            if not math.isfinite(train_err):
                raise DivergenceDetected(
                    f"training error became non-finite at epoch {epoch}", trace=trace
                )
            val_err = allocating_mse(
                allocating_forward_batch(net, split.validation.inputs), split.validation.targets
            )
            trace.append(TraceEntry(epoch, train_err, val_err))
            if best_epoch == 0 or val_err < best_val:
                best_epoch, best_train, best_val = epoch, train_err, val_err
                best_net = net
                stale = 0
            else:
                stale += 1
                if patience is not None and stale >= patience:
                    break
            if train_err == 0.0:
                break
    return TrainState(best_net, best_epoch, best_train, best_val), trace
