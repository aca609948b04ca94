"""Single-hidden-layer feedforward network for scalar regression: tanh hidden
units, linear output, exact full-batch gradients, momentum gradient descent
with best-on-validation early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDimensions,
    DimensionMismatch,
    DivergenceDetected,
    EmptyBatch,
    EmptyInput,
    LengthMismatch,
)
from .rng import SplitMix64

HIDDEN_ACTIVATION = "tanh"
OUTPUT_ACTIVATION = "identity"
NETWORK_FORMAT_VERSION = 1
_ARRAYS = ("hidden_weights", "hidden_biases", "output_weights", "output_bias")


def _views(flat: np.ndarray, h: int, m: int) -> dict:
    """The parameter arrays of an (H, m) network as views of one flat float64
    vector.  The vector starts with the hidden layer as one row-major (H, m+1)
    matrix [W | b] (`hidden_layer`), which multiplies inputs with a ones
    column appended, then the output weights and the output bias.  The
    trainer's gradients and momentum velocities are flat vectors in this
    layout."""
    k = h * (m + 1)
    layer = flat[:k].reshape(h, m + 1)
    return {
        "flat": flat,
        "hidden_layer": layer,
        "hidden_weights": layer[:, :m],
        "hidden_biases": layer[:, m],
        "output_weights": flat[k : k + h].reshape(1, h),
        "output_bias": flat[k + h :],
    }


@dataclass(frozen=True)
class Network:
    """Network parameters, held as views of one flat vector (`_views`) so
    that an update is one numpy call per operation; every construction
    rejects non-finite values."""

    hidden_weights: np.ndarray  # (H, m)
    hidden_biases: np.ndarray  # (H,)
    output_weights: np.ndarray  # (1, H)
    output_bias: np.ndarray  # (1,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    hidden_layer: np.ndarray = field(init=False, repr=False, compare=False)  # (H, m+1)

    def __post_init__(self):
        hw, hb, ow, ob = (np.asarray(getattr(self, name), dtype=np.float64) for name in _ARRAYS)
        h, m = hw.shape
        if hb.shape != (h,) or ow.shape != (1, h):
            raise DimensionMismatch("layer shapes are inconsistent")
        if ob.shape != (1,):
            raise DimensionMismatch("output bias must hold exactly one value")
        self._bind(np.concatenate([np.column_stack([hw, hb]).ravel(), ow.ravel(), ob]), h, m)

    def _bind(self, flat: np.ndarray, h: int, m: int) -> None:
        if not np.isfinite(flat).all():
            raise ValueError("network parameters must be finite")
        # frozen: set the fields the way the dataclass __init__ would
        self.__dict__.update(_views(flat, h, m))

    @classmethod
    def _from_flat(cls, flat: np.ndarray, hidden_dim: int, input_dim: int) -> "Network":
        """Wrap a flat vector of the right length without copying it."""
        net = object.__new__(cls)
        net._bind(flat, hidden_dim, input_dim)
        return net

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_weights.shape[0]


def init_network(input_dim: int, hidden_dim: int, seed: int) -> Network:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, biases
    zero.  Draw order is fixed (hidden weights row-major, then output weights)
    so a seed pins the network bitwise."""
    if input_dim < 1 or hidden_dim < 1:
        raise BadDimensions(f"dimensions must be positive, got m={input_dim}, H={hidden_dim}")
    rng = SplitMix64(seed)
    hidden_bound = 1.0 / math.sqrt(input_dim)
    output_bound = 1.0 / math.sqrt(hidden_dim)
    hw = rng.uniforms(hidden_dim * input_dim, -hidden_bound, hidden_bound).reshape(
        hidden_dim, input_dim
    )
    ow = rng.uniforms(hidden_dim, -output_bound, output_bound).reshape(1, hidden_dim)
    return Network(hw, np.zeros(hidden_dim), ow, np.zeros(1))


def _with_ones(x: np.ndarray) -> np.ndarray:
    """The (n, m) batch with a ones column appended, to meet [W | b]."""
    x1 = np.empty((x.shape[0], x.shape[1] + 1))
    x1[:, :-1] = x
    x1[:, -1] = 1.0
    return x1


def forward_batch(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a (n, m) batch."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatch(f"batch shape {x.shape} incompatible with input_dim {net.input_dim}")
    hidden = _with_ones(x) @ net.hidden_layer.T
    np.tanh(hidden, out=hidden)
    return hidden @ net.output_weights[0] + net.output_bias[0]


def forward(net: Network, inputs) -> float:
    """Prediction for a single length-m input."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionMismatch(f"input shape {x.shape} incompatible with input_dim {net.input_dim}")
    return float(forward_batch(net, x[None, :])[0])


def mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or t.size == 0:
        raise EmptyInput("mse needs at least one value")
    if p.shape != t.shape:
        raise LengthMismatch(f"length {p.size} vs {t.size}")
    return _mean_square(p - t)


def _mean_square(err: np.ndarray) -> float:
    # np.mean's own arithmetic (sum, then divide by the count) without its
    # Python-level overhead, so the value matches np.mean bitwise
    return float(np.add.reduce(err**2, axis=None) / err.size)


def backprop_gradient(net: Network, inputs, targets) -> tuple[float, np.ndarray]:
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
    # in-place steps: z = [x|1] [W|b]^T, h = tanh(z), pred = h w_out + b_out,
    # without the temporaries
    x1 = _with_ones(x)
    h = x1 @ net.hidden_layer.T
    np.tanh(h, out=h)  # (n, H)
    err = h @ net.output_weights[0]
    err += net.output_bias[0]
    err -= t  # pred - t
    loss = _mean_square(err)
    grad = np.empty_like(net.flat)
    g = _views(grad, net.hidden_dim, net.input_dim)
    # d(MSE)/d(pred_i) = 2/n * (pred_i - t_i)
    dout = err
    dout *= 2.0 / n
    np.matmul(dout, h, out=g["output_weights"][0])
    g["output_bias"][0] = dout.sum()
    # dz = outer(dout, w_out) * (1 - h^2), with h overwritten by 1 - h^2
    dz = dout[:, None] * net.output_weights[0]  # (n, H)
    h *= h
    np.subtract(1.0, h, out=h)
    dz *= h
    # the ones column of [x|1] makes the last column the hidden-bias gradient
    np.matmul(dz.T, x1, out=g["hidden_layer"])
    return loss, grad


@dataclass(frozen=True)
class TrainState:
    network: Network
    epoch: int
    train_mse: float
    validation_mse: float


class TraceEntry(NamedTuple):
    epoch: int
    train_mse: float
    validation_mse: float


def gd_step(
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


def train(
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
        _, grad = backprop_gradient(net, inputs, targets)
        for epoch in range(1, epochs + 1):
            if not np.isfinite(grad).all():
                raise DivergenceDetected(
                    f"gradient became non-finite at epoch {epoch}", trace=trace
                )
            try:
                net, velocity = gd_step(net, velocity, grad, lr, momentum)
            except ValueError:  # the step overflowed the parameters
                raise DivergenceDetected(
                    f"parameters became non-finite at epoch {epoch}", trace=trace
                ) from None
            train_err, grad = backprop_gradient(net, inputs, targets)
            if not math.isfinite(train_err):
                raise DivergenceDetected(
                    f"training error became non-finite at epoch {epoch}", trace=trace
                )
            val_err = mse(
                forward_batch(net, split.validation.inputs), split.validation.targets
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


def network_to_dict(net: Network) -> dict:
    return {
        "format_version": NETWORK_FORMAT_VERSION,
        "input_dim": net.input_dim,
        "hidden_dim": net.hidden_dim,
        "hidden_activation": HIDDEN_ACTIVATION,
        "output_activation": OUTPUT_ACTIVATION,
        "hidden_weights": [[float(w) for w in row] for row in net.hidden_weights],
        "hidden_biases": [float(b) for b in net.hidden_biases],
        "output_weights": [[float(w) for w in row] for row in net.output_weights],
        "output_bias": [float(b) for b in net.output_bias],
    }


def network_from_dict(payload: dict) -> Network:
    """Rebuild a network from its serialized form.

    Declared dimensions that disagree with the stored arrays, and non-finite
    stored values, raise LengthMismatch (a corrupt artifact, not a
    configuration problem).
    """
    try:
        m = int(payload["input_dim"])
        h = int(payload["hidden_dim"])
        hw = np.asarray(payload["hidden_weights"], dtype=np.float64)
        hb = np.asarray(payload["hidden_biases"], dtype=np.float64)
        ow = np.asarray(payload["output_weights"], dtype=np.float64)
        ob = np.asarray(payload["output_bias"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise LengthMismatch(f"network payload malformed: {exc}") from None
    if payload.get("hidden_activation") != HIDDEN_ACTIVATION or (
        payload.get("output_activation") != OUTPUT_ACTIVATION
    ):
        raise LengthMismatch("unsupported activation names in network payload")
    if hw.shape != (h, m) or hb.shape != (h,) or ow.shape != (1, h) or ob.shape != (1,):
        raise LengthMismatch(
            f"stored arrays {hw.shape}/{hb.shape}/{ow.shape}/{ob.shape} disagree with "
            f"declared dims m={m}, H={h}"
        )
    if not all(np.isfinite(a).all() for a in (hw, hb, ow, ob)):
        raise LengthMismatch("stored network parameters must be finite")
    return Network(hw, hb, ow, ob)
