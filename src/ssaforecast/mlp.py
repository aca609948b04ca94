"""Single-hidden-layer feedforward network for scalar regression: tanh hidden
units, linear output, exact full-batch gradients, momentum gradient descent
with best-on-validation early stopping."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDimensions,
    ConfigError,
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


class Batch:
    """(n, m) inputs and their n targets, prepared once for the passes of an
    H-unit network: [x|1]^T, the inputs transposed with a ones row appended
    (C-contiguous, to meet [W | b]), and scratch for every intermediate,
    (H, n) for the hidden layer, so that a pass allocates no array.  A pass
    returns this scratch, which the next pass overwrites.  `targets` is None
    for a forward-only batch.  `inputs` is an (n, m) view of [x|1]^T: writing
    to it feeds the next pass new inputs without preparing again."""

    def __init__(self, inputs, targets, hidden_dim: int):
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise EmptyBatch("a batch needs a non-empty (n, m) array of inputs")
        n, m = x.shape
        if targets is not None:
            targets = np.asarray(targets, dtype=np.float64)
            if targets.shape != (n,):
                raise DimensionMismatch(f"{targets.shape} targets for {n} inputs")
        self.targets = targets
        self.layer_shape = (hidden_dim, m + 1)
        self.x1t = np.empty((m + 1, n))
        self.x1t[:-1] = x.T
        self.x1t[-1] = 1.0
        self.inputs = self.x1t[:-1].T
        self.h = np.empty((hidden_dim, n))
        self.err = np.empty(n)
        if targets is not None:  # scratch for the gradient
            self.sq = np.empty(n)
            self.grad = np.empty(hidden_dim * (m + 2) + 1)
            self.grad_views = _views(self.grad, hidden_dim, m)


def _forward(net: Network, batch: Batch) -> np.ndarray:
    """The kernel of `forward_batch`: h = tanh([W|b] [x|1]^T) into `batch.h`
    and the predictions w_out h + b_out into `batch.err`, which it returns.
    `backprop_gradient` calls it directly, so that `forward_batch` is only
    ever a forward-only pass."""
    if net.hidden_layer.shape != batch.layer_shape:
        raise DimensionMismatch(
            f"batch for layer {batch.layer_shape}, network {net.hidden_layer.shape}")
    h, pred = batch.h, batch.err
    np.matmul(net.hidden_layer, batch.x1t, out=h)
    np.tanh(h, out=h)
    np.matmul(net.output_weights[0], h, out=pred)
    pred += net.output_bias[0]
    return pred


def forward_batch(net: Network, batch: Batch) -> np.ndarray:
    """Predictions for a prepared batch (the batch's scratch)."""
    return _forward(net, batch)


def mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.size == 0 or t.size == 0:
        raise EmptyInput("mse needs at least one value")
    if p.shape != t.shape:
        raise LengthMismatch(f"length {p.size} vs {t.size}")
    return _mean_square(p - t)


def _mean_square(err: np.ndarray, out: np.ndarray | None = None) -> float:
    # np.mean's own arithmetic (sum of squares, then divide by the count)
    # without its Python-level overhead, so the value matches np.mean
    # bitwise; the squares go to `out` when it is given
    return float(np.add.reduce(np.multiply(err, err, out=out), axis=None) / err.size)


def backprop_gradient(net: Network, batch: Batch) -> tuple[float, np.ndarray]:
    """(loss, grad): the batch MSE and its exact gradient with respect to
    every parameter, from one forward pass; `grad` is a flat vector in the
    network's layout (`_views`), the batch's scratch.  The hidden-layer
    gradient is ((1 - h^2) * dout) [x|1], its rows then scaled by w_out."""
    err = _forward(net, batch)
    err -= batch.targets  # pred - t
    loss = _mean_square(err, out=batch.sq)
    h, g = batch.h, batch.grad_views
    # d(MSE)/d(pred_i) = 2/n * (pred_i - t_i)
    dout = err
    dout *= 2.0 / err.size
    np.matmul(h, dout, out=g["output_weights"][0])
    g["output_bias"][0] = dout.sum()
    # h overwritten by (1 - h^2) * dout, dout broadcast along every row
    h *= h
    np.subtract(1.0, h, out=h)
    h *= dout
    # the ones row of [x|1]^T makes the last column the hidden-bias gradient
    np.matmul(h, batch.x1t.T, out=g["hidden_layer"])
    g["hidden_layer"] *= net.output_weights.T
    return loss, batch.grad


@dataclass(frozen=True)
class TrainState:
    network: Network
    epoch: int
    train_mse: float
    validation_mse: float


def gd_step(
    theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float
) -> None:
    """One momentum update of the flat vectors `theta` and `velocity`, in
    place: v <- momentum*v - lr*g; theta <- theta + v.

    Raises ValueError if the updated parameters are not finite."""
    if grad.shape != theta.shape or velocity.shape != theta.shape:
        raise DimensionMismatch("gradient length does not match the network")
    velocity *= momentum
    velocity -= lr * grad
    theta += velocity
    if not np.isfinite(theta).all():
        raise ValueError("network parameters must be finite")


def train(
    net: Network,
    pairs: tuple[np.ndarray, np.ndarray],
    split: tuple[np.ndarray, np.ndarray],
    epochs: int,
    lr: float,
    momentum: float,
    patience: int,
) -> tuple[TrainState, np.ndarray]:
    """Full-batch gradient descent on the pairs (inputs, targets), an (n, m)
    array and its n targets, split as (train_indices, validation_indices).

    Each epoch takes one step and then records the training and validation
    MSE at the new parameters.  Returns the state with the lowest validation
    MSE seen and the trace, a C-contiguous (k, 2) float64 array whose row
    e - 1 holds epoch e's (train MSE, validation MSE).  Training stops early
    after `patience` epochs without improvement (patience=0 runs the full
    budget), or immediately once the training error hits exactly zero.  `net`
    is not modified, and the returned network is a copy that no later
    training touches.

    Raises ConfigError for epochs < 1, lr <= 0, momentum outside [0, 1) or
    patience < 0, and DivergenceDetected, carrying the trace of the epochs
    before the failing one, if the gradient, the parameters after a step or
    the training error become non-finite.
    """
    if epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if lr <= 0.0:
        raise ConfigError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError("momentum must lie in [0, 1)")
    if patience < 0:
        raise ConfigError("patience must be non-negative (0 disables early stopping)")
    h, m = net.hidden_dim, net.input_dim
    x, y = pairs
    batch, val = (Batch(x[idx], y[idx], h) for idx in split)
    # the working parameters: gd_step moves theta in place, and `work` holds
    # views of it for the passes; neither leaves this function
    theta = net.flat.copy()
    work = Network._from_flat(theta, h, m)
    velocity = np.zeros_like(theta)
    best = np.empty_like(theta)
    # each epoch's (train MSE, validation MSE), grown as it goes, since the
    # budget may be far beyond the epochs early stopping runs; viewed as the
    # (k, 2) trace only on the way out, as an array cannot grow once viewed
    record = array("d")
    best_epoch = 0
    stale = 0
    # overflow here is not an error condition: it surfaces as a non-finite
    # gradient, step or training error and raises DivergenceDetected below
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient pass at each epoch's stepped parameters also gives that
        # epoch's training error, and its gradient drives the next epoch's step
        _, grad = backprop_gradient(work, batch)
        for epoch in range(1, epochs + 1):
            try:
                gd_step(theta, velocity, grad, lr, momentum)
            except ValueError:
                # a non-finite gradient always makes the step non-finite
                # (theta and v were finite), so it is looked for only here
                cause = "parameters" if np.isfinite(grad).all() else "gradient"
                raise DivergenceDetected(f"{cause} became non-finite at epoch {epoch}",
                                         np.frombuffer(record).reshape(-1, 2)) from None
            train_err, grad = backprop_gradient(work, batch)
            if not math.isfinite(train_err):
                raise DivergenceDetected(f"training error became non-finite at epoch {epoch}",
                                         np.frombuffer(record).reshape(-1, 2))
            err = forward_batch(work, val)
            err -= val.targets
            val_err = _mean_square(err, out=err)
            record.append(train_err)
            record.append(val_err)
            if best_epoch == 0 or val_err < best_val:
                best_epoch, best_train, best_val = epoch, train_err, val_err
                best[:] = theta
                stale = 0
            else:
                stale += 1
                if patience and stale >= patience:
                    break
            if train_err == 0.0:
                break
    state = TrainState(Network._from_flat(best, h, m), best_epoch, best_train, best_val)
    return state, np.frombuffer(record).reshape(-1, 2)


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


def _numbers_only(value) -> bool:
    """True if `value` is a JSON number, an int that is not a bool or a float,
    or a list nested to any depth whose leaves all are."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        elif type(item) not in (int, float):
            return False
    return True


def network_from_dict(payload: dict) -> Network:
    """Rebuild a network from its serialized form.

    A payload `network_to_dict` would not write raises LengthMismatch (a
    corrupt artifact, not a configuration problem): another format version
    or activation, dimensions that are not integers equal to the stored
    arrays' shape, array entries that are not JSON numbers (strings and
    booleans too), non-finite values, or a missing or malformed field.
    """
    try:
        version, h, m = (payload[key] for key in ("format_version", "hidden_dim", "input_dim"))
        if not all(type(v) is int for v in (version, h, m)):
            raise TypeError("format_version, hidden_dim and input_dim must be integers")
        names = payload["hidden_activation"], payload["output_activation"]
        if (version, *names) != (NETWORK_FORMAT_VERSION, HIDDEN_ACTIVATION, OUTPUT_ACTIVATION):
            raise ValueError(f"unsupported format version {version} or activations {names}")
        for name in _ARRAYS:
            if not _numbers_only(payload[name]):
                raise TypeError(f"{name} must hold only numbers")
        net = Network(*(payload[name] for name in _ARRAYS))
        if net.hidden_weights.shape != (h, m):
            raise ValueError(f"stored arrays of m={net.input_dim}, H={net.hidden_dim} disagree "
                             f"with declared dims m={m}, H={h}")
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise LengthMismatch(f"network payload malformed: {exc}") from None
    return net
