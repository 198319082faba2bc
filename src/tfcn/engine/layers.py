"""Layer primitives beyond convolution: parameters, batch norm, PReLU,
channel concat and residual add.

Each stateful layer keeps the context of its latest forward call and consumes
it in backward; the network composes these calls in reverse order. Gradients
accumulate on Parameter.grad.
"""

from __future__ import annotations

import numpy as np

from .conv import ConvSpec, ShapeError, conv2d_backward, conv2d_forward


class Parameter:
    """A learnable float32 array with an accumulated gradient."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(f"{self.name}: gradient shape {g.shape} != {self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(np.float32, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name}, shape={self.data.shape})"


class Conv2d:
    """Convolution layer owning its weight (and optional bias) parameters.

    Weights start uniform in +-sqrt(1/fan_in); a seeded generator makes the
    draw reproducible.
    """

    def __init__(self, spec: ConvSpec, rng: np.random.Generator, name: str = "conv"):
        self.name = name
        self.spec = spec
        fan_in = (spec.in_channels // spec.groups) * spec.kernel[0] * spec.kernel[1]
        bound = float(np.sqrt(1.0 / fan_in))
        self.weight = Parameter(
            f"{name}.weight",
            rng.uniform(-bound, bound, size=spec.weight_shape))
        self.bias = (Parameter(f"{name}.bias", np.zeros(spec.out_channels))
                     if spec.has_bias else None)
        self._ctx = None

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray, record: bool = False) -> np.ndarray:
        y, ctx = conv2d_forward(x, self.weight.data, self.spec,
                                bias=None if self.bias is None else self.bias.data)
        self._ctx = ctx if record else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: backward without a recorded forward")
        grad_x, grad_w, grad_b = conv2d_backward(grad_out, self._ctx)
        self._ctx = None
        self.weight.accumulate(grad_w)
        if self.bias is not None:
            self.bias.accumulate(grad_b)
        return grad_x


class BatchNorm:
    """Per-channel batch normalization over (batch, freq, time).

    Training mode normalizes with current-batch statistics (population
    variance) and folds them into the running buffers; inference mode is a
    frozen per-channel affine map, which is what keeps it out of the
    causality picture.
    """

    def __init__(self, channels: int, name: str = "bn", epsilon: float = 1e-5,
                 momentum: float = 0.1):
        self.name = name
        self.channels = channels
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._ctx = None

    def parameters(self):
        return [self.gamma, self.beta]

    def _check(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected (B, {self.channels}, F, T) input, "
                f"got {x.shape}")

    def forward(self, x: np.ndarray, training: bool, record: bool | None = None) -> np.ndarray:
        self._check(x)
        record = training if record is None else record
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
            m = self.momentum
            self.running_mean = ((1.0 - m) * self.running_mean + m * mean).astype(np.float32)
            self.running_var = ((1.0 - m) * self.running_var + m * var).astype(np.float32)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            x_hat = (x - self.running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._ctx = (x_hat, inv_std.astype(np.float32), training) if record else None
        y = self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]
        return y.astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: backward without a recorded forward")
        x_hat, inv_std, was_training = self._ctx
        self._ctx = None
        if grad_out.shape != x_hat.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} != forward {x_hat.shape}")
        self.gamma.accumulate((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad_out.sum(axis=(0, 2, 3)))
        scale = (self.gamma.data * inv_std)[None, :, None, None]
        if not was_training:
            return (grad_out * scale).astype(np.float32, copy=False)
        n = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        g_mean = grad_out.mean(axis=(0, 2, 3))[None, :, None, None]
        gx_mean = (grad_out * x_hat).sum(axis=(0, 2, 3))[None, :, None, None] / n
        grad_x = scale * (grad_out - g_mean - x_hat * gx_mean)
        return grad_x.astype(np.float32, copy=False)


class PReLU:
    """max(0, x) + alpha * min(0, x) with one learnable slope per layer."""

    def __init__(self, name: str = "prelu", init: float = 0.25):
        self.name = name
        self.alpha = Parameter(f"{name}.alpha", np.full((1,), init))
        self._ctx = None

    def parameters(self):
        return [self.alpha]

    def forward(self, x: np.ndarray, training: bool = False,
                record: bool | None = None) -> np.ndarray:
        record = training if record is None else record
        neg = np.minimum(x, 0.0)
        y = np.maximum(x, 0.0) + self.alpha.data * neg
        self._ctx = (x, neg) if record else None
        return y.astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: backward without a recorded forward")
        x, neg = self._ctx
        self._ctx = None
        if grad_out.shape != x.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} != forward {x.shape}")
        self.alpha.accumulate(np.array([(grad_out * neg).sum()], dtype=np.float32))
        slope = np.where(x >= 0.0, np.float32(1.0), self.alpha.data)
        return (grad_out * slope).astype(np.float32, copy=False)


def concat_channels(inputs) -> np.ndarray:
    """Concatenate along the channel axis, earliest input first."""
    inputs = list(inputs)
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    head = inputs[0]
    for i, x in enumerate(inputs[1:], start=1):
        if x.shape[0] != head.shape[0] or x.shape[2:] != head.shape[2:]:
            raise ShapeError(
                f"concat input {i} has batch/freq/time {x.shape[0], *x.shape[2:]} "
                f"!= first input {head.shape[0], *head.shape[2:]}")
    if len(inputs) == 1:
        return head
    return np.concatenate(inputs, axis=1)


def split_channels(grad: np.ndarray, sizes) -> list[np.ndarray]:
    """Backward of concat_channels: route grad slices to each input."""
    if sum(sizes) != grad.shape[1]:
        raise ShapeError(f"split sizes {tuple(sizes)} do not sum to {grad.shape[1]} channels")
    out, start = [], 0
    for s in sizes:
        out.append(grad[:, start:start + s])
        start += s
    return out


def add_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"residual shapes differ: {a.shape} vs {b.shape}")
    return a + b
