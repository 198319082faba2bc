"""Layer primitives beyond convolution: parameters, batch norm, PReLU,
channel concat and residual add.

Each stateful layer keeps the context of its latest recording forward and
consumes it in backward; the network composes these calls in reverse order.
Gradients accumulate on Parameter.grad. What a recording forward keeps, one
activation-sized array at most:

- ``Conv2d``: its input x (see ``conv2d_backward``).
- ``PReLU``: its input x; the backward recomputes min(x, 0) and the slope.
- ``BatchNorm``: in training, its input centred by the batch mean, a new
  array the backward overwrites as its one temporary; in inference, its
  input x.

BatchNorm and PReLU work on the (B, T, C, F) view of their (B, C, F, T)
arrays, contiguous on the frame-major memory the convolution returns, and
return their output, and their input gradient, in their input's memory
order, so the next convolution reads it without a copy. Channel-major inputs,
such as the model input, run through the same kernels. Their elementwise
passes split the frames across cores (``split_frames``); their channel sums
run in one thread.
"""

from __future__ import annotations

import numpy as np

from .conv import ConvSpec, ShapeError, conv2d_backward, conv2d_forward, split_frames


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


def _frames(a: np.ndarray) -> np.ndarray:
    """(B, T, C, F) view of a (B, C, F, T) array. On frame-major memory it is
    contiguous, and a per-channel (C, 1) vector broadcasts along each frame's
    contiguous freq run."""
    return a.transpose(0, 3, 1, 2)


def _channel_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel float64 sums over (batch, time, freq) of the (B, T, C, F)
    view ``a``, or of ``a * b``: float32 along each freq run, float64 across
    the runs."""
    runs = np.einsum("...f->...", a) if b is None else np.einsum("...f,...f->...", a, b)
    return runs.sum(axis=(0, 1), dtype=np.float64)


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v.astype(np.float32)[:, None]


# Frame kernels for split_frames: BatchNorm's compute the frames [lo, hi) of
# (B, T, C, F) views, PReLU's those of (B, C, F, T) arrays.

def _centre_frames(lo, hi, out, x, mean):
    np.subtract(x[:, lo:hi], mean, out=out[:, lo:hi])


def _affine_frames(lo, hi, out, x, scale, shift):
    o = out[:, lo:hi]
    np.multiply(x[:, lo:hi], scale, out=o)
    if shift is not None:
        o += shift


def _bn_train_grad_frames(lo, hi, out, grad, centred, x_hat_scale, grad_mean, scale):
    # scale * (grad - (grad_mean + centred * x_hat_scale)), in centred's memory
    c, o = centred[:, lo:hi], out[:, lo:hi]
    c *= x_hat_scale
    c += grad_mean
    np.subtract(grad[:, lo:hi], c, out=o)
    o *= scale


def _prelu_frames(lo, hi, out, x, alpha):
    xs, o = x[..., lo:hi], out[..., lo:hi]
    np.maximum(xs, 0.0, out=o, dtype=np.float32)
    neg = np.minimum(xs, 0.0, dtype=np.float32)
    neg *= alpha
    o += neg


def _negative_frames(lo, hi, out, x):
    np.minimum(x[..., lo:hi], 0.0, out=out[..., lo:hi], dtype=np.float32)


def _prelu_grad_frames(lo, hi, out, x, grad, a):
    o = out[..., lo:hi]
    np.greater_equal(x[..., lo:hi], 0.0, out=o)
    o *= 1 - a
    o += a
    o *= grad[..., lo:hi]


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
        """x * scale + shift per channel, in two passes. Training first takes
        the batch mean in one sum pass, centres x into a new array and sums
        its squares for the variance, then maps the centred array. A
        recording forward saves the centred array in training and x in
        inference."""
        self._check(x)
        record = training if record is None else record
        xt = _frames(x)
        if training:
            n = x.shape[0] * x.shape[2] * x.shape[3]
            mean = _channel_sums(xt) / n
            saved = np.empty_like(x, dtype=np.float32)
            src = _frames(saved)
            split_frames(_centre_frames, x.shape[3], x.size, src, xt, _per_channel(mean))
            var = _channel_sums(src, src) / n
            m = self.momentum
            self.running_mean = ((1.0 - m) * self.running_mean + m * mean).astype(np.float32)
            self.running_var = ((1.0 - m) * self.running_var + m * var).astype(np.float32)
            offset = 0.0
        else:
            saved, src = x, xt
            offset = self.running_mean.astype(np.float64)
            var = self.running_var.astype(np.float64)
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        scale = self.gamma.data * inv_std
        y = np.empty_like(x, dtype=np.float32)
        split_frames(_affine_frames, x.shape[3], x.size, _frames(y), src, _per_channel(scale),
                     _per_channel(self.beta.data - offset * scale))
        self._ctx = (saved, offset, inv_std, training) if record else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Ioffe & Szegedy's backward, with x_hat = (saved - offset) * inv_std;
        in training the saved centred array is overwritten as the one
        temporary."""
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: backward without a recorded forward")
        saved, offset, inv_std, was_training = self._ctx
        self._ctx = None
        if grad_out.shape != saved.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} != forward {saved.shape}")
        gt = _frames(grad_out)
        st = _frames(saved)
        g_sum = _channel_sums(gt)
        gx_sum = (_channel_sums(gt, st) - offset * g_sum) * inv_std   # sum of grad_out * x_hat
        self.gamma.accumulate(gx_sum.astype(np.float32))
        self.beta.accumulate(g_sum.astype(np.float32))
        scale = _per_channel(self.gamma.data * inv_std)
        grad_x = np.empty_like(saved, dtype=np.float32)
        gxt = _frames(grad_x)
        if not was_training:
            split_frames(_affine_frames, gxt.shape[1], gxt.size, gxt, gt, scale, None)
            return grad_x
        # scale * (grad_out - mean(grad_out) - x_hat * mean(grad_out * x_hat))
        n = saved.shape[0] * saved.shape[2] * saved.shape[3]
        split_frames(_bn_train_grad_frames, gxt.shape[1], gxt.size, gxt, gt, st,
                     _per_channel(inv_std * gx_sum / n), _per_channel(g_sum / n), scale)
        return grad_x


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
        """The formula as written, exact for any alpha; a recording forward
        saves x."""
        record = training if record is None else record
        y = np.empty_like(x, dtype=np.float32)
        split_frames(_prelu_frames, x.shape[3], x.size, y, x, self.alpha.data)
        self._ctx = x if record else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Recomputes min(x, 0) for the alpha gradient, then the slope from
        the x >= 0 mask in the same buffer: mask * (1 - alpha) + alpha, which
        is alpha where x < 0 and, where x >= 0, 1 to within one ulp while
        |alpha| < 2**24 (0.99999994 at alpha = -0.3)."""
        if self._ctx is None:
            raise RuntimeError(f"{self.name}: backward without a recorded forward")
        x = self._ctx
        self._ctx = None
        if grad_out.shape != x.shape:
            raise ShapeError(f"grad_out shape {grad_out.shape} != forward {x.shape}")
        buf = np.empty_like(x, dtype=np.float32)
        split_frames(_negative_frames, x.shape[3], x.size, buf, x)
        self.alpha.accumulate(np.array([_channel_sums(_frames(buf), _frames(grad_out)).sum()]))
        split_frames(_prelu_grad_frames, x.shape[3], x.size, buf, x, grad_out, self.alpha.data[0])
        return buf


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
