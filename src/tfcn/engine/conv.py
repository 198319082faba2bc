"""Grouped dilated 2-D convolution with hand-written forward and backward.

Arrays are float32 with (batch, channel, freq, time) axes over frame-major
(B, T, C, F) memory, activations and gradients alike. Both passes walk the
same taps over the same rectangles (``_live_taps``): neither pads its input,
and both skip taps that read only padding. One forward kernel serves
training, validation, batch enhancement and streaming, and a streamed frame
is bitwise equal to its batch counterpart (see ``conv2d_forward``).
``tests/oracles.py`` is the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor extents do not match a layer contract."""


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one convolutional layer.

    ``kernel``/``dilation`` are (freq, time); ``pad`` is
    (left_f, right_f, left_t, right_t) in zeros added before the valid
    cross-correlation. ``groups == in_channels == out_channels`` identifies a
    depth-wise layer.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)
    has_bias: bool = False

    def __post_init__(self):
        for name in ("in_channels", "out_channels", "groups"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be positive, got {getattr(self, name)}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"channels ({self.in_channels} in, {self.out_channels} out) "
                f"must be divisible by groups={self.groups}")
        if min(self.kernel) < 1 or min(self.dilation) < 1:
            raise ShapeError(f"kernel {self.kernel} and dilation {self.dilation} must be >= 1")
        if min(self.pad) < 0:
            raise ShapeError(f"pad {self.pad} must be non-negative")

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, *self.kernel)

    def span(self) -> tuple[int, int]:
        """Dilated kernel extent per axis: (k - 1) * d + 1."""
        return ((self.kernel[0] - 1) * self.dilation[0] + 1,
                (self.kernel[1] - 1) * self.dilation[1] + 1)

    def out_size(self, n_f: int, n_t: int) -> tuple[int, int]:
        lf, rf, lt, rt = self.pad
        span_f, span_t = self.span()
        f_out = n_f + lf + rf - span_f + 1
        t_out = n_t + lt + rt - span_t + 1
        if f_out < 1:
            raise ShapeError(
                f"freq axis: dilated kernel span {span_f} exceeds padded input {n_f + lf + rf}")
        if t_out < 1:
            raise ShapeError(
                f"time axis: dilated kernel span {span_t} exceeds padded input {n_t + lt + rt}")
        return f_out, t_out


@dataclass
class Conv2dContext:
    """Forward byproducts needed by conv2d_backward."""

    spec: ConvSpec
    x: np.ndarray
    weight: np.ndarray
    out_shape: tuple[int, int, int, int]


_ALL = slice(None)


def _check_input(x: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 4:
        raise ShapeError(f"expected (batch, channel, freq, time) input, got {x.ndim}-d")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"channel axis: input has {x.shape[1]} channels, spec expects {spec.in_channels}")


def _grouped(a: np.ndarray, groups: int) -> np.ndarray:
    """Frame-major (B, T, groups, C/groups, F) float32 view of a (B, C, F, T)
    array; copies only when its memory is not already frame-major."""
    b_sz, channels, n_f, n_t = a.shape
    at = np.ascontiguousarray(a.transpose(0, 3, 1, 2), dtype=np.float32)
    return at.reshape(b_sz, n_t, groups, channels // groups, n_f)


def _taps(weight: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(k_f, k_t, groups, C_out/g, C_in/g): each tap's matrix has unit stride, as BLAS needs."""
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1), dtype=np.float32)
    return taps.reshape(*spec.kernel, spec.groups, -1, spec.in_channels // spec.groups)


def _tap_range(i: int, d: int, pad_left: int, n_in: int, n_out: int):
    """Output slice a tap reads inside the input over, and its input slice."""
    shift = i * d - pad_left
    lo, hi = max(0, -shift), min(n_out, n_in - shift)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def _live_taps(spec: ConvSpec, n_f: int, n_t: int, f_out: int, t_out: int):
    """Yield (i, j, out, inp) for each tap that reads inside the input, in a
    fixed order. ``out``/``inp`` index the output and input rectangles of
    grouped frame-major arrays (``_grouped``) between which the tap acts."""
    lf, _, lt, _ = spec.pad
    for i in range(spec.kernel[0]):
        fo, fi = _tap_range(i, spec.dilation[0], lf, n_f, f_out)
        for j in range(spec.kernel[1]):
            to, ti = _tap_range(j, spec.dilation[1], lt, n_t, t_out)
            if fo.start < fo.stop and to.start < to.stop:
                yield i, j, (_ALL, to, _ALL, _ALL, fo), (_ALL, ti, _ALL, _ALL, fi)


def conv2d_forward(x, weight, spec: ConvSpec, bias=None):
    """Run the convolution; returns (output, context).

    ``x`` is (B, C_in, F, T) float32; ``weight`` is
    (C_out, C_in/groups, k_f, k_t). The context feeds conv2d_backward.

    The taps (i, j) are added in a fixed order, each over the output
    rectangle where it reads inside the input (``_live_taps``; padding is
    never materialized). With one input channel per group a tap is an
    elementwise multiply-add; otherwise it is one ``np.matmul`` over the
    (B, T, groups) frames, a GEMM per frame and group whose shape does not
    depend on how many frames are computed together. Every output frame
    therefore equals, bitwise, a call on that frame's window alone, which is
    what lets streaming match the batch forward.

    The output is a (B, C_out, F_out, T_out) view of frame-major memory, so a
    following layer reads its frames without a copy.
    """
    _check_input(x, spec)
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(f"weight shape {weight.shape} != expected {spec.weight_shape}")
    if spec.has_bias and bias is None:
        raise ShapeError("spec.has_bias is set but no bias given")
    b_sz, _, n_f, n_t = x.shape
    f_out, t_out = spec.out_size(n_f, n_t)
    xg = _grouped(x, spec.groups)
    taps = _taps(weight, spec)
    yg = np.zeros((b_sz, t_out, *taps.shape[2:4], f_out), dtype=np.float32)
    elementwise = spec.in_channels == spec.groups
    for i, j, out, inp in _live_taps(spec, n_f, n_t, f_out, t_out):
        if elementwise:
            yg[out] += taps[i, j] * xg[inp]
        else:
            yg[out] += np.matmul(taps[i, j], xg[inp])
    yt = yg.reshape(b_sz, t_out, spec.out_channels, f_out)
    if spec.has_bias:
        yt += bias[None, None, :, None]
    y = yt.transpose(0, 2, 3, 1)
    return y, Conv2dContext(spec=spec, x=x, weight=weight, out_shape=y.shape)


def conv2d_backward(grad_out, ctx: Conv2dContext):
    """Gradients wrt input, weight and bias from the saved forward context.

    Walks the forward's live taps (``_live_taps``) over the same frame-major
    memory, so padding-only taps get a zero weight gradient and no work. A
    tap's weight gradient is one ``np.matmul`` of its output and input
    rectangles per frame and group, summed over the frames. Its input
    gradient is an elementwise multiply-add for depth-wise taps; otherwise,
    including one input channel feeding many outputs, it is one
    ``np.matmul`` over each group's output channels. ``grad_x`` is a
    (B, C_in, F, T) view of frame-major memory, like the forward's output.
    """
    if tuple(grad_out.shape) != tuple(ctx.out_shape):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match forward output {ctx.out_shape}")
    spec = ctx.spec
    b_sz, _, n_f, n_t = ctx.x.shape
    f_out, t_out = ctx.out_shape[2:]
    xg = _grouped(ctx.x, spec.groups)
    gyg = _grouped(grad_out, spec.groups)
    taps = _taps(ctx.weight, spec)
    grad_xg = np.zeros_like(xg)
    grad_taps = np.zeros_like(taps)
    for i, j, out, inp in _live_taps(spec, n_f, n_t, f_out, t_out):
        go = gyg[out]
        grad_taps[i, j] = np.matmul(go, xg[inp].swapaxes(3, 4)).sum(axis=(0, 1))
        if spec.is_depthwise:
            grad_xg[inp] += taps[i, j] * go
        else:
            grad_xg[inp] += np.matmul(taps[i, j].swapaxes(1, 2), go)
    grad_w = np.ascontiguousarray(
        grad_taps.reshape(*spec.kernel, spec.out_channels, -1).transpose(2, 3, 0, 1))
    grad_b = gyg.sum(axis=(0, 1, 4)).reshape(-1) if spec.has_bias else None
    grad_x = grad_xg.reshape(b_sz, n_t, spec.in_channels, n_f).transpose(0, 2, 3, 1)
    return grad_x, grad_w, grad_b
