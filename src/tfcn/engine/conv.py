"""Grouped dilated 2-D convolution with hand-written forward and backward.

Arrays are float32 in (batch, channel, freq, time) layout. One forward
kernel serves training, validation, batch enhancement and streaming, and a
streamed frame is bitwise equal to its batch counterpart (see
``conv2d_forward``). ``tests/oracles.py`` is its independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# bytes of one block copied by channel_major: small enough for a typical L2 cache
_BLOCK_BYTES = 1 << 21


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


def _check_input(x: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 4:
        raise ShapeError(f"expected (batch, channel, freq, time) input, got {x.ndim}-d")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"channel axis: input has {x.shape[1]} channels, spec expects {spec.in_channels}")


def _pad(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    lf, rf, lt, rt = spec.pad
    if lf == rf == lt == rt == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (lf, rf), (lt, rt)))


def _windows(xp: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Strided view (B, C, F_out, T_out, k_f, k_t) of dilated taps."""
    span_f, span_t = spec.span()
    win = sliding_window_view(xp, (span_f, span_t), axis=(2, 3))
    return win[..., ::spec.dilation[0], ::spec.dilation[1]]


def _tap_range(i: int, d: int, pad_left: int, n_in: int, n_out: int):
    """Output slice a tap reads inside the input over, and its input slice."""
    shift = i * d - pad_left
    lo, hi = max(0, -shift), min(n_out, n_in - shift)
    return slice(lo, hi), slice(lo + shift, hi + shift)


def conv2d_forward(x, weight, spec: ConvSpec, bias=None):
    """Run the convolution; returns (output, context).

    ``x`` is (B, C_in, F, T) float32; ``weight`` is
    (C_out, C_in/groups, k_f, k_t). The context feeds conv2d_backward.

    Computed frame-major: the taps (i, j) are added in a fixed order, each
    over the output rectangle where it reads inside the input (padding is
    never materialized). With one input channel per group a tap is an
    elementwise multiply-add; otherwise it is one ``np.matmul`` per group
    over the (B, T, C/g, F) frames, a GEMM per frame whose shape does not
    depend on how many frames are computed together. Every output frame
    therefore equals, bitwise, a call on that frame's window alone, which is
    what lets streaming match the batch forward.

    The output is a (B, C_out, F_out, T_out) view of frame-major memory, so a
    following convolution reads its frames without a copy.
    """
    _check_input(x, spec)
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(f"weight shape {weight.shape} != expected {spec.weight_shape}")
    if spec.has_bias and bias is None:
        raise ShapeError("spec.has_bias is set but no bias given")
    b_sz, _, n_f, n_t = x.shape
    f_out, t_out = spec.out_size(n_f, n_t)
    groups = spec.groups
    c_per_g = spec.in_channels // groups
    out_per_g = spec.out_channels // groups
    lf, _, lt, _ = spec.pad
    xt = np.ascontiguousarray(x.transpose(0, 3, 1, 2), dtype=np.float32)
    yt = np.zeros((b_sz, t_out, spec.out_channels, f_out), dtype=np.float32)
    # (k_f, k_t, C_out, C_in/g): each tap's matrix has unit stride, as BLAS needs
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1), dtype=np.float32)
    if c_per_g == 1:
        xg = xt.reshape(b_sz, n_t, groups, 1, n_f)
        yg = yt.reshape(b_sz, t_out, groups, out_per_g, f_out)
        taps = taps.reshape(*spec.kernel, groups, out_per_g, 1)
    for i in range(spec.kernel[0]):
        fo, fi = _tap_range(i, spec.dilation[0], lf, n_f, f_out)
        for j in range(spec.kernel[1]):
            to, ti = _tap_range(j, spec.dilation[1], lt, n_t, t_out)
            if fo.start >= fo.stop or to.start >= to.stop:
                continue            # the tap reads only padding
            if c_per_g == 1:
                yg[:, to, :, :, fo] += taps[i, j] * xg[:, ti, :, :, fi]
            else:
                for g in range(groups):
                    osl = slice(g * out_per_g, (g + 1) * out_per_g)
                    csl = slice(g * c_per_g, (g + 1) * c_per_g)
                    yt[:, to, osl, fo] += np.matmul(taps[i, j, osl], xt[:, ti, csl, fi])
    if spec.has_bias:
        yt += bias[None, None, :, None]
    y = yt.transpose(0, 2, 3, 1)
    return y, Conv2dContext(spec=spec, x=x, weight=weight, out_shape=y.shape)


def channel_major(y: np.ndarray) -> np.ndarray:
    """C-ordered copy of a (B, C, F, T) array, e.g. a conv2d_forward output.

    A frame-major source is copied a block of frames at a time: each block
    stays in cache, where numpy's one-pass transposing copy runs several
    times slower.
    """
    out = np.empty(y.shape, dtype=y.dtype)
    step = max(1, _BLOCK_BYTES // (y[..., :1].nbytes or 1))
    for t in range(0, y.shape[3], step):
        out[..., t:t + step] = y[..., t:t + step]
    return out


def conv2d_backward(grad_out, ctx: Conv2dContext):
    """Gradients wrt input, weight and bias from the saved forward context."""
    if tuple(grad_out.shape) != tuple(ctx.out_shape):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match forward output {ctx.out_shape}")
    spec = ctx.spec
    xp = _pad(ctx.x, spec)
    b_sz, _, f_out, t_out = grad_out.shape
    k_f, k_t = spec.kernel
    d_f, d_t = spec.dilation
    c_per_g = spec.in_channels // spec.groups
    out_per_g = spec.out_channels // spec.groups

    grad_xp = np.zeros_like(xp)
    grad_w = np.empty(spec.weight_shape, dtype=np.float32)

    if spec.is_depthwise:
        tmp = np.empty_like(grad_out)
        for i in range(k_f):
            for j in range(k_t):
                patch = xp[:, :, i * d_f:i * d_f + f_out, j * d_t:j * d_t + t_out]
                grad_w[:, 0, i, j] = np.einsum("bcft,bcft->c", grad_out, patch,
                                               optimize=True)
                tap = ctx.weight[:, 0, i, j][None, :, None, None]
                np.multiply(grad_out, tap, out=tmp)
                grad_xp[:, :, i * d_f:i * d_f + f_out, j * d_t:j * d_t + t_out] += tmp
    else:
        win = _windows(xp, spec)
        for g in range(spec.groups):
            osl = slice(g * out_per_g, (g + 1) * out_per_g)
            csl = slice(g * c_per_g, (g + 1) * c_per_g)
            go_g = grad_out[:, osl]
            # (O/g, C/g, k_f, k_t) <- contract (b, f, t)
            grad_w[osl] = np.tensordot(go_g, win[:, csl], axes=([0, 2, 3], [0, 2, 3]))
            w_g = ctx.weight[osl]
            for i in range(k_f):
                for j in range(k_t):
                    # (B, F, T, C/g) <- contract output channels
                    gx = np.tensordot(go_g, w_g[:, :, i, j], axes=([1], [0]))
                    grad_xp[:, csl, i * d_f:i * d_f + f_out, j * d_t:j * d_t + t_out] += (
                        np.moveaxis(gx, 3, 1))

    lf, _, lt, _ = spec.pad
    n_f, n_t = ctx.x.shape[2], ctx.x.shape[3]
    grad_x = grad_xp[:, :, lf:lf + n_f, lt:lt + n_t]
    grad_b = grad_out.sum(axis=(0, 2, 3)) if spec.has_bias else None
    return np.ascontiguousarray(grad_x), grad_w, grad_b
