"""Grouped dilated 2-D convolution with hand-written forward and backward.

Arrays are float32 with (batch, channel, freq, time) axes over frame-major
(B, T, C, F) memory, activations and gradients alike. Both passes walk the
same taps over the same rectangles (``_live_taps``): neither pads its input,
and both skip taps that read only padding. One forward kernel serves
training, validation, batch enhancement and streaming, and a streamed frame
is bitwise equal to its batch counterpart (see ``conv2d_forward``).
``tests/oracles.py`` is the independent cross-check.

Every kernel that computes each frame on its own splits the frame axis
into one contiguous chunk per core the process may use (``split_frames``):
the calling thread and a pool of threads claim the chunks in turn. The pool
starts at import, so that no layer call, and no memory it measures, pays for
starting a thread. numpy's ufuncs and ``np.matmul`` release the GIL, so the
chunks run at the same time. Each chunk writes only its own frames and
computes each of them exactly as one thread would, so results are bitwise
equal for any core count. That covers the forward's tap walk (a worker owns
a range of output frames), the backward's input gradient (a range of input
frames) and its per-frame weight-gradient products, and the elementwise
passes of BatchNorm and PReLU (``tfcn.engine.layers``). Reductions across
frames stay serial in their one order: the frame sums of the weight and
bias gradients, and BatchNorm's and PReLU's channel sums. A call too small
to pay for waking a thread, such as every streamed column, runs its kernel
inline over all its frames.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


class _FramePool:
    """Daemon threads that help run frame chunks, all running once the
    constructor returns, so no layer call ever starts one."""

    def __init__(self, threads: int):
        self.threads = threads
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(threads):
            threading.Thread(target=self._work, name="tfcn-frames", daemon=True).start()

    def _work(self) -> None:
        while self._run_next():
            pass

    def _run_next(self) -> bool:
        """Help with one queued call; its arrays are released on return, not
        kept alive while the thread waits for the next one."""
        job = self.jobs.get()
        if job is None:
            return False
        done, call = job
        try:
            _run_chunks(*call)
        except BaseException as exc:    # re-raised by the dispatching thread
            done.put(exc)
        else:
            done.put(None)
        return True

    def close(self) -> None:
        for _ in range(self.threads):
            self.jobs.put(None)


def _start_pool(workers: int) -> _FramePool | None:
    """The pool that helps the calling thread: none for one worker."""
    return _FramePool(workers - 1) if workers > 1 else None


WORKERS = _usable_cores()
# Multiply-adds, or elements of an elementwise pass, below which a chunk does
# not pay for its dispatch (tens of microseconds, most of it waking a thread).
MIN_CHUNK = 1 << 17
_POOL = _start_pool(WORKERS)


def _restart_pool() -> None:
    # a forked child inherits the pool but not its threads
    global _POOL
    _POOL = _start_pool(WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_restart_pool)


def _run_chunks(claim, chunks: int, n_frames: int, kernel, args) -> None:
    """Run ``kernel`` on chunks claimed one at a time until none is left."""
    while (k := claim()) < chunks:
        kernel(n_frames * k // chunks, n_frames * (k + 1) // chunks, *args)


def split_frames(kernel, n_frames: int, cost: int, *args) -> None:
    """Run ``kernel(lo, hi, *args)`` over the frames [0, n_frames), split
    into at most ``WORKERS`` contiguous chunks that each cost ``MIN_CHUNK``
    or more, of the call's ``cost``. The calling thread and the pool claim
    the chunks in turn, so the caller also runs any chunk a worker has not
    started, say while it wakes up; the kernel must write only its own
    frames. With one chunk the kernel runs inline over all frames."""
    chunks = min(WORKERS, n_frames, cost // MIN_CHUNK)
    if chunks < 2:
        kernel(0, n_frames, *args)
        return
    # count.__next__ is one call under the GIL, so each chunk goes to one thread
    call = (itertools.count().__next__, chunks, n_frames, kernel, args)
    done: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(1, chunks):
        _POOL.jobs.put((done, call))
    try:
        _run_chunks(*call)
    finally:
        # Every helper ends first. The caller polls rather than blocks: the
        # wait is at most one chunk, and a blocked caller lets its core go
        # idle, after which a virtual machine's host can run it slower for
        # a while (the serial set-up after a parallel enhance took 25% longer).
        errors = []
        while len(errors) < chunks - 1:
            try:
                errors.append(done.get_nowait())
            except queue.Empty:
                time.sleep(0)       # releases the GIL to the helpers
    for error in errors:
        if error is not None:
            raise error


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


def _live_taps(spec: ConvSpec, n_f: int, n_t: int, f_out: int, t_out: int,
               lo: int, hi: int, of_input: bool = False):
    """Yield (i, j, out, inp) for each tap that reads inside the input, in a
    fixed order. ``out``/``inp`` index the output and input rectangles of
    grouped frame-major arrays (``_grouped``) between which the tap acts,
    limited to the output frames [lo, hi), or with ``of_input`` to those
    input frames."""
    lf, _, lt, _ = spec.pad
    for i in range(spec.kernel[0]):
        fo, fi = _tap_range(i, spec.dilation[0], lf, n_f, f_out)
        for j in range(spec.kernel[1]):
            shift = j * spec.dilation[1] - lt       # input frame minus output frame
            s = shift if of_input else 0
            a, b = max(0, -shift, lo - s), min(t_out, n_t - shift, hi - s)
            if fo.start < fo.stop and a < b:
                yield (i, j, (_ALL, slice(a, b), _ALL, _ALL, fo),
                       (_ALL, slice(a + shift, b + shift), _ALL, _ALL, fi))


def _forward_frames(lo, hi, yg, xg, taps, spec, bias):
    """Output frames [lo, hi) of ``conv2d_forward``: the live taps in order,
    then the bias."""
    n_f, n_t = xg.shape[4], xg.shape[1]
    for i, j, out, inp in _live_taps(spec, n_f, n_t, yg.shape[4], yg.shape[1], lo, hi):
        if spec.in_channels == spec.groups:
            yg[out] += taps[i, j] * xg[inp]
        else:
            yg[out] += np.matmul(taps[i, j], xg[inp])
    if bias is not None:
        yg[:, lo:hi] += bias.reshape(spec.groups, -1, 1)


def _weight_products(lo, hi, prod, go, xi):
    """Frames [lo, hi) of one tap's per-frame weight-gradient products."""
    np.matmul(go[:, lo:hi], xi[:, lo:hi].swapaxes(3, 4), out=prod[:, lo:hi])


def _input_grad_frames(lo, hi, grad_xg, gyg, taps, spec):
    """Input frames [lo, hi) of ``conv2d_backward``'s input gradient, the
    live taps in order."""
    n_f, n_t = grad_xg.shape[4], grad_xg.shape[1]
    for i, j, out, inp in _live_taps(spec, n_f, n_t, gyg.shape[4], gyg.shape[1], lo, hi,
                                     of_input=True):
        if spec.is_depthwise:
            grad_xg[inp] += taps[i, j] * gyg[out]
        else:
            grad_xg[inp] += np.matmul(taps[i, j].swapaxes(1, 2), gyg[out])


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
    what lets streaming match the batch forward, and what lets
    ``split_frames`` hand each core a range of output frames.

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
    split_frames(_forward_frames, t_out, yg.size * taps.size // spec.out_channels,
                 yg, xg, taps, spec, bias if spec.has_bias else None)
    y = yg.reshape(b_sz, t_out, spec.out_channels, f_out).transpose(0, 2, 3, 1)
    return y, Conv2dContext(spec=spec, x=x, weight=weight, out_shape=y.shape)


def conv2d_backward(grad_out, ctx: Conv2dContext):
    """Gradients wrt input, weight and bias from the saved forward context.

    Walks the forward's live taps (``_live_taps``) over the same frame-major
    memory, so padding-only taps get a zero weight gradient and no work. A
    tap's weight gradient is one ``np.matmul`` of its output and input
    rectangles per frame and group, split across cores by frames, then
    summed over the frames in one thread. Its input gradient is an
    elementwise multiply-add for depth-wise taps; otherwise, including one
    input channel feeding many outputs, it is one ``np.matmul`` over each
    group's output channels; each core owns a range of input frames and adds
    every tap into it. ``grad_x`` is a (B, C_in, F, T) view of frame-major
    memory, like the forward's output.
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
    grad_taps = np.zeros_like(taps)
    for i, j, out, inp in _live_taps(spec, n_f, n_t, f_out, t_out, 0, t_out):
        go, xi = gyg[out], xg[inp]
        prod = np.empty((*go.shape[:4], xi.shape[3]), dtype=np.float32)
        split_frames(_weight_products, go.shape[1], prod.size * go.shape[4], prod, go, xi)
        grad_taps[i, j] = prod.sum(axis=(0, 1))
    grad_xg = np.zeros_like(xg)
    split_frames(_input_grad_frames, n_t, xg.size * taps.size // spec.in_channels,
                 grad_xg, gyg, taps, spec)
    grad_w = np.ascontiguousarray(
        grad_taps.reshape(*spec.kernel, spec.out_channels, -1).transpose(2, 3, 0, 1))
    grad_b = gyg.sum(axis=(0, 1, 4)).reshape(-1) if spec.has_bias else None
    grad_x = grad_xg.reshape(b_sz, n_t, spec.in_channels, n_f).transpose(0, 2, 3, 1)
    return grad_x, grad_w, grad_b
