"""Frame-by-frame network execution for causal and semi-causal models.

Streaming runs the batch model's network plan (``tfcn.plan``) over per-layer
state. Each convolution keeps at most the dilated time span it needs; its
time padding is never materialized. Every push, and the flush, walks the
plan once in order: the input module's new columns, then each block, then
the output module. A block queues the columns of each source feature until
every source has delivered the same frame, and holds its primary columns
until its dilated conv's look-ahead has arrived for the residual add. Each
conv column is one ``conv2d_forward`` call on its window: the kernel the
batch forward runs, whose output frames do not depend on how many frames are
computed together, so streaming output is bitwise-equal to a batch forward
pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from .engine import Conv2d, ConvSpec, ShapeError, add_residual, concat_channels
from .engine.conv import conv2d_forward
from .model import Model


class _ConvStream:
    """The latest input columns of one conv layer, a dilated time span at most.

    Columns before the first input, and after the last at flush, are the
    layer's own time padding: the kernel skips the taps that would read them,
    as it does in a batch forward.
    """

    def __init__(self, layer):
        self.layer = layer
        self.span = layer.spec.span()[1]
        self.right = layer.spec.pad[3]
        self.buf: deque[np.ndarray] = deque(maxlen=self.span)
        self.specs: dict[tuple[int, int], ConvSpec] = {}   # window time pads -> spec

    def _column(self, after: int) -> np.ndarray:
        """Output column whose window ends ``after`` columns past the last input."""
        cols = list(self.buf)[max(0, len(self.buf) - (self.span - after)):]
        pads = (self.span - after - len(cols), after)
        spec = self.specs.get(pads)
        if spec is None:
            spec = self.specs[pads] = replace(self.layer.spec,
                                              pad=(*self.layer.spec.pad[:2], *pads))
        # stacked frame-major, the memory order conv2d_forward computes in
        window = np.concatenate([c.transpose(0, 3, 1, 2) for c in cols], axis=1)
        out, _ = conv2d_forward(window.transpose(0, 2, 3, 1), self.layer.weight.data, spec,
                                bias=None if self.layer.bias is None
                                else self.layer.bias.data)
        return out

    def forward(self, cols: list[np.ndarray], end: bool) -> list[np.ndarray]:
        """Output columns ``cols`` complete; at the ``end`` of the stream, also
        those that read the layer's right time padding."""
        out = []
        for col in cols:
            self.buf.append(col)
            if len(self.buf) > self.right:
                out.append(self._column(0))
        if end:
            first = max(1, self.right - len(self.buf) + 1)
            out += [self._column(after) for after in range(first, self.right + 1)]
        return out


def _stages(layers):
    return [_ConvStream(layer) if isinstance(layer, Conv2d) else layer for layer in layers]


def _run(stages, cols: list[np.ndarray], end: bool) -> list[np.ndarray]:
    """Pass columns through conv streams and column-wise inference layers."""
    for stage in stages:
        if isinstance(stage, _ConvStream):
            cols = stage.forward(cols, end)
        else:
            cols = [stage.forward(c, False) for c in cols]
    return cols


class StreamingModel:
    """Incremental forward over normalized LPS columns.

    push_frame() accepts one (freq_bins,) column and returns the output
    columns that became computable; flush() drains the look-ahead and ends
    the stream: its outputs assumed nothing follows, so a later push_frame()
    or flush() raises RuntimeError until reset() starts a new one. A model
    with look-ahead L emits its first output on input frame L (so after
    L + 1 frames).
    """

    def __init__(self, model: Model):
        if model.config.causality.kind == "non_causal":
            raise ValueError("streaming needs a causal or semi-causal model")
        self.model = model
        self.reset()

    def reset(self) -> None:
        """Return to the just-built state, flushed or not: empty conv
        buffers and queues, zero counters and no collected output."""
        model = self.model
        self.input_stages = _stages([model.input_bn, model.input_conv])
        self.block_stages = [_stages(model.block(node).layers())
                             for node in model.plan.blocks]
        self.output_stages = _stages([model.output_conv, model.output_act])
        # per block: source columns not yet consumed, and primaries awaiting
        # their residual add
        self.queued = [{f: deque() for f in node.sources} for node in model.plan.blocks]
        self.residuals = [deque() for _ in model.plan.blocks]

        self.frames_in = 0
        self.frames_out = 0
        self.first_output_after: int | None = None
        self._out: list[np.ndarray] = []
        self._flushed = False

    def _walk(self, cols: list[np.ndarray], end: bool) -> None:
        """Run the plan once over the input module's new columns."""
        feats = {0: _run(self.input_stages, cols, end)}
        for node, stages, queued, residuals in zip(self.model.plan.blocks, self.block_stages,
                                                   self.queued, self.residuals):
            for f, queue in queued.items():
                queue.extend(feats[f])
            for f in node.last_reads:
                del feats[f]
            x_in = []
            while all(queued.values()):
                col = {f: queue.popleft() for f, queue in queued.items()}
                x_in.append(concat_channels([col[f] for f in node.sources]))
                residuals.append(col[node.primary])
            feats[node.out] = [add_residual(h, residuals.popleft())
                               for h in _run(stages, x_in, end)]
        for y in _run(self.output_stages, feats.pop(self.model.plan.final), end):
            self._emit(y)

    def _emit(self, y: np.ndarray):
        if self.first_output_after is None:
            self.first_output_after = self.frames_in
        self.frames_out += 1
        self._out.append(self.model._from_net_layout(y)[0, 0, :, 0])

    def push_frame(self, frame: np.ndarray) -> list[np.ndarray]:
        """Feed one normalized LPS frame; returns output frames now ready."""
        if self._flushed:
            raise RuntimeError("push_frame() after flush(): the stream has ended")
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.model.config.freq_bins,):
            raise ShapeError(
                f"expected a ({self.model.config.freq_bins},) column, got {frame.shape}")
        self.frames_in += 1
        before = len(self._out)
        self._walk([self.model._to_net_layout(frame.reshape(1, 1, -1, 1))], end=False)
        return self._out[before:]

    def flush(self) -> list[np.ndarray]:
        """End the stream; returns the look-ahead's remaining output frames."""
        if self._flushed:
            raise RuntimeError("flush() after flush(): the stream has ended")
        self._flushed = True
        before = len(self._out)
        self._walk([], end=True)
        return self._out[before:]

    @property
    def collected(self) -> np.ndarray:
        """(frames_out, freq_bins) matrix of everything emitted so far."""
        if not self._out:
            return np.zeros((0, self.model.config.freq_bins), dtype=np.float32)
        return np.stack(self._out)
