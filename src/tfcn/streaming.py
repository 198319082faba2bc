"""Frame-by-frame network execution for causal and semi-causal models.

Each convolution becomes a small state machine holding at most the dilated
time span it needs; its time padding is never materialized. Dense
concatenations and residual adds synchronize through FIFOs, so a column
leaves a stage only when every contributing path has caught up. Each conv
column is one ``conv2d_forward`` call on its window: the kernel the batch
forward runs, whose output frames do not depend on how many frames are
computed together, so streaming output is bitwise-equal to a batch forward
pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np

from .engine import ShapeError
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

    def _column(self, after: int) -> np.ndarray:
        """Output column whose window ends ``after`` columns past the last input."""
        cols = list(self.buf)[max(0, len(self.buf) - (self.span - after)):]
        lf, rf, _, _ = self.layer.spec.pad
        spec = replace(self.layer.spec, pad=(lf, rf, self.span - after - len(cols), after))
        # stacked frame-major, the memory order conv2d_forward computes in
        window = np.concatenate([c.transpose(0, 3, 1, 2) for c in cols], axis=1)
        out, _ = conv2d_forward(window.transpose(0, 2, 3, 1), self.layer.weight.data, spec,
                                bias=None if self.layer.bias is None
                                else self.layer.bias.data)
        return out

    def push(self, col: np.ndarray) -> np.ndarray | None:
        self.buf.append(col)
        return self._column(0) if len(self.buf) > self.right else None

    def flush(self):
        for after in range(max(1, self.right - len(self.buf) + 1), self.right + 1):
            yield self._column(after)


class _BlockStream:
    """One dilated block: conv path state plus residual alignment FIFO."""

    def __init__(self, block):
        self.block = block
        self.conv0 = _ConvStream(block.conv0)
        self.conv1 = _ConvStream(block.conv1)
        self.conv2 = _ConvStream(block.conv2)
        self.primary_fifo: deque[np.ndarray] = deque()

    def _tail(self, h):
        h = self.block.act1.forward(h, training=False, record=False)
        h = self.block.bn1.forward(h, training=False, record=False)
        h = self.conv2.push(h)
        return h + self.primary_fifo.popleft()

    def push(self, x_in: np.ndarray, primary: np.ndarray) -> np.ndarray | None:
        self.primary_fifo.append(primary)
        h = self.conv0.push(x_in)
        h = self.block.act0.forward(h, training=False, record=False)
        h = self.block.bn0.forward(h, training=False, record=False)
        h = self.conv1.push(h)
        if h is None:
            return None
        return self._tail(h)

    def flush(self):
        for h in self.conv1.flush():
            yield self._tail(h)


class StreamingModel:
    """Incremental forward over normalized LPS columns.

    push_frame() accepts one (freq_bins,) column and returns the output
    columns that became computable; flush() drains the look-ahead and ends
    the stream: its outputs assumed nothing follows, so a later push_frame()
    or flush() raises RuntimeError. A model with look-ahead L emits its first
    output on input frame L (so after L + 1 frames).
    """

    def __init__(self, model: Model):
        if model.config.causality.kind == "non_causal":
            raise ValueError("streaming needs a causal or semi-causal model")
        self.model = model
        cfg = model.config
        self.input_conv = _ConvStream(model.input_conv)
        self.blocks = [_BlockStream(b) for row in model.blocks for b in row]

        # Static wiring: which feature streams feed each block, mirroring the
        # batch forward. Feature 0 is the input-module output; block k's
        # output is feature k + 1.
        self.sources: list[tuple[list[int], int]] = []
        inter_ids = [0]
        primary_id = 0
        k = 0
        for r in range(cfg.repeated_blocks):
            rb_source_ids = list(inter_ids) if cfg.dense_inter else [primary_id]
            intra_ids = list(rb_source_ids)
            for n in range(cfg.dilated_blocks_per_repeat):
                if cfg.dense_intra:
                    src_ids = list(intra_ids)
                elif n == 0:
                    src_ids = list(rb_source_ids)
                else:
                    src_ids = [primary_id]
                self.sources.append((src_ids, primary_id))
                primary_id = k + 1
                if cfg.dense_intra:
                    intra_ids.append(primary_id)
                k += 1
            if cfg.dense_inter:
                inter_ids.append(primary_id)
        self.final_id = primary_id

        n_feats = len(self.blocks) + 1
        self.src_fifos: list[dict[int, deque]] = []
        self.primary_fifos: list[deque] = []
        for src_ids, _ in self.sources:
            self.src_fifos.append({i: deque() for i in src_ids})
            self.primary_fifos.append(deque())
        self.subscribers: list[list[tuple[int, str]]] = [[] for _ in range(n_feats)]
        for blk, (src_ids, prim) in enumerate(self.sources):
            for i in src_ids:
                self.subscribers[i].append((blk, "src"))
            self.subscribers[prim].append((blk, "primary"))

        self.frames_in = 0
        self.frames_out = 0
        self.first_output_after: int | None = None
        self._out: list[np.ndarray] = []
        self._flushed = False

    # -- dataflow ----------------------------------------------------------------

    def _produce(self, feat_id: int, col: np.ndarray):
        work = [(feat_id, col)]
        while work:
            fid, value = work.pop(0)
            if fid == self.final_id:
                self._emit(value)
            for blk, role in self.subscribers[fid]:
                if role == "src":
                    self.src_fifos[blk][fid].append(value)
                else:
                    self.primary_fifos[blk].append(value)
                out = self._try_fire(blk)
                if out is not None:
                    work.append((blk + 1, out))

    def _try_fire(self, blk: int):
        fifos = self.src_fifos[blk]
        if not self.primary_fifos[blk] or any(not q for q in fifos.values()):
            return None
        src_ids, _ = self.sources[blk]
        cols = [fifos[i].popleft() for i in src_ids]
        primary = self.primary_fifos[blk].popleft()
        x_in = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
        return self.blocks[blk].push(x_in, primary)

    def _emit(self, col: np.ndarray):
        y = self.model.output_conv.forward(col)
        y = self.model.output_act.forward(y, training=False, record=False)
        if self.first_output_after is None:
            self.first_output_after = self.frames_in
        self.frames_out += 1
        self._out.append(self.model._from_net_layout(y)[0, 0, :, 0])

    def _input_column(self, frame: np.ndarray) -> np.ndarray:
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != (self.model.config.freq_bins,):
            raise ShapeError(
                f"expected a ({self.model.config.freq_bins},) column, got {frame.shape}")
        col = frame.reshape(1, 1, -1, 1)
        col = self.model._to_net_layout(col)
        return self.model.input_bn.forward(col, training=False, record=False)

    def push_frame(self, frame: np.ndarray) -> list[np.ndarray]:
        """Feed one normalized LPS frame; returns output frames now ready."""
        if self._flushed:
            raise RuntimeError("push_frame() after flush(): the stream has ended")
        self.frames_in += 1
        before = len(self._out)
        h = self.input_conv.push(self._input_column(frame))
        if h is not None:
            self._produce(0, h)
        return self._take(before)

    def flush(self) -> list[np.ndarray]:
        """End the stream; returns the look-ahead's remaining output frames."""
        if self._flushed:
            raise RuntimeError("flush() after flush(): the stream has ended")
        self._flushed = True
        before = len(self._out)
        for h in self.input_conv.flush():
            self._produce(0, h)
        for blk_index, blk in enumerate(self.blocks):
            for out in blk.flush():
                self._produce(blk_index + 1, out)
        return self._take(before)

    def _take(self, before: int) -> list[np.ndarray]:
        return self._out[before:]

    @property
    def collected(self) -> np.ndarray:
        """(frames_out, freq_bins) matrix of everything emitted so far."""
        if not self._out:
            return np.zeros((0, self.model.config.freq_bins), dtype=np.float32)
        return np.stack(self._out)
