"""Model construction, forward/backward execution and structural reports.

The network is input module (batch norm + conv), R repeated blocks of M
dilated blocks, and a point-wise output conv with PReLU. A dilated block is
1x1 conv -> PReLU -> BN -> dilated conv -> PReLU -> BN -> 1x1 conv, plus a
residual from the block's primary 16-channel input. Dense variants feed each
block the channel-concatenation of all earlier block outputs; the residual
always uses only the primary stream.

tcn_lps maps the 256 frequency bins onto channels (freq axis of extent 1), so
the same 2-D machinery runs the 1-D structure.
"""

from __future__ import annotations

import numpy as np

from .config import CausalityMode, ModelConfig
from .engine import (
    BatchNorm,
    Conv2d,
    ConvSpec,
    PReLU,
    ShapeError,
    add_residual,
    concat_channels,
    split_channels,
)
from .padding import PadPlan, plan_padding


class DilatedBlock:
    """One dilated block; ``backward`` returns grads for the concatenated
    input and for the residual (primary) input separately."""

    def __init__(self, cfg: ModelConfig, r: int, n: int, plan: PadPlan,
                 rng: np.random.Generator):
        name = f"rb{r}.db{n}"
        mid = cfg.bottleneck_channels
        in_ch = cfg.conv0_in_channels(r, n)
        groups = mid if cfg.depthwise_dilated else 1
        self.conv0 = Conv2d(ConvSpec(in_ch, mid, (1, 1)), rng, f"{name}.conv0")
        self.act0 = PReLU(f"{name}.act0")
        self.bn0 = BatchNorm(mid, f"{name}.bn0")
        p1 = plan[f"{name}.conv1"]
        self.conv1 = Conv2d(ConvSpec(mid, mid, p1.kernel, p1.dilation,
                                     groups=groups, pad=p1.pad), rng, f"{name}.conv1")
        self.act1 = PReLU(f"{name}.act1")
        self.bn1 = BatchNorm(mid, f"{name}.bn1")
        self.conv2 = Conv2d(ConvSpec(mid, cfg.block_channels, (1, 1)), rng, f"{name}.conv2")

    def layers(self):
        return [self.conv0, self.act0, self.bn0, self.conv1, self.act1, self.bn1, self.conv2]

    def parameters(self):
        return [p for layer in self.layers() for p in layer.parameters()]

    def forward(self, x_in, primary, training=False, record=False):
        h = self.conv0.forward(x_in, record)
        h = self.act0.forward(h, training, record)
        h = self.bn0.forward(h, training, record)
        h = self.conv1.forward(h, record)
        h = self.act1.forward(h, training, record)
        h = self.bn1.forward(h, training, record)
        h = self.conv2.forward(h, record)
        return add_residual(h, primary)

    def backward(self, grad_out):
        g = self.conv2.backward(grad_out)
        g = self.bn1.backward(g)
        g = self.act1.backward(g)
        g = self.conv1.backward(g)
        g = self.bn0.backward(g)
        g = self.act0.backward(g)
        g_x_in = self.conv0.backward(g)
        return g_x_in, grad_out


class Model:
    """A built network: parameter set plus the padding plan it was sized for."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        self.pad_plan = plan_padding(config)
        rng = np.random.default_rng(self.seed)
        net_ch = config.freq_bins if config.variant == "tcn_lps" else 1
        pin = self.pad_plan["input.conv"]
        self.input_bn = BatchNorm(net_ch, "input.bn")
        self.input_conv = Conv2d(
            ConvSpec(net_ch, config.block_channels, pin.kernel, pin.dilation, pad=pin.pad),
            rng, "input.conv")
        self.blocks: list[list[DilatedBlock]] = []
        for r in range(config.repeated_blocks):
            row = [DilatedBlock(config, r, n, self.pad_plan, rng)
                   for n in range(config.dilated_blocks_per_repeat)]
            self.blocks.append(row)
        self.output_conv = Conv2d(ConvSpec(config.block_channels, net_ch, (1, 1)),
                                  rng, "output.conv")
        self.output_act = PReLU("output.act")
        self._wiring = None

    # -- parameter bookkeeping -------------------------------------------------

    def _layer_objects(self):
        yield self.input_bn
        yield self.input_conv
        for row in self.blocks:
            for block in row:
                yield from block.layers()
        yield self.output_conv
        yield self.output_act

    def parameters(self):
        return [p for layer in self._layer_objects() for p in layer.parameters()]

    def named_buffers(self):
        out = []
        for layer in self._layer_objects():
            if isinstance(layer, BatchNorm):
                prefix = layer.gamma.name[:-6]
                out.append((f"{prefix}.running_mean", layer.running_mean))
                out.append((f"{prefix}.running_var", layer.running_var))
        return out

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        for layer in self._layer_objects():
            if isinstance(layer, BatchNorm):
                prefix = layer.gamma.name[:-6]
                if name == f"{prefix}.running_mean":
                    layer.running_mean = np.ascontiguousarray(value, dtype=np.float32)
                    return
                if name == f"{prefix}.running_var":
                    layer.running_var = np.ascontiguousarray(value, dtype=np.float32)
                    return
        raise KeyError(name)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def look_ahead_frames(self) -> int:
        return self.pad_plan.look_ahead

    # -- execution ---------------------------------------------------------------

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2] != self.config.freq_bins:
            raise ShapeError(
                f"expected (B, 1, {self.config.freq_bins}, T) input, got {x.shape}")
        if x.shape[3] < 1:
            raise ShapeError("input needs at least one time frame")
        if not np.isfinite(x).all():
            raise ValueError("non-finite values in model input")

    def _to_net_layout(self, x):
        if self.config.variant == "tcn_lps":
            return np.ascontiguousarray(np.swapaxes(x, 1, 2))
        return x

    def _from_net_layout(self, y):
        if self.config.variant == "tcn_lps":
            return np.ascontiguousarray(np.swapaxes(y, 1, 2))
        return y

    def forward(self, x, training: bool = False, trace: dict | None = None,
                overrides: dict | None = None):
        """Map a normalized (B, 1, F, T) batch to the same shape.

        ``trace``/``overrides`` observe or replace named intermediate
        activations ("input", "rb{r}.out", "rb{r}.db{n}.in"); inference-mode
        instrumentation for structural tests and reports.
        """
        self._check_input(x)
        x = np.ascontiguousarray(x, dtype=np.float32)
        overrides = overrides or {}
        record = training
        cfg = self.config

        def tap(name, value):
            if name in overrides:
                value = np.ascontiguousarray(overrides[name], dtype=np.float32)
            if trace is not None:
                trace[name] = value
            return value

        h = self._to_net_layout(x)
        h = self.input_bn.forward(h, training, record)
        h = self.input_conv.forward(h, record)
        h = tap("input", h)

        wiring = [] if record else None
        feat_arrays = {0: h}
        next_id = 1
        inter_ids = [0]
        primary, primary_id = h, 0
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
                x_in = concat_channels([feat_arrays[i] for i in src_ids])
                x_in = tap(f"rb{r}.db{n}.in", x_in)
                out = self.blocks[r][n].forward(x_in, primary, training, record)
                out = tap(f"rb{r}.db{n}.out", out)
                out_id = next_id
                next_id += 1
                feat_arrays[out_id] = out
                if wiring is not None:
                    wiring.append((r, n, src_ids, primary_id, out_id))
                primary, primary_id = out, out_id
                if cfg.dense_intra:
                    intra_ids.append(out_id)
            primary = tap(f"rb{r}.out", primary)
            feat_arrays[primary_id] = primary
            if cfg.dense_inter:
                inter_ids.append(primary_id)
        if wiring is not None:
            self._wiring = (wiring, primary_id)

        y = self.output_conv.forward(primary, record)
        y = self.output_act.forward(y, training, record)
        y = tap("output", y)
        return self._from_net_layout(y)

    def backward(self, grad_out):
        """Propagate loss gradients recorded by the latest training forward."""
        if self._wiring is None:
            raise RuntimeError("backward requires a previous forward with training=True")
        wiring, final_id = self._wiring
        self._wiring = None
        g = self._to_net_layout(np.ascontiguousarray(grad_out, dtype=np.float32))
        g = self.output_act.backward(g)
        g = self.output_conv.backward(g)

        acc: dict[int, np.ndarray] = {final_id: g}

        def add_to(fid, value):
            if fid in acc:
                acc[fid] = acc[fid] + value
            else:
                acc[fid] = value

        width = self.config.block_channels
        for r, n, src_ids, primary_id, out_id in reversed(wiring):
            g_out = acc.pop(out_id)
            g_x_in, g_primary = self.blocks[r][n].backward(g_out)
            add_to(primary_id, g_primary)
            if len(src_ids) == 1:
                add_to(src_ids[0], g_x_in)
            else:
                for fid, piece in zip(src_ids, split_channels(g_x_in, [width] * len(src_ids))):
                    add_to(fid, piece)
        g = acc.pop(0)
        if acc:
            raise RuntimeError(f"unconsumed gradient accumulators: {sorted(acc)}")
        g = self.input_conv.backward(g)
        g = self.input_bn.backward(g)
        return self._from_net_layout(g)


def build_model(cfg: ModelConfig, seed: int = 0) -> Model:
    """Instantiate a model with seeded initialization; counts must match
    ``param_count(cfg)`` exactly."""
    model = Model(cfg, seed)
    expected = param_count(cfg)
    if model.num_params != expected:
        raise RuntimeError(
            f"instantiated {model.num_params} scalars but the analytic count is {expected}")
    return model


def param_count(cfg: ModelConfig) -> int:
    """Exact learnable-scalar count: conv weights (bias-free), BN gamma/beta,
    one shared PReLU alpha per activation layer."""
    net_ch = cfg.freq_bins if cfg.variant == "tcn_lps" else 1
    mid = cfg.bottleneck_channels
    k_f, k_t = cfg.input_kernel
    total = 2 * net_ch                      # input BN
    total += cfg.block_channels * net_ch * k_f * k_t
    dk_f, dk_t = cfg.dilated_kernel
    for r in range(cfg.repeated_blocks):
        for n in range(cfg.dilated_blocks_per_repeat):
            total += mid * cfg.conv0_in_channels(r, n)   # conv0 1x1
            total += 1 + 2 * mid                         # act0 + bn0
            per_group_in = 1 if cfg.depthwise_dilated else mid
            total += mid * per_group_in * dk_f * dk_t    # conv1
            total += 1 + 2 * mid                         # act1 + bn1
            total += cfg.block_channels * mid            # conv2 1x1
    total += net_ch * cfg.block_channels + 1             # output conv + act
    return total


def probe_causality(model: Model, frames: int, trials: int = 4,
                    look_ahead: int | None = None, seed: int = 0) -> float:
    """Perturb frames beyond t + L and measure the largest change in outputs
    at frames <= t. Zero (within 1e-6) certifies the causal contract; a
    non-causal model serves as the probe's positive control.
    """
    lead = model.look_ahead_frames if look_ahead is None else int(look_ahead)
    if frames < lead + 2:
        raise ValueError(f"need at least {lead + 2} frames to probe look-ahead {lead}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(1, 1, model.config.freq_bins, frames)).astype(np.float32)
    base = model.forward(x, training=False)
    worst = 0.0
    for _ in range(trials):
        t = int(rng.integers(0, frames - lead - 1))
        x2 = x.copy()
        tail = x2[:, :, :, t + lead + 1:]
        x2[:, :, :, t + lead + 1:] = tail + rng.uniform(0.5, 1.5, size=tail.shape).astype(
            np.float32)
        out = model.forward(x2, training=False)
        worst = max(worst, float(np.abs(out[..., :t + 1] - base[..., :t + 1]).max()))
    return worst
