"""Model construction, forward/backward execution and structural reports.

The network is input module (batch norm + conv), R repeated blocks of M
dilated blocks, and a point-wise output conv with PReLU. A dilated block is
Conv-TasNet's 1x1 conv -> PReLU -> BN -> dilated conv -> PReLU -> BN -> 1x1
conv, plus a residual from the block's primary 16-channel input. Which
features each block reads is the network plan (``tfcn.plan``): construction
sizes conv0 from it, the forward walks it and drops each feature after its
last reader, and the backward walks it in reverse.

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
from .plan import BlockNode, network_plan


class DilatedBlock:
    """One dilated block; ``backward`` returns grads for the concatenated
    input and for the residual (primary) input separately."""

    def __init__(self, cfg: ModelConfig, node: BlockNode, plan: PadPlan,
                 rng: np.random.Generator):
        name = node.name
        mid = cfg.bottleneck_channels
        in_ch = cfg.block_channels * len(node.sources)
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
        h = x_in
        for layer in self.layers():
            h = (layer.forward(h, record) if isinstance(layer, Conv2d)
                 else layer.forward(h, training, record))
        return add_residual(h, primary)

    def backward(self, grad_out):
        g = grad_out
        for layer in reversed(self.layers()):
            g = layer.backward(g)
        return g, grad_out


class Model:
    """A built network: parameter set, network plan and the padding plan it
    was sized for."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        self.plan = network_plan(config)
        self.pad_plan = plan_padding(config)
        rng = np.random.default_rng(self.seed)
        net_ch = config.freq_bins if config.variant == "tcn_lps" else 1
        pin = self.pad_plan["input.conv"]
        self.input_bn = BatchNorm(net_ch, "input.bn")
        self.input_conv = Conv2d(
            ConvSpec(net_ch, config.block_channels, pin.kernel, pin.dilation, pad=pin.pad),
            rng, "input.conv")
        self.blocks: list[list[DilatedBlock]] = [[] for _ in range(config.repeated_blocks)]
        for node in self.plan.blocks:
            self.blocks[node.repeat].append(DilatedBlock(config, node, self.pad_plan, rng))
        self.output_conv = Conv2d(ConvSpec(config.block_channels, net_ch, (1, 1)),
                                  rng, "output.conv")
        self.output_act = PReLU("output.act")
        self._batch_norms = {layer.name: layer for layer in self._layer_objects()
                             if isinstance(layer, BatchNorm)}

    def block(self, node: BlockNode) -> DilatedBlock:
        return self.blocks[node.repeat][node.index]

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
        return [(f"{name}.{buf}", getattr(bn, buf)) for name, bn in self._batch_norms.items()
                for buf in ("running_mean", "running_var")]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        layer, _, buf = name.rpartition(".")
        if layer not in self._batch_norms or buf not in ("running_mean", "running_var"):
            raise KeyError(name)
        setattr(self._batch_norms[layer], buf, np.ascontiguousarray(value, dtype=np.float32))

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

        def tap(name, value):
            if name in overrides:
                value = np.ascontiguousarray(overrides[name], dtype=np.float32)
            if trace is not None:
                trace[name] = value
            return value

        h = self._to_net_layout(x)
        h = self.input_bn.forward(h, training, record)
        h = self.input_conv.forward(h, record)
        feats = {0: tap("input", h)}
        last = self.config.dilated_blocks_per_repeat - 1
        for node in self.plan.blocks:
            x_in = tap(f"{node.name}.in", concat_channels([feats[f] for f in node.sources]))
            out = self.block(node).forward(x_in, feats[node.primary], training, record)
            for f in node.last_reads:
                del feats[f]
            out = tap(f"{node.name}.out", out)
            if node.index == last:
                out = tap(f"rb{node.repeat}.out", out)
            feats[node.out] = out

        y = self.output_conv.forward(feats.pop(self.plan.final), record)
        y = self.output_act.forward(y, training, record)
        y = tap("output", y)
        return self._from_net_layout(y)

    def backward(self, grad_out):
        """Propagate loss gradients recorded by the latest training forward;
        without one, a layer raises RuntimeError."""
        g = self._to_net_layout(np.ascontiguousarray(grad_out, dtype=np.float32))
        g = self.output_act.backward(g)
        g = self.output_conv.backward(g)
        grads = {self.plan.final: g}
        width = self.config.block_channels
        for node in reversed(self.plan.blocks):
            g_x_in, g_primary = self.block(node).backward(grads.pop(node.out))
            pieces = split_channels(g_x_in, [width] * len(node.sources))
            for f, piece in [(node.primary, g_primary), *zip(node.sources, pieces)]:
                grads[f] = grads[f] + piece if f in grads else piece
        g = self.input_conv.backward(grads.pop(0))
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
