"""Per-layer padding plans: how causality is realized.

Every convolution keeps its output the same length as its input by adding
(k - 1) * d zeros along time. How those zeros split between left and right
decides how much future each layer sees: symmetric for non-causal, all-left
for causal, and a greedy front-to-back split for a semi-causal look-ahead
budget. Frequency padding is always symmetric. Equivalently one can pad both
sides fully and clip the right end; ``right_clip`` reports that clip count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError, ModelConfig
from .plan import network_plan


@dataclass(frozen=True)
class LayerPad:
    name: str
    kernel: tuple[int, int]
    dilation: tuple[int, int]
    left_f: int
    right_f: int
    left_t: int
    right_t: int

    @property
    def future_t(self) -> int:
        """Future frames this layer consumes."""
        return self.right_t

    @property
    def total_t(self) -> int:
        return self.left_t + self.right_t

    @property
    def right_clip(self) -> int:
        """Outputs to cut when padding time symmetrically by total_t instead."""
        return self.total_t - self.right_t

    @property
    def pad(self) -> tuple[int, int, int, int]:
        return (self.left_f, self.right_f, self.left_t, self.right_t)


@dataclass(frozen=True)
class PadPlan:
    mode: str
    look_ahead: int
    entries: tuple[LayerPad, ...]

    def __getitem__(self, name: str) -> LayerPad:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def total_future(self) -> int:
        return sum(e.right_t for e in self.entries)


def conv_layer_geometry(cfg: ModelConfig) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
    """(name, kernel, dilation) for every conv layer in network order."""
    layers = [("input.conv", cfg.input_kernel, (1, 1))]
    for b in network_plan(cfg).blocks:
        layers += [(f"{b.name}.conv0", (1, 1), (1, 1)),
                   (f"{b.name}.conv1", cfg.dilated_kernel, b.dilation),
                   (f"{b.name}.conv2", (1, 1), (1, 1))]
    layers.append(("output.conv", (1, 1), (1, 1)))
    return layers


def max_look_ahead(cfg: ModelConfig) -> int:
    """Largest semi-causal budget: the sum of symmetric future shares."""
    total = 0
    for _, (k_f, k_t), (d_f, d_t) in conv_layer_geometry(cfg):
        total += (k_t - 1) * d_t // 2
    return total


def plan_padding(cfg: ModelConfig) -> PadPlan:
    mode = cfg.causality.kind
    budget = cfg.causality.look_ahead_frames
    if mode == "semi_causal":
        limit = max_look_ahead(cfg)
        if budget > limit:
            raise ConfigError(
                f"look_ahead_frames={budget} exceeds this architecture's maximum of {limit}")
    entries = []
    remaining = budget
    for name, kernel, dilation in conv_layer_geometry(cfg):
        (k_f, k_t), (d_f, d_t) = kernel, dilation
        pad_f = (k_f - 1) * d_f
        if pad_f % 2:
            raise ConfigError(f"{name}: freq span {pad_f + 1} cannot be padded symmetrically")
        pad_t = (k_t - 1) * d_t
        if mode == "non_causal":
            if pad_t % 2:
                raise ConfigError(f"{name}: time span {pad_t + 1} cannot be split symmetrically")
            left_t, right_t = pad_t // 2, pad_t // 2
        elif mode == "causal":
            left_t, right_t = pad_t, 0
        else:
            future = min(pad_t // 2, remaining)
            remaining -= future
            left_t, right_t = pad_t - future, future
        entries.append(LayerPad(name=name, kernel=kernel, dilation=dilation,
                                left_f=pad_f // 2, right_f=pad_f // 2,
                                left_t=left_t, right_t=right_t))
    look_ahead = {"non_causal": sum(e.right_t for e in entries),
                  "causal": 0,
                  "semi_causal": budget}[mode]
    return PadPlan(mode=mode, look_ahead=look_ahead, entries=tuple(entries))


def receptive_field(cfg: ModelConfig) -> tuple[int, int, int]:
    """(past_frames, future_frames, freq_span) one output cell can see."""
    plan = plan_padding(cfg)
    past = sum(e.left_t for e in plan.entries)
    future = sum(e.right_t for e in plan.entries)
    freq_span = 1 + sum((e.kernel[0] - 1) * e.dilation[0] for e in plan.entries)
    return past, future, freq_span
