"""Span tracing by wrapping the program's public entry points in memory.

While a Tracer is installed, each wrapped call records one span: its name,
the layer it ran for (taken from the parameter names, e.g. rb2.db7.conv1),
start, end, parent span and the run id. Nothing under the program's source
changes; uninstall() restores every original attribute. Spans stay in memory
and are written once, by write(), when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

DILATIONS = (1, 2, 4, 8, 16, 32, 64, 128)
CONV_KINDS = ("input", "pointwise", "dilated")
CONV_SPANS = ("conv.fwd", "conv.bwd")


def _prefix(param_name: str) -> str:
    return param_name.rsplit(".", 1)[0]


def _conv_attrs(layer, spec, out_shape=None) -> dict:
    """Conv kind, time dilation and, for a forward, MACs computed from the
    spec and output shape."""
    if layer == "input.conv":
        kind = "input"
    elif tuple(spec.kernel) == (1, 1):
        kind = "pointwise"
    else:
        kind = "dilated"
    attrs = {"kind": kind, "d": spec.dilation[1]}
    if out_shape is not None:
        attrs["macs"] = (math.prod(out_shape) * (spec.in_channels // spec.groups)
                         * spec.kernel[0] * spec.kernel[1])
    return attrs


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, layer, start, end, parent, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._weight_names: dict[int, str] = {}

    # -- recording ----------------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs, attrs=None):
        idx = len(self.spans)
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
        return rec, result

    def _wrap(self, name, fn, layer_of=None):
        def wrapper(*args, **kwargs):
            layer = layer_of(args[0]) if layer_of else ""
            return self._call(name, layer, fn, args, kwargs)[1]
        return wrapper

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call: wrapped minus direct no-op calls,
        best of three batches. Leaves no spans behind."""
        def noop():
            return None
        wrapped = self._wrap("calibrate", noop)
        mark = len(self.spans)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[mark:]
        return best

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_everywhere(self, original, value):
        """Rebind ``original`` in every tfcn module that imported it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tfcn" or mod_name.startswith("tfcn."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._set(mod, attr, value)

    def install(self, models=()) -> None:
        import tfcn.checkpoint
        import tfcn.dsp
        import tfcn.engine.layers as layers
        import tfcn.model
        import tfcn.streaming
        import tfcn.training

        for model in models:
            for p in model.parameters():
                if p.name.endswith(".weight"):
                    self._weight_names[id(p.data)] = _prefix(p.name)

        def conv_forward(fn):
            def wrapper(layer_obj, *args, **kwargs):
                layer = _prefix(layer_obj.weight.name)
                rec, y = self._call("conv.fwd", layer, fn, (layer_obj,) + args, kwargs)
                rec[5] = _conv_attrs(layer, layer_obj.spec, y.shape)
                return y
            return wrapper

        def conv_backward(fn):
            def wrapper(layer_obj, *args, **kwargs):
                layer = _prefix(layer_obj.weight.name)
                rec, g = self._call("conv.bwd", layer, fn, (layer_obj,) + args, kwargs)
                rec[5] = _conv_attrs(layer, layer_obj.spec)
                return g
            return wrapper

        def stream_conv(fn):
            def wrapper(x, weight, spec, *args, **kwargs):
                layer = self._weight_names.get(id(weight), "?")
                rec, out = self._call("conv.fwd", layer, fn, (x, weight, spec) + args, kwargs)
                rec[5] = _conv_attrs(layer, spec, out[0].shape)
                return out
            return wrapper

        def checkpoint_save(fn):
            def wrapper(path, *args, **kwargs):
                rec, out = self._call("checkpoint.save", "", fn, (path,) + args, kwargs)
                rec[5] = {"bytes": os.path.getsize(path)}
                return out
            return wrapper

        conv_cls = layers.Conv2d
        self._set(conv_cls, "forward", conv_forward(conv_cls.forward))
        self._set(conv_cls, "backward", conv_backward(conv_cls.backward))
        self._set(tfcn.streaming, "conv2d_forward", stream_conv(tfcn.streaming.conv2d_forward))
        for cls, label, param in ((layers.BatchNorm, "bn", "gamma"),
                                  (layers.PReLU, "prelu", "alpha")):
            def layer_of(obj, param=param):
                return _prefix(getattr(obj, param).name)
            self._set(cls, "forward", self._wrap(f"{label}.fwd", cls.forward, layer_of))
            self._set(cls, "backward", self._wrap(f"{label}.bwd", cls.backward, layer_of))
        for cls, prefix, methods in (
                (tfcn.model.Model, "model", ("forward", "backward")),
                (tfcn.streaming.StreamingModel, "stream", ("push_frame", "flush")),
                (tfcn.training.Adam, "adam", ("step",)),
                (tfcn.dsp.Normalizer, "dsp", ("normalize", "denormalize"))):
            for m in methods:
                self._set(cls, m, self._wrap(f"{prefix}.{m}", getattr(cls, m)))
        for fn, name in ((layers.concat_channels, "concat"),
                         (layers.add_residual, "residual"),
                         (tfcn.dsp.stft, "dsp.stft"), (tfcn.dsp.lps, "dsp.lps"),
                         (tfcn.dsp.reconstruct, "dsp.reconstruct"),
                         (tfcn.dsp.istft, "dsp.istft"),
                         (tfcn.training.frame_rms_loss, "loss"),
                         (tfcn.training.frame_rms_loss_grad, "loss.grad"),
                         (tfcn.training.validation_loss, "validation")):
            self._set_everywhere(fn, self._wrap(name, fn))
        self._set(tfcn.checkpoint, "save_checkpoint",
                  checkpoint_save(tfcn.checkpoint.save_checkpoint))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "run": self.run_id, "name": name,
                                     "layer": layer, "start": start, "end": end,
                                     "parent": parent, **(attrs or {})}) + "\n")


# -- per-layer metrics ------------------------------------------------------------


def per_layer_metrics(spans, rounds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Aggregate spans into per-round layer metrics: name -> (value, unit)."""
    child_time = defaultdict(float)
    for name, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)      # span name -> summed duration
    self_total = defaultdict(float)
    count = defaultdict(int)
    conv = defaultdict(float)       # (fwd|bwd, kind or d{n}) -> seconds
    macs = defaultdict(float)
    ckpt_bytes = 0
    push_convs = 0
    for i, (name, _, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] += dur
        self_total[name] += dur - child_time[i]
        count[name] += 1
        if name in CONV_SPANS:
            way = name[5:]
            conv[way, attrs["kind"]] += dur
            if attrs["kind"] == "dilated":
                conv[way, f"d{attrs['d']}"] += dur
            if way == "fwd":
                macs[attrs["kind"]] += attrs["macs"]
            if parent >= 0 and spans[parent][0] == "stream.push_frame":
                push_convs += 1
        elif name == "checkpoint.save":
            ckpt_bytes += attrs["bytes"]
    r = float(rounds)
    m: dict[str, tuple[float, str]] = {}
    for kind in CONV_KINDS:
        for way in ("fwd", "bwd"):
            m[f"conv.{kind}.{way}_s"] = (conv[way, kind] / r, "s")
    for d in DILATIONS:
        for way in ("fwd", "bwd"):
            m[f"conv.dilated.d{d}.{way}_s"] = (conv[way, f"d{d}"] / r, "s")
    for kind in ("pointwise", "dilated"):
        secs = conv["fwd", kind]
        m[f"conv.{kind}.fwd_gmac_per_s"] = (macs[kind] / secs / 1e9 if secs else 0.0,
                                            "GMAC/s")
    m["conv.calls"] = ((count["conv.fwd"] + count["conv.bwd"]) / r, "count")
    for label in ("prelu", "bn"):
        m[f"{label}.fwd_s"] = (total[f"{label}.fwd"] / r, "s")
        m[f"{label}.bwd_s"] = (total[f"{label}.bwd"] / r, "s")
    m["concat.s"] = (total["concat"] / r, "s")
    m["residual.s"] = (total["residual"] / r, "s")
    m["model.forward_self_s"] = (self_total["model.forward"] / r, "s")
    m["model.backward_self_s"] = (self_total["model.backward"] / r, "s")
    pushes = count["stream.push_frame"]
    m["stream.push_self_ms"] = (1e3 * self_total["stream.push_frame"] / pushes if pushes
                                else 0.0, "ms")
    m["stream.conv_calls_per_frame"] = (push_convs / pushes if pushes else 0.0, "count")
    m["stream.flush_s"] = (total["stream.flush"] / r, "s")
    m["dsp.stft_s"] = (total["dsp.stft"] / r, "s")
    m["dsp.lps_s"] = (total["dsp.lps"] / r, "s")
    m["dsp.normalize_s"] = ((total["dsp.normalize"] + total["dsp.denormalize"]) / r, "s")
    m["dsp.reconstruct_s"] = (total["dsp.reconstruct"] / r, "s")
    m["dsp.istft_s"] = (total["dsp.istft"] / r, "s")
    m["train.loss_s"] = ((total["loss"] + total["loss.grad"]) / r, "s")
    m["train.adam_s"] = (total["adam.step"] / r, "s")
    m["train.validation_s"] = (total["validation"] / r, "s")
    m["checkpoint.save_s"] = (total["checkpoint.save"] / r, "s")
    m["checkpoint.bytes"] = (ckpt_bytes / r, "bytes")
    m["trace.spans"] = (len(spans) / r, "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
