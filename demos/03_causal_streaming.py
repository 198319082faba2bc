"""Demonstrate the causal contract and frame-by-frame streaming.

A perturbation probe shows that causal/semi-causal realizations leak nothing
from the future, then the streaming engine reproduces the batch forward pass
bit for bit while reporting its algorithmic latency.

Run:  python demos/03_causal_streaming.py
"""

import numpy as np

from tfcn import (
    CausalityMode,
    Normalizer,
    StreamingModel,
    build_model,
    probe_causality,
    tfcn_config,
)

REDUCED = dict(repeated_blocks=2, dilated_blocks_per_repeat=4, freq_bins=64)

print("perturbation probe: change frames beyond t+L, watch outputs at <= t")
for label, mode, lead in [("causal", CausalityMode.causal(), None),
                          ("semi-causal L=3", CausalityMode.semi_causal(3), None),
                          ("semi-causal L=3 probed at L=2",
                           CausalityMode.semi_causal(3), 2),
                          ("non-causal probed at L=0 (control)",
                           CausalityMode.non_causal(), 0)]:
    model = build_model(tfcn_config(mode, **REDUCED), seed=0)
    leak = probe_causality(model, frames=48, trials=4, look_ahead=lead)
    verdict = "no leak" if leak < 1e-6 else f"LEAK {leak:.2e}"
    print(f"  {label:<36} -> {verdict}")

print()
print("streaming vs batch on a semi-causal model:")
cfg = tfcn_config(CausalityMode.semi_causal(3), **REDUCED)
model = build_model(cfg, seed=1)
rng = np.random.default_rng(0)
frames = rng.uniform(-8.0, 2.0, (40, cfg.freq_bins)).astype(np.float32)
norm = Normalizer(mean=np.zeros(cfg.freq_bins, np.float32),
                  std=np.ones(cfg.freq_bins, np.float32))

x = np.ascontiguousarray(frames.T[None, None])
batch = model.forward(x)[0, 0].T

stream = StreamingModel(model)
out_count_after = []
for frame in frames:
    stream.push_frame(frame)
    out_count_after.append(stream.frames_out)
stream.flush()

print(f"  first output emitted after {stream.first_output_after} input frames "
      f"(look-ahead {model.look_ahead_frames} + 1)")
print(f"  outputs after each of the first 6 inputs: {out_count_after[:6]}")
print(f"  flushed total: {stream.frames_out} frames for {len(frames)} inputs")
print(f"  bitwise equal to batch forward: {np.array_equal(stream.collected, batch)}")
