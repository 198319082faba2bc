"""End-to-end enhancement: waveform in, enhanced waveform out.

Pipeline: STFT -> LPS -> per-bin normalize -> network -> denormalize ->
magnitudes under the noisy phase (dropped bin restored as zero) -> ISTFT.
Batch and streaming modes run every convolution through the one
``conv2d_forward`` kernel, whose output frames do not depend on how many
frames are computed together, so a causal or semi-causal model produces
bitwise-identical results either way.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .config import StftConfig
from .dsp import Normalizer, istft, lps, reconstruct, stft
from .model import Model
from .streaming import StreamingModel

log = logging.getLogger(__name__)


@dataclass
class EnhanceResult:
    samples: np.ndarray
    frames: int
    peak_normalized: bool
    first_output_after: int | None = None   # streaming only
    compute_s: float = 0.0                  # wall time of enhance_waveform


def enhance_lps(model: Model, norm: Normalizer, noisy_lps: np.ndarray) -> np.ndarray:
    """Batch LPS mapping: (T, F) noisy log power in, estimate out."""
    x = norm.normalize(noisy_lps)
    x = np.ascontiguousarray(x.T[None, None])           # (1, 1, F, T)
    y = model.forward(x, training=False)
    return norm.denormalize(y[0, 0].T)


def enhance_lps_streaming(model: Model, norm: Normalizer,
                          noisy_lps: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Frame-by-frame LPS mapping through per-layer state machines."""
    stream = StreamingModel(model)
    for frame in norm.normalize(noisy_lps):
        stream.push_frame(frame)
    stream.flush()
    if stream.frames_out != noisy_lps.shape[0]:
        raise RuntimeError(
            f"streaming emitted {stream.frames_out} frames for {noisy_lps.shape[0]} inputs")
    return norm.denormalize(stream.collected), stream.first_output_after


def enhance_waveform(model: Model, norm: Normalizer, samples: np.ndarray,
                     stft_cfg: StftConfig | None = None,
                     streaming: bool = False) -> EnhanceResult:
    start = time.perf_counter()
    stft_cfg = stft_cfg or StftConfig()
    spec = stft(samples, stft_cfg)
    noisy_lps = lps(spec)
    first_after = None
    if streaming:
        est_lps, first_after = enhance_lps_streaming(model, norm, noisy_lps)
    else:
        est_lps = enhance_lps(model, norm, noisy_lps)
    out = istft(reconstruct(est_lps, spec), stft_cfg)
    peak = float(np.abs(out).max()) if out.size else 0.0
    clipped = peak > 1.0
    if clipped:
        log.warning("output peak %.3f would clip; applying peak normalization", peak)
        out = out * (0.999 / peak)
    return EnhanceResult(samples=out, frames=noisy_lps.shape[0],
                         peak_normalized=clipped, first_output_after=first_after,
                         compute_s=time.perf_counter() - start)


def segmental_snr(reference: np.ndarray, test: np.ndarray, frame: int = 512,
                  floor_db: float = -10.0, ceil_db: float = 35.0) -> float:
    """Mean frame-wise SNR in dB, clamped per frame to [-10, 35]."""
    n = min(reference.size, test.size)
    reference = np.asarray(reference[:n], dtype=np.float64)
    test = np.asarray(test[:n], dtype=np.float64)
    snrs = []
    for start in range(0, n - frame + 1, frame):
        ref = reference[start:start + frame]
        err = ref - test[start:start + frame]
        p_ref = float(np.sum(ref ** 2))
        p_err = float(np.sum(err ** 2))
        if p_ref <= 0.0:
            continue
        snr = 10.0 * np.log10(p_ref / max(p_err, 1e-12))
        snrs.append(min(max(snr, floor_db), ceil_db))
    return float(np.mean(snrs)) if snrs else 0.0
