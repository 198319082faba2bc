"""Spectral front end: STFT analysis/synthesis, log-power extraction,
per-bin normalization statistics, and magnitude/phase recombination.

Frames are laid out (T, bins). The log power spectrum drops the last STFT bin
so the network sees 256 bins; reconstruction puts it back as zero magnitude
and reuses the noisy phase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import StftConfig

LPS_FLOOR = 1e-10       # inside the log; keeps digital silence finite
STD_FLOOR = 1e-5
NORM_MAGIC = b"LPSNORM1"
NORM_VERSION = 1
NORM_HEADER_BYTES = 16  # magic, then version and bin count as little-endian uint32


def frame_count(n_samples: int, cfg: StftConfig | None = None) -> int:
    cfg = cfg or StftConfig()
    if n_samples < cfg.frame_len:
        raise ValueError(f"need at least {cfg.frame_len} samples, got {n_samples}")
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def stft(samples: np.ndarray, cfg: StftConfig | None = None) -> np.ndarray:
    """Windowed DFT of hop-spaced frames, no center padding.

    Frame t covers samples [hop*t, hop*t + frame_len). Returns complex
    (T, frame_len/2 + 1).
    """
    cfg = cfg or StftConfig()
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("expected a mono 1-D sample array")
    n_frames = frame_count(samples.size, cfg)
    frames = samples[np.arange(n_frames)[:, None] * cfg.hop + np.arange(cfg.frame_len)]
    return np.fft.rfft(frames * cfg.window, axis=1)


def istft(spec: np.ndarray, cfg: StftConfig | None = None) -> np.ndarray:
    """Overlap-add synthesis; length is hop*(T-1) + frame_len.

    The analysis Hann at 50% overlap sums to 1, so interior samples come back
    exactly; only the first/last half-frames are tapered (and renormalized by
    the actual window sum).
    """
    cfg = cfg or StftConfig()
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.bins:
        raise ValueError(f"expected (T, {cfg.bins}) spectrogram, got {spec.shape}")
    n_frames = spec.shape[0]
    length = cfg.hop * (n_frames - 1) + cfg.frame_len
    out = np.zeros(length)
    wsum = np.zeros(length)
    frames = np.fft.irfft(spec, n=cfg.frame_len, axis=1)
    for t in range(n_frames):
        start = t * cfg.hop
        out[start:start + cfg.frame_len] += frames[t]
        wsum[start:start + cfg.frame_len] += cfg.window
    # edge samples with negligible analysis weight carry no information;
    # mute them instead of amplifying reconstruction noise 100x and more
    out = np.where(wsum > 1e-2, out / np.maximum(wsum, 1e-2), 0.0)
    return out


def lps(spec: np.ndarray, floor: float = LPS_FLOOR) -> np.ndarray:
    """ln(|X|^2 + floor) per cell, last bin dropped: (T, bins-1) float32."""
    power = np.abs(spec[:, :-1]) ** 2
    return np.log(power + floor).astype(np.float32)


def reconstruct(est_lps: np.ndarray, noisy_spec: np.ndarray) -> np.ndarray:
    """Estimated magnitudes under the noisy phase; dropped bin returns as 0.

    est_lps: (T, F); noisy_spec: complex (T, F+1) supplying the phase.
    """
    est_lps = np.asarray(est_lps)
    if est_lps.shape[0] != noisy_spec.shape[0]:
        raise ValueError(
            f"frame mismatch: estimate has {est_lps.shape[0]}, phase source has "
            f"{noisy_spec.shape[0]}")
    if est_lps.shape[1] != noisy_spec.shape[1] - 1:
        raise ValueError(
            f"bin mismatch: estimate has {est_lps.shape[1]}, expected "
            f"{noisy_spec.shape[1] - 1}")
    mag = np.exp(np.asarray(est_lps, dtype=np.float64) / 2.0)
    phase = np.angle(noisy_spec)
    spec = np.zeros(noisy_spec.shape, dtype=np.complex128)
    spec[:, :-1] = mag * np.exp(1j * phase[:, :-1])
    return spec


@dataclass(frozen=True)
class Normalizer:
    """Per-bin affine map: normalize (x - mean) / std, denormalize inverts it."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be 1-D vectors of equal length")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValueError("mean/std must be finite")
        if not (self.std >= STD_FLOOR).all():
            raise ValueError(f"std must be floored at {STD_FLOOR}")

    @property
    def bins(self) -> int:
        return self.mean.size

    def normalize(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        return ((x - self.mean) / self.std).astype(np.float32)

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        return (x * self.std + self.mean).astype(np.float32)

    def _check(self, x):
        if x.shape[-1] != self.bins:
            raise ValueError(f"last axis must have {self.bins} bins, got {x.shape}")


def compute_norm_stats(matrices) -> Normalizer:
    """Pooled per-bin mean and population std over all frames of a corpus.

    Single pass with float64 accumulators; std floored at 1e-5.
    """
    count = 0
    total = None
    total_sq = None
    for m in matrices:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("each corpus item must be a (T, F) matrix")
        if total is None:
            total = np.zeros(m.shape[1])
            total_sq = np.zeros(m.shape[1])
        count += m.shape[0]
        total += m.sum(axis=0)
        total_sq += (m * m).sum(axis=0)
    if total is None:
        raise ValueError("empty corpus: no matrices to pool statistics from")
    if count < 2:
        raise ValueError(f"need at least 2 pooled frames, got {count}")
    mean = total / count
    var = np.maximum(total_sq / count - mean ** 2, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return Normalizer(mean=mean.astype(np.float32), std=std.astype(np.float32))


def save_normalizer(path, norm: Normalizer) -> None:
    with open(path, "wb") as fh:
        fh.write(NORM_MAGIC)
        fh.write(np.array([NORM_VERSION, norm.bins], dtype="<u4").tobytes())
        fh.write(norm.mean.astype("<f4").tobytes())
        fh.write(norm.std.astype("<f4").tobytes())


def load_normalizer(path) -> Normalizer:
    """Read a file written by ``save_normalizer``. The header is checked
    against the file size before any data is read, so every malformed file
    raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(NORM_HEADER_BYTES)
        if head[:8] != NORM_MAGIC:
            raise ValueError(f"{path}: not a normalizer file (bad magic {head[:8]!r})")
        if len(head) < NORM_HEADER_BYTES:
            raise ValueError(f"{path}: truncated normalizer header")
        version, bins = (int(v) for v in np.frombuffer(head[8:], dtype="<u4"))
        if version != NORM_VERSION:
            raise ValueError(f"{path}: unsupported normalizer version {version}")
        if bins < 1:
            raise ValueError(f"{path}: normalizer declares no bins")
        if size != NORM_HEADER_BYTES + 8 * bins:
            raise ValueError(f"{path}: header declares {bins} bins "
                             f"({NORM_HEADER_BYTES + 8 * bins} bytes) but the file has "
                             f"{size} bytes")
        data = np.frombuffer(fh.read(8 * bins), dtype="<f4")
        if data.size != 2 * bins:
            raise ValueError(f"{path}: truncated normalizer data")
    return Normalizer(mean=data[:bins].copy(), std=data[bins:].copy())
