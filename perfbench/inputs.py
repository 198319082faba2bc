"""Seeded inputs: noisy/clean utterances, normalizer statistics and the
inference-mode state of a built model.

Everything here derives from one integer seed and shares no code with the
program; the program only ever sees the generated arrays. Utterances are
band-limited (nothing above 7 kHz), so dropping the STFT's Nyquist bin loses
no signal and resynthesis can be checked sample for sample.
"""

from __future__ import annotations

import numpy as np

RATE = 16000
FRAME_LEN = 512
HOP = 256
BINS = FRAME_LEN // 2           # LPS bins the network sees (Nyquist dropped)
SNR_RANGE_DB = (0.0, 10.0)
NOISE_CUTOFF_HZ = 7000.0


def samples_for_frames(frames: int) -> int:
    """Samples whose STFT (no centering) has exactly ``frames`` frames."""
    return (frames - 1) * HOP + FRAME_LEN


def _clean(rng: np.random.Generator, n: int) -> np.ndarray:
    """Voiced-speech stand-in: harmonic stacks under syllable-rate envelopes."""
    t = np.arange(n) / RATE
    out = np.zeros(n)
    for _ in range(3):
        f0 = rng.uniform(100.0, 250.0) * (1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(2, 5) * t))
        phase = 2 * np.pi * np.cumsum(f0) / RATE
        env = 0.5 * (1.0 + np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, 6.3)))
        for k in range(1, 12):
            if 250.0 * k > 4000.0:
                break
            out += env * np.sin(k * phase + rng.uniform(0, 6.3)) * rng.uniform(0.2, 1.0) / k
    return out


def _noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pink-ish noise with a raised-cosine roll-off that reaches zero at
    NOISE_CUTOFF_HZ."""
    spec = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    freqs = np.fft.rfftfreq(n, 1.0 / RATE)
    shape = 1.0 / np.sqrt(np.maximum(freqs, 50.0))
    roll = np.clip((NOISE_CUTOFF_HZ - freqs) / 1000.0, 0.0, 1.0)
    shape *= 0.5 - 0.5 * np.cos(np.pi * roll)
    return np.fft.irfft(spec * shape, n=n)


def utterance(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(noisy, clean, snr_db) of n samples, peak of noisy at 0.5."""
    rng = np.random.default_rng([seed, n])
    clean = _clean(rng, n)
    noise = _noise(rng, n)
    snr_db = float(rng.uniform(*SNR_RANGE_DB))
    noise *= np.sqrt(np.mean(clean ** 2) / np.mean(noise ** 2) / 10.0 ** (snr_db / 10.0))
    noisy = clean + noise
    scale = 0.5 / np.abs(noisy).max()
    return noisy * scale, clean * scale, snr_db


def normalizer_stats(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin (mean, std) of a plausible log-power spectrum: falling mean,
    std well above the floor."""
    rng = np.random.default_rng([seed, 1])
    mean = -4.0 - 6.0 * np.arange(BINS) / BINS + rng.normal(0.0, 0.3, BINS)
    std = rng.uniform(2.0, 3.5, BINS)
    return mean.astype(np.float32), std.astype(np.float32)


def randomize_state(model, seed: int) -> None:
    """Draw BN running buffers and PReLU slopes from the seed, so no layer of
    an inference forward is an identity."""
    rng = np.random.default_rng([seed, 2])
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            value = rng.normal(0.0, 0.2, buf.shape)
        else:
            value = rng.uniform(0.5, 2.0, buf.shape)
        model.set_buffer(name, value.astype(np.float32))
    for p in model.parameters():
        if p.name.endswith(".alpha"):
            p.data[...] = rng.uniform(0.05, 0.45, p.data.shape)
