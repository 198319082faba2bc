"""Spectral front end: analysis/synthesis round trips, LPS semantics,
normalization statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import bin_stats_reference
from tfcn.config import StftConfig
from tfcn.dsp import (
    NORM_MAGIC,
    Normalizer,
    compute_norm_stats,
    frame_count,
    istft,
    load_normalizer,
    lps,
    reconstruct,
    save_normalizer,
    stft,
)

CFG = StftConfig()


def band_limited_noise(rng, n):
    """Random signal with energy away from DC and Nyquist."""
    t = np.arange(n) / 16000.0
    x = np.zeros(n)
    for _ in range(12):
        f = rng.uniform(100.0, 7000.0)
        x += rng.uniform(0.05, 0.2) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return x


def interior_snr_db(original, resynth):
    a = original[512:-512]
    b = resynth[512:-512]
    return 10.0 * np.log10(np.sum(a ** 2) / np.sum((a - b) ** 2))


class TestStft:
    def test_frame_count_32000(self):
        assert frame_count(32000) == 124
        assert stft(np.zeros(32000)).shape == (124, 257)

    def test_frame_alignment(self, rng):
        # frame t covers samples [256 t, 256 t + 512)
        x = band_limited_noise(rng, 4096)
        spec = stft(x)
        manual = np.fft.rfft(x[512:1024] * CFG.window)
        np.testing.assert_allclose(spec[2], manual, rtol=1e-9, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="512"):
            stft(np.zeros(511))

    def test_dc_energy_in_bin_zero(self):
        # the Hann window's transform has exactly three taps, so a constant
        # lands in bin 0 plus half-amplitude copies in bin 1; everything from
        # bin 2 on is numerically zero
        spec = stft(np.full(2048, 0.25))
        mags = np.abs(spec)
        np.testing.assert_allclose(mags[:, 1], 0.5 * mags[:, 0], rtol=1e-9)
        assert (mags[:, 2:] < 1e-6 * mags[:, :1]).all()

    def test_1khz_peaks_at_bin_32(self):
        t = np.arange(16000) / 16000.0
        spec = stft(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        assert (np.abs(spec).argmax(axis=1) == 32).all()

    def test_hop_shift_moves_frames_by_one(self, rng):
        x = band_limited_noise(rng, 8192)
        a = stft(x[:8192 - 256])
        b = stft(x[256:])
        np.testing.assert_allclose(a[1:], b[:-1], rtol=1e-7, atol=1e-10)


class TestIstft:
    def test_round_trip_interior_snr(self, rng):
        x = band_limited_noise(rng, 16000)
        y = istft(stft(x))
        assert y.size == 256 * (frame_count(16000) - 1) + 512
        assert interior_snr_db(x[:y.size], y) > 60.0

    def test_zero_spectrogram(self):
        y = istft(np.zeros((10, 257), dtype=complex))
        assert y.shape == (256 * 9 + 512,)
        assert not y.any()

    def test_linearity(self, rng):
        a = stft(band_limited_noise(rng, 8000))
        b = stft(band_limited_noise(rng, 8000))
        lhs = istft(a) + istft(b)
        rhs = istft(a + b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5 * np.abs(lhs).max() + 1e-12)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError, match="257"):
            istft(np.zeros((4, 256), dtype=complex))


class TestLps:
    def test_unit_magnitude_is_zero(self):
        spec = np.ones((3, 257), dtype=complex)
        out = lps(spec)
        assert out.shape == (3, 256)
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_magnitude_e_gives_two(self):
        spec = np.full((2, 257), np.e, dtype=complex)
        np.testing.assert_allclose(lps(spec), 2.0, atol=1e-6)

    def test_doubling_adds_ln4(self, rng):
        spec = stft(band_limited_noise(rng, 8000)) + 0.1
        delta = lps(2.0 * spec) - lps(spec)
        np.testing.assert_allclose(delta, np.log(4.0), atol=1e-4)

    def test_silence_stays_finite(self):
        out = lps(np.zeros((2, 257), dtype=complex))
        assert np.isfinite(out).all()


class TestReconstruct:
    def test_round_trip_magnitude(self, rng):
        spec = stft(band_limited_noise(rng, 8000))
        rebuilt = reconstruct(lps(spec), spec)
        mag, ref = np.abs(rebuilt[:, :256]), np.abs(spec[:, :256])
        significant = ref > 1e-3
        rel = np.abs(mag[significant] - ref[significant]) / ref[significant]
        assert rel.max() < 1e-4

    def test_phase_copied_bin_by_bin(self, rng):
        # phase passes through untouched; re-reading it from the complex
        # representation rounds at one ulp, hence the 1e-12 bound
        spec = stft(band_limited_noise(rng, 8000))
        est = lps(spec) + rng.uniform(-1.0, 1.0, (spec.shape[0], 256))
        rebuilt = reconstruct(est, spec)
        delta = np.angle(rebuilt[:, :256] * np.conj(spec[:, :256]))
        assert np.abs(delta).max() < 1e-12

    def test_last_bin_zero(self, rng):
        spec = stft(band_limited_noise(rng, 8000))
        rebuilt = reconstruct(lps(spec), spec)
        assert not rebuilt[:, 256].any()

    def test_floored_input_near_silent(self):
        est = np.full((6, 256), np.log(1e-10), dtype=np.float32)
        phase_src = np.ones((6, 257), dtype=complex)
        y = istft(reconstruct(est, phase_src))
        assert np.sqrt(np.mean(y ** 2)) < 1e-4
        assert np.abs(y).max() < 1e-2

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValueError, match="frame mismatch"):
            reconstruct(np.zeros((3, 256)), np.zeros((4, 257), dtype=complex))


class TestNormalizer:
    def test_constant_corpus(self):
        m = np.full((5, 256), 3.25, dtype=np.float32)
        norm = compute_norm_stats([m])
        np.testing.assert_allclose(norm.mean, 3.25, atol=1e-6)
        np.testing.assert_allclose(norm.std, 1e-5)

    def test_two_frame_values(self):
        m = np.stack([np.zeros(256), np.full(256, 2.0)]).astype(np.float32)
        norm = compute_norm_stats([m])
        np.testing.assert_allclose(norm.mean, 1.0, atol=1e-7)
        np.testing.assert_allclose(norm.std, 1.0, atol=1e-6)

    def test_matches_two_pass_oracle(self, rng):
        mats = [rng.uniform(-10, 2, (rng.integers(3, 30), 256)) for _ in range(5)]
        norm = compute_norm_stats(mats)
        mean_ref, std_ref = bin_stats_reference(mats)
        np.testing.assert_allclose(norm.mean, mean_ref, atol=1e-5)
        np.testing.assert_allclose(norm.std, np.maximum(std_ref, 1e-5), atol=1e-5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            compute_norm_stats([])

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="2 pooled frames"):
            compute_norm_stats([np.zeros((1, 256))])

    def test_identity_normalizer(self, rng):
        norm = Normalizer(mean=np.zeros(256, np.float32), std=np.ones(256, np.float32))
        x = rng.uniform(-5, 5, (7, 256)).astype(np.float32)
        np.testing.assert_array_equal(norm.normalize(x), x)

    def test_normalize_denormalize_identity(self, rng):
        norm = Normalizer(mean=rng.uniform(-10, 0, 256).astype(np.float32),
                          std=rng.uniform(1e-5, 4.0, 256).astype(np.float32))
        x = rng.uniform(-20, 5, (11, 256)).astype(np.float32)
        back = norm.denormalize(norm.normalize(x))
        assert np.abs(back - x).max() < 1e-5 * max(1.0, np.abs(x).max())

    def test_mean_input_maps_to_zero(self, rng):
        mean = rng.uniform(-3, 3, 256).astype(np.float32)
        norm = Normalizer(mean=mean, std=rng.uniform(0.5, 2, 256).astype(np.float32))
        np.testing.assert_allclose(norm.normalize(mean[None]), 0.0, atol=1e-6)

    def test_std_floor_enforced(self):
        with pytest.raises(ValueError, match="floored"):
            Normalizer(mean=np.zeros(4, np.float32),
                       std=np.array([1, 1, 0, 1], np.float32))

    def test_file_round_trip(self, tmp_path, rng):
        norm = Normalizer(mean=rng.uniform(-10, 0, 256).astype(np.float32),
                          std=rng.uniform(1e-3, 4.0, 256).astype(np.float32))
        path = tmp_path / "stats.bin"
        save_normalizer(path, norm)
        back = load_normalizer(path)
        np.testing.assert_array_equal(back.mean, norm.mean)
        np.testing.assert_array_equal(back.std, norm.std)

    def test_file_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_normalizer(path)

    @pytest.mark.parametrize("bins,tail", [
        (2**26, 16),                # a 32-byte file declaring 512 MiB of data
        (2**32 - 1, 16),            # the largest count the header can declare
        (0, 0),                     # an empty normalizer
        (4, 32 + 1),                # one trailing byte
    ])
    def test_header_checked_against_file_size(self, tmp_path, bins, tail):
        path = tmp_path / "stats.bin"
        path.write_bytes(NORM_MAGIC + np.array([1, bins], "<u4").tobytes() + b"\x01" * tail)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bins"):
                load_normalizer(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_finite_statistics_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Normalizer(mean=np.array([0.0, np.nan], np.float32), std=np.ones(2, np.float32))
        with pytest.raises(ValueError, match="finite"):
            Normalizer(mean=np.zeros(2, np.float32), std=np.array([1, np.inf], np.float32))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_file_raises_only_value_error(self, tmp_path, data):
        path = tmp_path / "stats.bin"
        save_normalizer(path, Normalizer(mean=np.linspace(-8, -2, 8).astype(np.float32),
                                         std=np.linspace(1, 3, 8).astype(np.float32)))
        raw = path.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "extend", "version", "bins", "values"]))
        if kind == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "extend":
            raw += data.draw(st.binary(min_size=1, max_size=64))
        elif kind == "version":
            n = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != 1))
            raw = raw[:8] + np.uint32(n).tobytes() + raw[12:]
        elif kind == "bins":
            n = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != 8))
            raw = raw[:12] + np.uint32(n).tobytes() + raw[16:]
        else:
            at = data.draw(st.integers(16, len(raw) - 4))
            raw = raw[:at] + data.draw(st.binary(min_size=4, max_size=4)) + raw[at + 4:]
        path.write_bytes(raw)
        if kind != "values":
            with pytest.raises(ValueError):
                load_normalizer(path)
            return
        try:
            norm = load_normalizer(path)
        except ValueError:
            return
        # values that load are ones the normalizer accepts
        assert norm.bins == 8
        assert np.isfinite(norm.mean).all() and (norm.std >= 1e-5).all()
