"""Command surface, file formats, the enhancement pipeline and streaming."""

import itertools
import json

import numpy as np
import pytest

from tfcn.audio import AudioError, load_audio, read_wav, sinc_decimate, write_wav
from tfcn.checkpoint import load_checkpoint, save_checkpoint
from tfcn.cli import main
from tfcn.config import CausalityMode, RunConfig, tcn_lps_config, tfcn_config, tfcn_d_config
from tfcn.dsp import Normalizer, compute_norm_stats, load_normalizer, lps, stft
from tfcn.enhance import enhance_lps, enhance_lps_streaming, enhance_waveform
from tfcn.model import build_model
from tfcn.padding import max_look_ahead
from tfcn.streaming import StreamingModel
from tfcn.synth import generate_corpus, load_manifest, load_pairs


def small_causal_cfg(**kw):
    kw.setdefault("repeated_blocks", 1)
    kw.setdefault("dilated_blocks_per_repeat", 2)
    return tfcn_config(CausalityMode.causal(), **kw)


def make_identity_model(cfg=None):
    """Doctor a model into an exact pass-through of its input LPS."""
    model = build_model(cfg or small_causal_cfg(), seed=0)
    mc = model.config
    model.input_bn.gamma.data[:] = np.float32(np.sqrt(1.0 + model.input_bn.epsilon))
    w = model.input_conv.weight
    w.data[:] = 0.0
    pin = model.pad_plan["input.conv"]
    w.data[0, 0, (mc.input_kernel[0] - 1) // 2, pin.left_t] = 1.0
    for row in model.blocks:
        for blk in row:
            blk.conv2.weight.data[:] = 0.0
    model.output_conv.weight.data[:] = 0.0
    model.output_conv.weight.data[0, 0, 0, 0] = 1.0
    model.output_act.alpha.data[:] = 1.0
    return model


def unit_normalizer(bins=256):
    return Normalizer(mean=np.zeros(bins, np.float32), std=np.ones(bins, np.float32))


def tone(n, freq=440.0, amp=0.3, rate=16000):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


def speechish(n, rng, amp=0.05):
    """Tone plus band-limited noise; no energy at the (eliminated) last bin."""
    kernel = np.hanning(32)
    kernel /= kernel.sum()
    noise = np.convolve(rng.standard_normal(n + 31), kernel, mode="valid")
    return tone(n, 523.0) + amp * noise


class TestAudioIO:
    def test_wav_round_trip_identical(self, tmp_path, rng):
        x = rng.uniform(-0.9, 0.9, 5000)
        path = tmp_path / "x.wav"
        write_wav(path, x)
        back = read_wav(path)
        assert back.sample_rate == 16000
        write_wav(tmp_path / "y.wav", back.samples)
        again = read_wav(tmp_path / "y.wav")
        np.testing.assert_array_equal(back.samples, again.samples)

    def test_48k_resampled_on_load(self, tmp_path):
        x = tone(48000 * 2, freq=1000.0, rate=48000)
        path = tmp_path / "hi.wav"
        write_wav(path, x, sample_rate=48000)
        y = load_audio(path)
        assert y.size == 32000
        spec = np.abs(np.fft.rfft(y[1000:1000 + 4096]))
        peak_hz = spec.argmax() * 16000 / 4096
        assert abs(peak_hz - 1000.0) < 10.0

    def test_unsupported_rate_rejected(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_wav(path, tone(4000), sample_rate=22050)
        with pytest.raises(AudioError, match="22050"):
            load_audio(path)

    def test_corrupt_wav_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFgarbage")
        with pytest.raises(AudioError):
            read_wav(path)

    def test_decimator_suppresses_aliases(self):
        # 7 kHz at 48 kHz would alias to 9 kHz... stays below passband after
        # decimation only if the lowpass removed content above 8 kHz
        x = tone(48000, freq=11000.0, amp=0.5, rate=48000)
        y = sinc_decimate(x, 3)
        assert np.sqrt(np.mean(y ** 2)) < 0.05


class TestSynth:
    def test_snr_labels_within_half_db(self, tmp_path):
        manifest_path = generate_corpus(tmp_path, n_utts=4, seed=3)
        manifest = load_manifest(manifest_path)
        for pair in manifest.pairs:
            clean = load_audio(pair.clean_path)
            noisy = load_audio(pair.noisy_path)
            noise = noisy - clean
            snr = 10 * np.log10(np.sum(clean ** 2) / np.sum(noise ** 2))
            assert abs(snr - pair.snr_db) < 0.5

    def test_same_seed_byte_identical(self, tmp_path):
        generate_corpus(tmp_path / "a", n_utts=2, seed=9)
        generate_corpus(tmp_path / "b", n_utts=2, seed=9)
        for rel in ("clean/utt_0000.wav", "noisy/utt_0001.wav", "manifest.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_zero_utterances_ok(self, tmp_path):
        manifest = load_manifest(generate_corpus(tmp_path, n_utts=0, seed=0))
        assert manifest.pairs == []

    def test_cli_synth_and_stats(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--count", "3", "--seed", "1"]) == 0
        stats_path = tmp_path / "stats.bin"
        assert main(["stats", "--manifest", str(out), "--out", str(stats_path)]) == 0
        norm = load_normalizer(stats_path)
        manifest = load_manifest(out)
        oracle = compute_norm_stats(lps(stft(load_audio(p.noisy_path)))
                                    for p in manifest.pairs)
        np.testing.assert_allclose(norm.mean, oracle.mean, atol=1e-5)
        np.testing.assert_allclose(norm.std, oracle.std, atol=1e-5)

    def test_stats_order_invariant(self, tmp_path):
        out = tmp_path / "corpus"
        generate_corpus(out, n_utts=3, seed=2)
        manifest = load_manifest(out)
        mats = [lps(stft(load_audio(p.noisy_path))) for p in manifest.pairs]
        fwd = compute_norm_stats(mats)
        rev = compute_norm_stats(reversed(mats))
        np.testing.assert_allclose(fwd.mean, rev.mean, atol=1e-5)
        np.testing.assert_allclose(fwd.std, rev.std, atol=1e-5)

    def test_stats_constant_tone_floors_std(self, tmp_path):
        wav_dir = tmp_path / "c"
        (wav_dir / "noisy").mkdir(parents=True)
        (wav_dir / "clean").mkdir(parents=True)
        x = tone(32000, freq=1000.0)
        write_wav(wav_dir / "noisy" / "utt_0000.wav", x)
        write_wav(wav_dir / "clean" / "utt_0000.wav", x)
        (wav_dir / "manifest.json").write_text(json.dumps({
            "version": 1, "sample_rate": 16000, "total_duration": 2.0,
            "pairs": [{"noisy": "noisy/utt_0000.wav", "clean": "clean/utt_0000.wav"}]}))
        stats = tmp_path / "stats.bin"
        assert main(["stats", "--manifest", str(wav_dir), "--out", str(stats)]) == 0
        norm = load_normalizer(stats)
        silent = norm.mean < -15          # bins far from the tone
        assert silent.sum() > 200
        assert (norm.std[silent] < 0.2).all()


class TestRunConfig:
    def _config_dict(self, tmp_path):
        return {
            "version": 1, "seed": 7,
            "model": tfcn_config(repeated_blocks=1,
                                 dilated_blocks_per_repeat=1).to_dict(),
            "train": {"max_epochs": 2, "batch_size": 2},
            "stft": {"frame_len": 512, "hop": 256},
            "paths": {"train_manifest": str(tmp_path / "corpus"),
                      "stats": str(tmp_path / "stats.bin"),
                      "out_dir": str(tmp_path / "run")},
        }

    def test_round_trip_unchanged(self, tmp_path):
        run = RunConfig.from_dict(self._config_dict(tmp_path))
        assert RunConfig.from_dict(run.to_dict()) == run

    def test_unknown_key_rejected_with_path(self, tmp_path):
        data = self._config_dict(tmp_path)
        data["train"]["warmup"] = 5
        with pytest.raises(Exception, match=r"\['warmup'\] at train"):
            RunConfig.from_dict(data)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """Synthesized corpus + stats + a completed 2-epoch training run."""
    root = tmp_path_factory.mktemp("toyrun")
    corpus = root / "corpus"
    generate_corpus(corpus, n_utts=4, seed=5, duration_range=(2.0, 2.5))
    stats = root / "stats.bin"
    assert main(["stats", "--manifest", str(corpus), "--out", str(stats)]) == 0
    config = {
        "version": 1, "seed": 3,
        "model": tfcn_config(repeated_blocks=2,
                             dilated_blocks_per_repeat=3).to_dict(),
        "train": {"max_epochs": 2, "batch_size": 2, "seed": 3},
        "paths": {"train_manifest": str(corpus), "stats": str(stats),
                  "out_dir": str(root / "run")},
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


class TestTrainCommand:
    def test_writes_monotone_epoch_csv(self, toy_run):
        root, _ = toy_run
        lines = (root / "run" / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr,event"
        epochs = [int(line.split(",")[0]) for line in lines[1:]]
        assert epochs == sorted(epochs) == [1, 2]

    def test_missing_stats_exits_2_naming_path(self, tmp_path, toy_run, capsys):
        _, cfg_path = toy_run
        data = json.loads(cfg_path.read_text())
        data["paths"]["stats"] = str(tmp_path / "absent.bin")
        data["paths"]["out_dir"] = str(tmp_path / "run")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["train", "--config", str(bad)]) == 2
        assert "absent.bin" in capsys.readouterr().err

    def test_malformed_stats_exits_1(self, toy_run, tmp_path, capsys):
        _, cfg_path = toy_run
        data = json.loads(cfg_path.read_text())
        stats = tmp_path / "stats.bin"
        stats.write_bytes(b"LPSNORM1" + np.array([1, 2**26], "<u4").tobytes() + bytes(16))
        data["paths"]["stats"] = str(stats)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(stats) in err and "Traceback" not in err

    def test_resume_from_malformed_state_exits_1(self, toy_run, tmp_path, capsys):
        root, cfg_path = toy_run
        data = json.loads(cfg_path.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "run")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        loaded = load_checkpoint(root / "run" / "last.ckpt")
        last = tmp_path / "run" / "last.ckpt"
        last.parent.mkdir()
        save_checkpoint(last, loaded.model, normalizer=loaded.normalizer,
                        training_state={"epoch": 1}, opt_arrays=loaded.opt_arrays)
        assert main(["train", "--config", str(cfg), "--resume"]) == 1
        err = capsys.readouterr().err
        assert str(last) in err and "Traceback" not in err

    @pytest.mark.parametrize("moments", ["none", "misshapen"])
    def test_resume_without_optimizer_moments_exits_1(self, toy_run, tmp_path, capsys,
                                                       moments):
        root, cfg_path = toy_run
        data = json.loads(cfg_path.read_text())
        data["paths"]["out_dir"] = str(tmp_path / "run")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        loaded = load_checkpoint(root / "run" / "last.ckpt")
        opt_arrays = None
        if moments == "misshapen":
            opt_arrays = dict(loaded.opt_arrays)
            first = sorted(k for k in opt_arrays if k.startswith("opt.v."))[0]
            opt_arrays[first] = np.zeros(opt_arrays[first].size + 1, np.float32)
        last = tmp_path / "run" / "last.ckpt"
        last.parent.mkdir()
        save_checkpoint(last, loaded.model, normalizer=loaded.normalizer,
                        training_state=loaded.training_state, opt_arrays=opt_arrays)
        assert main(["train", "--config", str(cfg), "--resume"]) == 1
        err = capsys.readouterr().err
        assert ("lacks opt.m." if moments == "none" else "has shape") in err
        assert "Traceback" not in err

    def test_resume_matches_straight_run(self, toy_run, tmp_path):
        root, cfg_path = toy_run
        base = json.loads(cfg_path.read_text())

        def run(out_dir, epochs, resume=False):
            data = json.loads(json.dumps(base))
            data["train"]["max_epochs"] = epochs
            data["paths"]["out_dir"] = str(out_dir)
            p = tmp_path / f"cfg_{out_dir.name}_{epochs}.json"
            p.write_text(json.dumps(data))
            args = ["train", "--config", str(p)]
            if resume:
                args.append("--resume")
            assert main(args) == 0

        run(tmp_path / "straight", 4)
        run(tmp_path / "resumed", 2)
        run(tmp_path / "resumed", 4, resume=True)
        from tfcn.training import read_history_csv
        straight = {r.epoch: r for r in read_history_csv(tmp_path / "straight" / "history.csv")}
        resumed = {r.epoch: r for r in read_history_csv(tmp_path / "resumed" / "history.csv")}
        assert set(resumed) == {1, 2, 3, 4}
        for epoch in (3, 4):
            assert abs(straight[epoch].train_loss - resumed[epoch].train_loss) < 1e-5
            assert abs(straight[epoch].val_loss - resumed[epoch].val_loss) < 1e-5


class TestEnhance:
    def test_identity_model_round_trip_snr(self, tmp_path):
        model = make_identity_model()
        norm = unit_normalizer()
        x = speechish(24000, np.random.default_rng(4))
        result = enhance_waveform(model, norm, x)
        y = result.samples
        a, b = x[512:y.size - 512], y[512:-512]
        snr = 10 * np.log10(np.sum(a ** 2) / np.sum((a - b) ** 2))
        assert snr > 55.0
        assert y.size == 256 * (result.frames - 1) + 512

    def test_cli_enhance_identity(self, tmp_path):
        model = make_identity_model()
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, model, normalizer=unit_normalizer())
        x = speechish(20000, np.random.default_rng(1))
        write_wav(tmp_path / "in.wav", x)
        assert main(["enhance", "--checkpoint", str(ckpt),
                     "--in", str(tmp_path / "in.wav"),
                     "--out", str(tmp_path / "out.wav")]) == 0
        y = read_wav(tmp_path / "out.wav").samples
        a, b = x[512:y.size - 512], y[512:-512]
        snr = 10 * np.log10(np.sum(a ** 2) / np.sum((a - b) ** 2))
        assert snr > 55.0

    def test_cli_enhance_reports_rtf(self, tmp_path, capsys):
        model = build_model(small_causal_cfg(), seed=8)
        ckpt = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, model, normalizer=unit_normalizer())
        write_wav(tmp_path / "in.wav", tone(8000, 440.0))
        for flag in ([], ["--streaming"]):
            assert main(["enhance", "--checkpoint", str(ckpt), "--in", str(tmp_path / "in.wav"),
                         "--out", str(tmp_path / "out.wav"), *flag]) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            assert line.startswith("enhanced 30 frames")
            words = line.split()
            assert words[-2] == "rtf"
            assert 0.0 < float(words[-1]) < 1e3

    def test_compute_time_reported(self):
        model = build_model(small_causal_cfg(), seed=8)
        result = enhance_waveform(model, unit_normalizer(), tone(8000, 440.0))
        assert 0.0 < result.compute_s < 60.0

    def test_silence_in_near_silence_out(self, tmp_path):
        model = make_identity_model()
        result = enhance_waveform(model, unit_normalizer(), np.zeros(16000))
        assert np.sqrt(np.mean(result.samples ** 2)) < 1e-4

    def test_streaming_bitwise_matches_batch(self, tmp_path):
        model = build_model(small_causal_cfg(), seed=8)
        norm = unit_normalizer()
        x = speechish(12000, np.random.default_rng(2), amp=0.02)
        batch = enhance_waveform(model, norm, x, streaming=False)
        stream = enhance_waveform(model, norm, x, streaming=True)
        np.testing.assert_array_equal(batch.samples, stream.samples)

    def test_cli_streaming_flag_same_file(self, tmp_path):
        model = build_model(small_causal_cfg(), seed=8)
        ckpt = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, model, normalizer=unit_normalizer())
        write_wav(tmp_path / "in.wav", tone(8000, 660.0))
        base = ["enhance", "--checkpoint", str(ckpt), "--in", str(tmp_path / "in.wav")]
        assert main(base + ["--out", str(tmp_path / "a.wav")]) == 0
        assert main(base + ["--out", str(tmp_path / "b.wav"), "--streaming"]) == 0
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    def test_streaming_latency_is_look_ahead_plus_one(self):
        cfg = tfcn_config(CausalityMode.semi_causal(4), repeated_blocks=1,
                          dilated_blocks_per_repeat=2, freq_bins=32)
        stream = StreamingModel(build_model(cfg, seed=0))
        rng = np.random.default_rng(0)
        emitted_at = None
        for i in range(12):
            out = stream.push_frame(rng.uniform(-1, 1, 32).astype(np.float32))
            if out and emitted_at is None:
                emitted_at = i + 1
        assert emitted_at == 5
        assert stream.first_output_after == 5

    @pytest.mark.parametrize("variant", ["tcn_lps", "tfcn_d"])
    @pytest.mark.parametrize("causality", [CausalityMode.causal(),
                                           CausalityMode.semi_causal(3),
                                           None],
                             ids=["causal", "semi3", "semimax"])
    def test_streaming_lps_bitwise_matches_batch(self, variant, causality):
        # tcn_lps has a freq extent of 1 (one-frame GEMMs are matrix-vector
        # products); tfcn_d has dense wiring and full (non-depth-wise) convs.
        # At the maximum look-ahead (None) every dilated conv reads the future.
        make = {"tcn_lps": tcn_lps_config, "tfcn_d": tfcn_d_config}[variant]
        cfg = make(causality, repeated_blocks=2, dilated_blocks_per_repeat=3,
                   freq_bins=24, block_channels=8, bottleneck_channels=12)
        if causality is None:
            cfg = cfg.with_causality(CausalityMode.semi_causal(max_look_ahead(cfg)))
        model = build_model(cfg, seed=5)
        norm = unit_normalizer(24)
        noisy = np.random.default_rng(3).uniform(-12.0, 0.0, (23, 24)).astype(np.float32)
        streamed, first_after = enhance_lps_streaming(model, norm, noisy)
        np.testing.assert_array_equal(streamed, enhance_lps(model, norm, noisy))
        assert first_after == model.look_ahead_frames + 1

    def test_reset_replays_a_fresh_stream(self):
        cfg = tfcn_config(CausalityMode.semi_causal(3), repeated_blocks=1,
                          dilated_blocks_per_repeat=3, freq_bins=16)
        model = build_model(cfg, seed=2)
        rng = np.random.default_rng(6)
        first, second = rng.uniform(-1, 1, (2, 9, 16)).astype(np.float32)

        def run(stream):
            pushed = [stream.push_frame(frame) for frame in second]
            return pushed, stream.flush(), stream.collected, stream.first_output_after

        fresh = run(StreamingModel(model))
        for flush_first in (False, True):
            stream = StreamingModel(model)
            for frame in first[:5]:
                stream.push_frame(frame)
            if flush_first:
                stream.flush()
            stream.reset()
            assert (stream.frames_in, stream.frames_out) == (0, 0)
            assert stream.first_output_after is None and stream.collected.shape == (0, 16)
            again = run(stream)
            assert [len(p) for p in again[0]] == [len(p) for p in fresh[0]]
            for got, want in zip([*itertools.chain(*again[0]), *again[1], again[2]],
                                 [*itertools.chain(*fresh[0]), *fresh[1], fresh[2]]):
                assert got.tobytes() == want.tobytes()
            assert again[3] == fresh[3] == 4
            assert stream.frames_out == 9

    def test_push_or_flush_after_flush_raises(self):
        cfg = small_causal_cfg(freq_bins=16)
        stream = StreamingModel(build_model(cfg, seed=0))
        stream.push_frame(np.zeros(16, np.float32))
        stream.flush()
        with pytest.raises(RuntimeError, match="after flush"):
            stream.push_frame(np.zeros(16, np.float32))
        with pytest.raises(RuntimeError, match="after flush"):
            stream.flush()
        assert stream.frames_out == 1

    def test_streaming_rejects_non_causal(self):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1, freq_bins=16)
        with pytest.raises(ValueError, match="causal"):
            StreamingModel(build_model(cfg, seed=0))


class TestReportCommand:
    def _report(self, capsys, *args):
        assert main(["report", "--json", *args]) == 0
        return json.loads(capsys.readouterr().out)

    def test_tfcn_report(self, capsys):
        data = self._report(capsys, "--variant", "tfcn")
        assert data["param_count"] == 92803
        assert data["receptive_field"]["past_frames"] == 1023
        assert data["receptive_field"]["future_frames"] == 1023
        assert data["max_look_ahead_frames"] == 1023
        assert data["receptive_field"]["past_ms"] == 1023 * 16.0

    def test_tfcn_d_report(self, capsys):
        data = self._report(capsys, "--variant", "tfcn_d")
        assert abs(data["param_count"] - 1_380_000) <= 138_000

    def test_causal_report(self, capsys):
        data = self._report(capsys, "--variant", "tfcn", "--causality", "causal")
        assert data["receptive_field"]["future_frames"] == 0

    def test_semi_causal_pad_plan(self, capsys):
        data = self._report(capsys, "--variant", "tfcn", "--causality", "semi:19")
        by_layer = {e["layer"]: e for e in data["pad_plan"]}
        assert by_layer["input.conv"]["pad_t"] == [3, 3]
        assert by_layer["rb0.db3.conv1"]["pad_t"] == [8, 8]
        assert by_layer["rb1.db0.conv1"]["pad_t"] == [2, 0]


class TestProbeCommand:
    def _checkpoint(self, tmp_path, causality, name):
        cfg = tfcn_config(causality, repeated_blocks=2, dilated_blocks_per_repeat=4,
                          freq_bins=32)
        path = tmp_path / name
        save_checkpoint(path, build_model(cfg, seed=0), normalizer=unit_normalizer(32))
        return path

    def test_causal_passes(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, CausalityMode.causal(), "causal.ckpt")
        assert main(["probe", "--checkpoint", str(ckpt), "--frames", "40"]) == 0

    def test_semi_causal_boundary(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, CausalityMode.semi_causal(3), "semi.ckpt")
        assert main(["probe", "--checkpoint", str(ckpt), "--frames", "40",
                     "--look-ahead", "3"]) == 0
        assert main(["probe", "--checkpoint", str(ckpt), "--frames", "40",
                     "--look-ahead", "2", "--trials", "6"]) == 3

    def test_non_causal_negative_control(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, CausalityMode.non_causal(), "nc.ckpt")
        assert main(["probe", "--checkpoint", str(ckpt), "--frames", "40",
                     "--look-ahead", "0"]) == 3


class TestEvalCommand:
    def test_eval_smoke(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        generate_corpus(corpus, n_utts=2, seed=7, duration_range=(2.0, 2.2))
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, make_identity_model(), normalizer=unit_normalizer())
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(corpus), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pairs"] == 2
        assert np.isfinite(data["mean_lps_loss"])
        # identity mapping reproduces the noisy input: no segmental SNR gain
        assert abs(data["mean_seg_snr_gain_db"]) < 0.5


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["report", "--variant", "nonsense"]) == 1
        assert main(["bogus-command"]) == 1

    def test_missing_resource_is_2(self, tmp_path, capsys):
        assert main(["enhance", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--in", "x.wav", "--out", "y.wav"]) == 2

    def test_config_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "bogus": True,
                                   "model": {"variant": "tfcn"},
                                   "paths": {"train_manifest": "x", "stats": "y",
                                             "out_dir": "z"}}))
        assert main(["train", "--config", str(bad)]) == 1
        assert "bogus" in capsys.readouterr().err
