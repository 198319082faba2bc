"""Model construction, padding plans, receptive fields, causality probes,
dense wiring and the checkpoint format."""

import errno
import io

import numpy as np
import pytest

import tfcn.fileio
from oracles import conv1d_reference, model_forward_f64, model_params_f64
from tfcn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tfcn.config import (
    CausalityMode,
    ConfigError,
    ModelConfig,
    tcn_lps_config,
    tfcn_config,
    tfcn_d_config,
)
from tfcn.dsp import Normalizer
from tfcn.model import build_model, param_count, probe_causality
from tfcn.padding import max_look_ahead, plan_padding, receptive_field


class TestConfig:
    def test_presets_validate(self):
        assert tfcn_config().depthwise_dilated
        assert tfcn_d_config().dense_intra and tfcn_d_config().dense_inter
        assert tcn_lps_config().input_kernel == (1, 1)

    def test_inconsistent_preset_flags_rejected(self):
        with pytest.raises(ConfigError, match="tfcn preset"):
            ModelConfig(variant="tfcn", dense_intra=True, depthwise_dilated=True)
        with pytest.raises(ConfigError, match="tfcn_d preset"):
            ModelConfig(variant="tfcn_d", dense_intra=True, dense_inter=True,
                        depthwise_dilated=True)
        with pytest.raises(ConfigError, match="freq kernel"):
            ModelConfig(variant="tcn_lps", input_kernel=(5, 7), dense_intra=False,
                        dense_inter=False)

    def test_semi_causal_look_ahead_field(self):
        mode = CausalityMode.semi_causal(19)
        assert mode.look_ahead_frames == 19
        with pytest.raises(ConfigError, match="look_ahead"):
            CausalityMode("causal", 3)

    def test_model_config_round_trip(self):
        cfg = tfcn_d_config(CausalityMode.semi_causal(7), repeated_blocks=2)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"\['bogus'\] at model"):
            ModelConfig.from_dict({"variant": "tfcn", "bogus": 1})


class TestStructure:
    def test_tfcn_channel_plan(self):
        model = build_model(tfcn_config(), seed=0)
        assert sum(len(row) for row in model.blocks) == 32
        assert model.input_conv.spec.in_channels == 1
        assert model.input_conv.spec.out_channels == 16
        assert model.input_conv.spec.kernel == (5, 7)
        blk = model.blocks[0][0]
        assert (blk.conv0.spec.in_channels, blk.conv0.spec.out_channels) == (16, 64)
        assert (blk.conv1.spec.in_channels, blk.conv1.spec.out_channels) == (64, 64)
        assert blk.conv1.spec.is_depthwise
        assert (blk.conv2.spec.in_channels, blk.conv2.spec.out_channels) == (64, 16)
        assert model.output_conv.spec.out_channels == 1

    def test_tfcn_d_dense_channel_plan(self):
        cfg = tfcn_d_config()
        model = build_model(cfg, seed=0)
        for r in range(4):
            for n in range(8):
                expected = 16 * (r + n + 1)
                assert model.blocks[r][n].conv0.spec.in_channels == expected
                assert not model.blocks[r][n].conv1.spec.is_depthwise

    def test_dilation_progression(self):
        model = build_model(tfcn_config(), seed=0)
        for n in range(8):
            assert model.blocks[0][n].conv1.spec.dilation == (2 ** n, 2 ** n)

    def test_minimal_config_runs(self, rng):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1)
        model = build_model(cfg, seed=0)
        x = rng.uniform(-1, 1, (1, 1, 256, 4)).astype(np.float32)
        assert model.forward(x).shape == (1, 1, 256, 4)


class TestParamCount:
    def test_tfcn_in_band(self):
        count = param_count(tfcn_config())
        assert 88_000 <= count <= 98_000
        assert count == build_model(tfcn_config(), seed=0).num_params

    def test_tfcn_d_near_1_38m(self):
        count = param_count(tfcn_d_config())
        assert abs(count - 1_380_000) <= 0.10 * 1_380_000

    def test_single_conv_arithmetic(self):
        from tfcn.engine import ConvSpec
        spec = ConvSpec(1, 16, (5, 7))
        assert int(np.prod(spec.weight_shape)) == 16 * 1 * 5 * 7 == 560

    def test_twenty_random_configs_match_instantiation(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            variant = rng.choice(["tfcn", "tfcn_d", "tcn_lps"])
            kwargs = dict(
                repeated_blocks=int(rng.integers(1, 4)),
                dilated_blocks_per_repeat=int(rng.integers(1, 5)),
                block_channels=int(rng.integers(2, 12)),
                bottleneck_channels=int(rng.integers(4, 24)),
                freq_bins=int(rng.integers(8, 40)),
            )
            if variant == "tcn_lps":
                cfg = tcn_lps_config(**kwargs)
            elif variant == "tfcn_d":
                cfg = tfcn_d_config(dilated_kernel=(3, 3), **kwargs)
            else:
                cfg = tfcn_config(**kwargs)
            assert param_count(cfg) == build_model(cfg, seed=1).num_params


class TestForwardContract:
    @pytest.mark.parametrize("frames", [1, 7, 124])
    def test_shape_preserved(self, rng, frames):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1)
        model = build_model(cfg, seed=0)
        x = rng.uniform(-1, 1, (1, 1, 256, frames)).astype(np.float32)
        assert model.forward(x).shape == x.shape

    def test_different_seeds_differ(self, rng):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=2, freq_bins=32)
        x = rng.uniform(-1, 1, (1, 1, 32, 6)).astype(np.float32)
        y1 = build_model(cfg, seed=1).forward(x)
        y2 = build_model(cfg, seed=2).forward(x)
        assert not np.array_equal(y1, y2)

    def test_identical_batch_items_identical_outputs(self, rng):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=2, freq_bins=32)
        model = build_model(cfg, seed=0)
        one = rng.uniform(-1, 1, (1, 1, 32, 5)).astype(np.float32)
        y = model.forward(np.concatenate([one, one]))
        np.testing.assert_array_equal(y[0], y[1])

    def test_nonfinite_input_rejected(self):
        model = build_model(tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1,
                                        freq_bins=16), seed=0)
        x = np.zeros((1, 1, 16, 3), dtype=np.float32)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.forward(x)

    def test_forward_matches_float64_replica(self, rng):
        # cross-checks the dense wiring against an independent re-derivation
        for cfg in (tfcn_config(repeated_blocks=2, dilated_blocks_per_repeat=2,
                                freq_bins=16),
                    tfcn_d_config(repeated_blocks=2, dilated_blocks_per_repeat=2,
                                  freq_bins=16),
                    tcn_lps_config(repeated_blocks=1, dilated_blocks_per_repeat=2,
                                   block_channels=8, bottleneck_channels=16,
                                   freq_bins=16)):
            model = build_model(cfg, seed=4)
            x = rng.uniform(-1, 1, (1, 1, 16, 9)).astype(np.float32)
            y32 = model.forward(x, training=False)
            y64 = model_forward_f64(model, model_params_f64(model), x, training=False)
            assert np.abs(y32.astype(np.float64) - y64).max() < 1e-5


class TestPadPlan:
    def test_causal_k3_d1(self):
        cfg = tfcn_config(CausalityMode.causal(), repeated_blocks=1,
                          dilated_blocks_per_repeat=1)
        entry = plan_padding(cfg)["rb0.db0.conv1"]
        assert (entry.left_t, entry.right_t) == (2, 0)
        assert entry.right_clip == 2

    def test_tfcn_total_future_context(self):
        plan = plan_padding(tfcn_config())
        assert plan.total_future == 1023
        assert max_look_ahead(tfcn_config()) == 1023

    def test_semi_19_greedy_allocation(self):
        cfg = tfcn_config(CausalityMode.semi_causal(19))
        plan = plan_padding(cfg)
        assert plan["input.conv"].right_t == 3
        firsts = [plan[f"rb0.db{n}.conv1"].right_t for n in range(8)]
        assert firsts == [1, 2, 4, 8, 1, 0, 0, 0]
        for r in range(1, 4):
            assert all(plan[f"rb{r}.db{n}.conv1"].right_t == 0 for n in range(8))
        assert plan.total_future == 19

    def test_budget_overflow_rejected_with_maximum(self):
        with pytest.raises(ConfigError, match="maximum of 1023"):
            plan_padding(tfcn_config(CausalityMode.semi_causal(1024)))

    def test_size_preserving_pads(self):
        for mode in (CausalityMode.non_causal(), CausalityMode.causal(),
                     CausalityMode.semi_causal(5)):
            plan = plan_padding(tfcn_config(mode, repeated_blocks=2,
                                            dilated_blocks_per_repeat=3))
            for e in plan.entries:
                assert e.left_t + e.right_t == (e.kernel[1] - 1) * e.dilation[1]
                assert e.left_f == e.right_f == (e.kernel[0] - 1) * e.dilation[0] // 2


class TestReceptiveField:
    def test_full_tfcn_non_causal(self):
        past, future, freq_span = receptive_field(tfcn_config())
        assert (past, future) == (1023, 1023)
        assert freq_span == 2045

    def test_full_tfcn_causal(self):
        past, future, _ = receptive_field(tfcn_config(CausalityMode.causal()))
        assert (past, future) == (2046, 0)

    def test_two_layer_hand_count(self):
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1)
        past, future, freq_span = receptive_field(cfg)
        assert past == future == 3 + 1
        assert freq_span == 1 + 4 + 2

    @pytest.mark.parametrize("repeats,per_repeat,mode", [
        (1, 2, CausalityMode.non_causal()),
        (2, 3, CausalityMode.non_causal()),
        (2, 2, CausalityMode.causal()),
        (1, 3, CausalityMode.semi_causal(2)),
    ])
    def test_empirical_span_matches_analytic(self, repeats, per_repeat, mode):
        cfg = tfcn_config(mode, repeated_blocks=repeats,
                          dilated_blocks_per_repeat=per_repeat, freq_bins=8)
        model = build_model(cfg, seed=6)
        past, future, _ = receptive_field(cfg)
        t = future + 4
        frames = t + past + 5
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (1, 1, 8, frames)).astype(np.float32)
        base = model.forward(x)
        x2 = x.copy()
        x2[0, 0, :, t] += 10.0
        delta = np.abs(model.forward(x2) - base).max(axis=(0, 1, 2))
        touched = np.nonzero(delta > 0)[0]
        assert touched.min() == t - future
        assert touched.max() == t + past


class TestCausalityProbe:
    def test_reduced_causal_zero_leak(self):
        cfg = tfcn_config(CausalityMode.causal(), repeated_blocks=2,
                          dilated_blocks_per_repeat=4, freq_bins=32)
        leak = probe_causality(build_model(cfg, seed=0), frames=40, trials=4)
        assert leak < 1e-6

    def test_semi_causal_boundary(self):
        cfg = tfcn_config(CausalityMode.semi_causal(3), repeated_blocks=2,
                          dilated_blocks_per_repeat=4, freq_bins=32)
        model = build_model(cfg, seed=0)
        assert probe_causality(model, frames=40, trials=4, look_ahead=3) < 1e-6
        assert probe_causality(model, frames=40, trials=6, look_ahead=2) > 1e-6

    def test_non_causal_negative_control(self):
        cfg = tfcn_config(repeated_blocks=2, dilated_blocks_per_repeat=4, freq_bins=32)
        leak = probe_causality(build_model(cfg, seed=0), frames=40, trials=4, look_ahead=0)
        assert leak > 1e-6


class TestDenseWiring:
    def test_zeroing_block_output_touches_exact_channel_slice(self, rng):
        cfg = tfcn_d_config(repeated_blocks=3, dilated_blocks_per_repeat=2, freq_bins=16)
        model = build_model(cfg, seed=1)
        x = rng.uniform(-1, 1, (1, 1, 16, 6)).astype(np.float32)
        base_trace = {}
        model.forward(x, trace=base_trace)
        zeroed = 1
        trace = {}
        model.forward(x, trace=trace,
                      overrides={f"rb{zeroed}.out": np.zeros_like(base_trace[f"rb{zeroed}.out"])})
        # the zeroed block's channel slice in every later block's input turns
        # to zeros; everything upstream of it stays bitwise identical
        lo, hi = 16 * (zeroed + 1), 16 * (zeroed + 2)
        for r in range(zeroed + 1, 3):
            before = base_trace[f"rb{r}.db0.in"]
            after = trace[f"rb{r}.db0.in"]
            assert not after[:, lo:hi].any()
            assert before[:, lo:hi].any()
            np.testing.assert_array_equal(after[:, :lo], before[:, :lo])
        # the immediately following block has nothing downstream in its input,
        # so the change is exactly the zeroed block's slice
        nxt = base_trace[f"rb{zeroed + 1}.db0.in"]
        assert nxt.shape[1] == hi

    def test_intra_dense_input_growth(self, rng):
        cfg = tfcn_d_config(repeated_blocks=1, dilated_blocks_per_repeat=3, freq_bins=16)
        model = build_model(cfg, seed=1)
        x = rng.uniform(-1, 1, (1, 1, 16, 4)).astype(np.float32)
        trace = {}
        model.forward(x, trace=trace)
        for n in range(3):
            assert trace[f"rb0.db{n}.in"].shape[1] == 16 * (n + 1)


class TestOneDimensionalEquivalence:
    def test_tcn_dilated_block_matches_1d_oracle(self, rng):
        cfg = tcn_lps_config(repeated_blocks=1, dilated_blocks_per_repeat=2,
                             block_channels=6, bottleneck_channels=8, freq_bins=6,
                             causality=CausalityMode.causal())
        model = build_model(cfg, seed=2)
        blk = model.blocks[0][1]              # dilation 2
        x = rng.uniform(-1, 1, (1, 8, 1, 10)).astype(np.float32)
        hidden = blk.conv1.forward(x, record=False)
        pad = blk.conv1.spec.pad
        ref = np.stack([
            conv1d_reference(x[0, c:c + 1, 0], blk.conv1.weight.data[c:c + 1, :, 0],
                             dilation=2, pad=(pad[2], pad[3]))[0]
            for c in range(8)])
        assert np.abs(hidden[0, :, 0] - ref).max() < 1e-5

    def test_tcn_layout_round_trip(self, rng):
        cfg = tcn_lps_config(repeated_blocks=1, dilated_blocks_per_repeat=1,
                             block_channels=4, bottleneck_channels=4, freq_bins=12)
        model = build_model(cfg, seed=0)
        x = rng.uniform(-1, 1, (2, 1, 12, 5)).astype(np.float32)
        assert model.forward(x).shape == (2, 1, 12, 5)


class TestCheckpoint:
    def _small_model(self):
        cfg = tfcn_config(CausalityMode.causal(), repeated_blocks=1,
                          dilated_blocks_per_repeat=2, freq_bins=16)
        return build_model(cfg, seed=9)

    def test_round_trip(self, tmp_path, rng):
        model = self._small_model()
        # make buffers non-trivial
        model.input_bn.running_mean[:] = 0.25
        norm = Normalizer(mean=rng.uniform(-5, 0, 16).astype(np.float32),
                          std=rng.uniform(0.5, 2, 16).astype(np.float32))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, normalizer=norm,
                        training_state={"epoch": 3, "adam_step": 12,
                                        "schedule": {"current_lr": 5e-4,
                                                     "halving_patience": 3,
                                                     "stop_patience": 10,
                                                     "best_val_loss": 1.5,
                                                     "epochs_since_best": 1,
                                                     "consecutive_above": 1}},
                        opt_arrays={"opt.m.input.conv.weight":
                                    np.ones_like(model.input_conv.weight.data)})
        loaded = load_checkpoint(path)
        assert loaded.model.config == model.config
        assert loaded.seed == 9
        for a, b in zip(model.parameters(), loaded.model.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)
        for (na, a), (nb, b) in zip(model.named_buffers(), loaded.model.named_buffers()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.normalizer.mean, norm.mean)
        assert loaded.training_state["epoch"] == 3
        np.testing.assert_array_equal(
            loaded.opt_arrays["opt.m.input.conv.weight"],
            np.ones_like(model.input_conv.weight.data))

    def test_loaded_model_same_outputs(self, tmp_path, rng):
        model = self._small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        x = rng.uniform(-1, 1, (1, 1, 16, 8)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), loaded.model.forward(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTATALL" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_manifest_total_validated(self, tmp_path):
        import json
        model = self._small_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        head_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        header = json.loads(raw[12:12 + head_len])
        header["manifest"] = header["manifest"][1:]      # drop a param entry
        new_head = json.dumps(header).encode()
        path.write_bytes(raw[:8] + np.uint32(len(new_head)).tobytes()
                         + new_head + raw[12 + head_len:])
        with pytest.raises(CheckpointError, match="learnable scalars"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        class DiskFull(io.FileIO):
            def write(self, data):
                if self.tell() > 64:          # dies after the header starts
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        model = self._small_model()
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, model)
        before = path.read_bytes()
        saved = [p.data.copy() for p in model.parameters()]
        for p in model.parameters():
            p.data += 1.0
        monkeypatch.setattr(tfcn.fileio, "open", lambda f, mode, **kw: DiskFull(f, "w"),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, model)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["last.ckpt"]
        for p, want in zip(load_checkpoint(path).model.parameters(), saved):
            np.testing.assert_array_equal(p.data, want)
