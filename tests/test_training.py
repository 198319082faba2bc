"""Loss, optimizer, schedule state machine, segmenting and the training loop."""

import itertools
import math

import numpy as np
import pytest

from oracles import (
    frame_rms_loss_f64,
    frame_rms_loss_reference,
    model_forward_f64,
    model_params_f64,
    numeric_gradient,
    schedule_reference,
)
from tfcn.config import StftConfig, TrainConfig, tfcn_config
from tfcn.engine import Parameter
from tfcn.engine.gradcheck import relative_error
from tfcn.model import build_model
from tfcn.training import (
    Adam,
    ScheduleState,
    TrainingError,
    epoch_order,
    frame_rms_loss,
    frame_rms_loss_grad,
    segment_corpus,
    train,
)


class TestLoss:
    def test_equal_inputs_zero(self, rng):
        s = rng.uniform(-5, 5, (4, 256)).astype(np.float32)
        assert frame_rms_loss(s, s) == 0.0

    def test_constant_offset(self, rng):
        s = rng.uniform(-5, 5, (6, 256)).astype(np.float32)
        assert abs(frame_rms_loss(s, s + 0.75) - 0.75) < 1e-6
        assert abs(frame_rms_loss(s, s - 1.25) - 1.25) < 1e-6

    def test_matches_scalar_oracle(self, rng):
        s = rng.uniform(-8, 2, (3, 256))
        est = rng.uniform(-8, 2, (3, 256))
        assert abs(frame_rms_loss(s, est) - frame_rms_loss_reference(s, est)) < 1e-6

    def test_batch_mean_over_items(self, rng):
        s = rng.uniform(-2, 2, (2, 5, 16)).astype(np.float32)
        est = rng.uniform(-2, 2, (2, 5, 16)).astype(np.float32)
        per_item = [frame_rms_loss(s[i], est[i]) for i in range(2)]
        assert abs(frame_rms_loss(s, est) - np.mean(per_item)) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            frame_rms_loss(np.zeros((3, 8)), np.zeros((4, 8)))

    def test_nonnegative_and_zero_iff_equal(self, rng):
        s = rng.uniform(-2, 2, (5, 32)).astype(np.float32)
        est = s.copy()
        est[2, 7] += 1e-2
        assert frame_rms_loss(s, est) > 0.0


class TestLossGradient:
    def test_zero_at_equality(self, rng):
        s = rng.uniform(-2, 2, (4, 32)).astype(np.float32)
        assert not frame_rms_loss_grad(s, s).any()

    def test_matches_finite_differences(self, rng):
        s = rng.uniform(-2, 2, (3, 16))
        est = rng.uniform(-2, 2, (3, 16))
        grad = frame_rms_loss_grad(s, est)
        num = numeric_gradient(lambda: frame_rms_loss_f64(s, est), est, step=1e-5)
        rel = np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)
        assert rel.max() < 1e-3

    def test_invariant_under_joint_scaling(self, rng):
        s = rng.uniform(-2, 2, (3, 16)).astype(np.float32)
        est = rng.uniform(-2, 2, (3, 16)).astype(np.float32)
        g1 = frame_rms_loss_grad(s, est)
        g2 = frame_rms_loss_grad(2.0 * s, 2.0 * est)
        np.testing.assert_allclose(g1, g2, rtol=1e-5, atol=1e-8)

    def test_masked_frames_contribute_nothing(self, rng):
        s = rng.uniform(-2, 2, (6, 16)).astype(np.float32)
        est = rng.uniform(-2, 2, (6, 16)).astype(np.float32)
        mask = np.array([True, True, True, True, False, False])
        grad = frame_rms_loss_grad(s, est, mask)
        assert not grad[4:].any()
        # masked loss equals the loss over only the valid frames
        assert abs(frame_rms_loss(s, est, mask) - frame_rms_loss(s[:4], est[:4])) < 1e-12


class TestAdam:
    def _params(self, rng, n=3):
        return [Parameter(f"p{i}", rng.uniform(-1, 1, (2, 2))) for i in range(n)]

    def test_zero_gradient_keeps_params(self, rng):
        params = self._params(rng)
        before = [p.data.copy() for p in params]
        for p in params:
            p.grad = np.zeros_like(p.data)
        opt = Adam(params)
        assert opt.step(1e-3)
        assert opt.step_count == 1
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)

    def test_first_step_is_minus_lr(self, rng):
        p = Parameter("w", np.array([0.5], dtype=np.float32))
        p.grad = np.array([0.37], dtype=np.float32)
        opt = Adam([p])
        opt.step(1e-3)
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert abs((p.data[0] - 0.5) + 1e-3) < 1e-6

    def test_identical_inputs_identical_updates(self, rng):
        a, b = self._params(rng, 1)[0], None
        a2 = Parameter("p0", a.data.copy())
        g = rng.uniform(-1, 1, a.data.shape).astype(np.float32)
        a.grad = g.copy()
        a2.grad = g.copy()
        o1, o2 = Adam([a]), Adam([a2])
        for _ in range(5):
            o1.step(1e-3)
            o2.step(1e-3)
        np.testing.assert_array_equal(a.data, a2.data)

    def test_nonfinite_gradient_rejected(self, rng, caplog):
        p = self._params(rng, 1)[0]
        before = p.data.copy()
        p.grad = np.full_like(p.data, np.nan)
        opt = Adam([p])
        with caplog.at_level("WARNING"):
            assert not opt.step(1e-3)
        assert opt.step_count == 0
        np.testing.assert_array_equal(p.data, before)
        assert "non-finite" in caplog.text

    def test_state_round_trip(self, rng):
        p = self._params(rng, 1)[0]
        p.grad = rng.uniform(-1, 1, p.data.shape).astype(np.float32)
        opt = Adam([p])
        opt.step(1e-3)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = Adam([p])
        opt2.load_state_arrays(arrays, opt.step_count)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["p0"], opt.m["p0"])


    @pytest.mark.parametrize("fault", ["missing", "misshapen"])
    def test_load_rejects_bad_moment_and_changes_none(self, rng, fault):
        params = self._params(rng, 2)
        for p in params:
            p.grad = rng.uniform(-1, 1, p.data.shape).astype(np.float32)
        opt = Adam(params)
        opt.step(1e-3)
        arrays = {k: v + 1.0 for k, v in opt.state_arrays().items()}
        if fault == "missing":
            del arrays["opt.v.p1"]
        else:
            arrays["opt.v.p1"] = np.zeros(3, np.float32)
        before = {k: v.copy() for k, v in opt.state_arrays().items()}
        with pytest.raises(TrainingError, match="opt.v.p1"):
            opt.load_state_arrays(arrays, 5)
        assert opt.step_count == 1
        for k, v in opt.state_arrays().items():
            np.testing.assert_array_equal(v, before[k])


class TestSchedule:
    def test_documented_trace(self):
        st = ScheduleState(current_lr=1e-3)
        events = [st.update(v) for v in (1.0, 0.9, 0.95, 0.96, 0.97)]
        assert events == ["none", "none", "none", "none", "halve"]
        assert st.current_lr == 5e-4

    def test_strictly_decreasing_never_halves(self):
        st = ScheduleState(current_lr=1e-3)
        for v in np.linspace(2.0, 1.0, 30):
            assert st.update(float(v)) == "none"
        assert st.current_lr == 1e-3

    def test_flat_losses_stop_at_ten(self):
        st = ScheduleState(current_lr=1e-3)
        st.update(1.0)
        events = [st.update(1.0) for _ in range(10)]
        assert events == ["none"] * 9 + ["stop"]
        assert st.current_lr == 1e-3          # ties never halve

    def test_two_halvings(self):
        st = ScheduleState(current_lr=1e-3)
        st.update(1.0)
        for _ in range(3):
            st.update(1.5)
        for _ in range(3):
            st.update(1.5)
        assert st.current_lr == 0.00025

    def test_exhaustive_1024_sequences_match_reference(self):
        for bits in itertools.product([True, False], repeat=10):
            st = ScheduleState(current_lr=1.0)
            st.update(1.0)                      # establish a best
            events = []
            for improved in bits:
                value = st.best_val_loss - 0.1 if improved else st.best_val_loss + 0.1
                event = st.update(value)
                events.append(event)
                if event == "stop":
                    break
            ref_events, ref_halvings, ref_stop = schedule_reference(bits)
            if ref_stop is not None:
                assert events == ref_events[:ref_stop]
            else:
                assert events == ref_events
            assert st.current_lr == 0.5 ** ref_halvings


class TestSegmenting:
    def test_64000_samples_two_segments(self, rng):
        wav = rng.uniform(-0.5, 0.5, 64000)
        segs = segment_corpus([(wav, wav)], TrainConfig())
        assert len(segs) == 2
        assert all(s.frame_mask.all() for s in segs)

    def test_70000_samples_padded_tail(self, rng):
        wav = rng.uniform(-0.5, 0.5, 70000)
        segs = segment_corpus([(wav, wav)], TrainConfig())
        assert len(segs) == 3
        assert segs[2].frame_mask.sum() == (6000 - 512) // 256 + 1 == 22
        assert not segs[2].noisy[6000:].any()

    def test_short_tail_dropped(self, rng):
        wav = rng.uniform(-0.5, 0.5, 32000 + 511)
        assert len(segment_corpus([(wav, wav)], TrainConfig())) == 1

    def test_mismatched_pair_rejected_by_name(self, rng):
        with pytest.raises(ValueError, match="utt_7"):
            segment_corpus([(np.zeros(32000), np.zeros(31000))], TrainConfig(),
                           names=["utt_7"])

    def test_epoch_order_deterministic(self):
        a = epoch_order(17, seed=3, epoch=5)
        b = epoch_order(17, seed=3, epoch=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, epoch_order(17, seed=3, epoch=6))


def _toy_pairs(rng, n_utts=3, samples=32000):
    pairs = []
    t = np.arange(samples) / 16000.0
    for i in range(n_utts):
        clean = 0.3 * np.sin(2 * np.pi * (300 + 100 * i) * t)
        noisy = clean + 0.1 * rng.standard_normal(samples)
        pairs.append((noisy, clean))
    return pairs


def _tiny_train_setup(rng):
    from tfcn.dsp import compute_norm_stats, lps, stft
    pairs = _toy_pairs(rng, 3)
    val = _toy_pairs(rng, 1)
    norm = compute_norm_stats(lps(stft(n)) for n, _ in pairs)
    cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1)
    train_cfg = TrainConfig(max_epochs=2, batch_size=2, seed=11)
    return pairs, val, norm, cfg, train_cfg


class TestTrainLoop:
    def test_deterministic_history(self, rng, tmp_path):
        pairs, val, norm, cfg, train_cfg = _tiny_train_setup(rng)
        r1 = train(build_model(cfg, seed=1), pairs, val, norm, train_cfg,
                   out_dir=tmp_path / "a")
        r2 = train(build_model(cfg, seed=1), pairs, val, norm, train_cfg,
                   out_dir=tmp_path / "b")
        assert [(row.train_loss, row.val_loss) for row in r1.history] == \
               [(row.train_loss, row.val_loss) for row in r2.history]
        assert r1.step_losses == r2.step_losses

    def test_history_csv_and_checkpoints(self, rng, tmp_path):
        from tfcn.training import read_history_csv
        pairs, val, norm, cfg, train_cfg = _tiny_train_setup(rng)
        result = train(build_model(cfg, seed=1), pairs, val, norm, train_cfg,
                       out_dir=tmp_path)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        rows = read_history_csv(tmp_path / "history.csv")
        assert [r.epoch for r in rows] == [1, 2]
        assert rows[0].lr == 1e-3
        assert result.best_val_loss == min(r.val_loss for r in rows)

    def test_resume_matches_straight_run(self, rng, tmp_path):
        from tfcn.checkpoint import load_checkpoint
        pairs, val, norm, cfg, _ = _tiny_train_setup(rng)
        four = TrainConfig(max_epochs=4, batch_size=2, seed=11)
        two = TrainConfig(max_epochs=2, batch_size=2, seed=11)

        straight = train(build_model(cfg, seed=1), pairs, val, norm, four,
                         out_dir=tmp_path / "straight")
        train(build_model(cfg, seed=1), pairs, val, norm, two,
              out_dir=tmp_path / "resumed")
        loaded = load_checkpoint(tmp_path / "resumed" / "last.ckpt")
        resumed = train(loaded.model, pairs, val, norm, four,
                        out_dir=tmp_path / "resumed",
                        resume_state=loaded.training_state,
                        resume_opt=loaded.opt_arrays)
        s = {r.epoch: r for r in straight.history}
        r = {r.epoch: r for r in resumed.history}
        for epoch in (3, 4):
            assert abs(s[epoch].train_loss - r[epoch].train_loss) < 1e-5
            assert abs(s[epoch].val_loss - r[epoch].val_loss) < 1e-5


    def test_rejected_updates_counted_per_epoch(self, rng, tmp_path, caplog):
        pairs, val, norm, cfg, train_cfg = _tiny_train_setup(rng)
        model = build_model(cfg, seed=1)
        backward = model.backward
        steps = []

        def backward_nan_on_first_step(grad):
            out = backward(grad)
            steps.append(len(steps))
            if len(steps) == 1:
                model.output_act.alpha.grad[:] = np.nan
            return out

        model.backward = backward_nan_on_first_step
        with caplog.at_level("INFO", logger="tfcn.training"):
            result = train(model, pairs, val, norm, train_cfg, out_dir=tmp_path)
        assert len(steps) == 4
        assert result.rejected_updates == {1: 1, 2: 0}
        assert "epoch 1: " in caplog.text and "rejected 1 " in caplog.text
        assert "rejected 0 " in caplog.text
        header = (tmp_path / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,lr,event"

    def test_step_times_and_gradient_norms_per_step(self, rng, caplog, monkeypatch):
        pairs, val, norm, cfg, train_cfg = _tiny_train_setup(rng)
        model = build_model(cfg, seed=1)
        norms = []
        step = Adam.step

        def step_recording_norm(adam, lr):
            norms.append(np.sqrt(sum((p.grad.astype(np.float64) ** 2).sum()
                                     for p in adam.params)))
            return step(adam, lr)

        monkeypatch.setattr(Adam, "step", step_recording_norm)
        with caplog.at_level("INFO", logger="tfcn.training"):
            result = train(model, pairs, val, norm, train_cfg)
        assert len(result.step_losses) == 4
        assert len(result.step_seconds) == len(result.grad_norms) == 4
        assert all(np.isfinite(t) and t > 0 for t in result.step_seconds)
        np.testing.assert_allclose(result.grad_norms, norms, rtol=1e-12)
        assert all(np.isfinite(g) and g > 0 for g in result.grad_norms)
        for epoch, steps in ((1, slice(0, 2)), (2, slice(2, 4))):
            line = next(r.getMessage() for r in caplog.records
                        if r.getMessage().startswith(f"epoch {epoch}: "))
            words = line.split()
            assert float(words[words.index("step") + 1].rstrip("s")) == pytest.approx(
                np.median(result.step_seconds[steps]), abs=1e-3)
            assert float(words[words.index("grad-norm") + 2]) == pytest.approx(
                max(result.grad_norms[steps]), rel=1e-3)


class TestEndToEndGradient:
    def test_loss_through_model_matches_float64_fd(self, rng):
        # 50 random parameter coordinates on a reduced model; slope-1
        # activations keep the landscape kink-free, and the scale-absorbed
        # middle-BN gammas are excluded (their true gradients are eps-order
        # by batch-norm scale invariance, below float32 resolution; the BN
        # backward formula itself is oracle-verified in test_engine).
        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=2, freq_bins=8)
        model = build_model(cfg, seed=5)
        for p in model.parameters():
            if p.name.endswith(".alpha"):
                p.data[:] = 1.0
        x = rng.uniform(-1.5, 1.5, (1, 1, 8, 6)).astype(np.float32)
        target = rng.uniform(-1.5, 1.5, (6, 8)).astype(np.float32)
        std = rng.uniform(0.5, 2.0, 8).astype(np.float32)
        mean = rng.uniform(-0.5, 0.5, 8).astype(np.float32)

        bns = [l for l in model._layer_objects() if type(l).__name__ == "BatchNorm"]
        saved = [(l.running_mean.copy(), l.running_var.copy()) for l in bns]
        model.zero_grad()
        y = model.forward(x, training=True)
        for l, (rm, rv) in zip(bns, saved):
            l.running_mean, l.running_var = rm, rv
        est = np.swapaxes(y[0, 0], 0, 1) * std + mean
        grad = frame_rms_loss_grad(target, est) * std
        model.backward(np.ascontiguousarray(np.swapaxes(grad, 0, 1))[None, None])
        grads = {p.name: p.grad for p in model.parameters()}

        p64 = model_params_f64(model)

        def loss64():
            out = model_forward_f64(model, p64, x, training=True)
            e = np.swapaxes(out[0, 0], 0, 1) * std.astype(np.float64) + mean
            return frame_rms_loss_f64(target, e)

        names = [p.name for p in model.parameters() if ".bn0.gamma" not in p.name]
        srng = np.random.default_rng(7)
        worst = 0.0
        checked = 0
        while checked < 50:
            name = names[int(srng.integers(len(names)))]
            flat = p64[name].reshape(-1)
            i = int(srng.integers(flat.size))
            keep = flat[i]
            flat[i] = keep + 1e-5
            hi = loss64()
            flat[i] = keep - 1e-5
            lo = loss64()
            flat[i] = keep
            numeric = (hi - lo) / 2e-5
            worst = max(worst, relative_error(grads[name].reshape(-1)[i], numeric))
            checked += 1
        assert worst < 1e-3
