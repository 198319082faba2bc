"""Negative controls: every workload's correctness check must pass on the
program's real output and reject a deliberately wrong one.

Small networks keep this fast; the checks are the same functions the
workloads call. Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import numpy as np
import pytest

import tfcn
from perfbench import inputs, reference, tracing
from perfbench import workloads as wl


def _small(make, causality, seed=5):
    model = tfcn.build_model(make(causality, repeated_blocks=1, dilated_blocks_per_repeat=3),
                             seed=seed)
    inputs.randomize_state(model, seed)
    mean, std = inputs.normalizer_stats(seed)
    return model, tfcn.Normalizer(mean=mean, std=std)


def _failed(checks, name):
    return [ok for n, ok, _ in checks if n == name] == [False]


def _flip_largest(params, name):
    w = params[name]
    k = np.unravel_index(np.abs(w).argmax(), w.shape)
    w[k] = -w[k]
    return params


@pytest.mark.parametrize("make", [tfcn.tfcn_config, tfcn.tfcn_d_config])
def test_enhance_check_rejects_flipped_weight(make):
    model, norm = _small(make, tfcn.CausalityMode.causal())
    noisy, _, _ = inputs.utterance(1, inputs.samples_for_frames(10))
    out = tfcn.enhance_waveform(model, norm, noisy).samples
    checks = wl.check_enhanced(tfcn, model, norm.mean, norm.std, noisy, out)
    assert all(ok for _, ok, _ in checks), checks
    flipped = _flip_largest(reference.model_arrays(model), "rb0.db2.conv2.weight")
    checks = wl.check_enhanced(tfcn, model, norm.mean, norm.std, noisy, out, params=flipped)
    assert _failed(checks, "matches_float64_pipeline"), checks


def test_stream_check_rejects_one_ulp():
    look_ahead = 3
    model, norm = _small(tfcn.tfcn_config, tfcn.CausalityMode.semi_causal(look_ahead))
    noisy, _, _ = inputs.utterance(2, inputs.samples_for_frames(12))
    noisy_lps = tfcn.lps(tfcn.stft(noisy))
    stream = tfcn.StreamingModel(model)
    for frame in norm.normalize(noisy_lps):
        stream.push_frame(frame)
    stream.flush()
    streamed = norm.denormalize(stream.collected)
    batch = tfcn.enhance_lps(model, norm, noisy_lps)
    args = (stream.first_output_after, stream.frames_out, look_ahead)
    assert all(ok for _, ok, _ in wl.check_stream(streamed, batch, *args))
    bumped = streamed.copy()
    bumped[5, 7] = np.nextafter(bumped[5, 7], np.float32(np.inf))
    assert _failed(wl.check_stream(bumped, batch, *args), "bitwise_equals_batch")
    late = (stream.first_output_after + 1, stream.frames_out, look_ahead)
    assert _failed(wl.check_stream(streamed, batch, *late),
                   "first_output_after_lookahead_plus_one")
    assert _failed(wl.check_stream(streamed[:-1], batch[:-1], *args),
                   "frames_out_equal_frames_in")


def test_gradient_check_rejects_wrong_gradient():
    model, norm = _small(tfcn.tfcn_config, tfcn.CausalityMode.causal())
    noisy, clean, _ = inputs.utterance(3, inputs.samples_for_frames(16))
    grads, directions, fds = wl.gradient_probe(tfcn, model, norm.mean, norm.std,
                                               noisy, clean, 3)
    assert wl.check_gradient(grads, directions, fds)[1]
    scaled = {k: 1.01 * g for k, g in grads.items()}
    assert not wl.check_gradient(scaled, directions, fds)[1]
    layer = "rb0.db1.conv1.weight"
    zeroed = dict(grads, **{layer: np.zeros_like(grads[layer])})
    assert not wl.check_gradient(zeroed, directions, fds)[1]


def test_first_loss_check_rejects_flipped_weight():
    model, norm = _small(tfcn.tfcn_config, tfcn.CausalityMode.causal())
    noisy, clean, _ = inputs.utterance(4, 8192)
    initial = reference.model_arrays(model)
    cfg = tfcn.TrainConfig(max_epochs=1, batch_size=1, segment_samples=8192)
    res = tfcn.train(model, [(noisy, clean)], [(noisy, clean)], norm, cfg)
    m64, s64 = norm.mean.astype(np.float64), norm.std.astype(np.float64)
    want = reference.training_loss(model.config, initial, m64, s64, noisy, clean)
    assert wl.check_first_loss(res.step_losses[0], want)[1]
    flipped = _flip_largest(initial, "output.conv.weight")
    wrong = reference.training_loss(model.config, flipped, m64, s64, noisy, clean)
    assert not wl.check_first_loss(res.step_losses[0], wrong)[1]


def test_checkpoint_check_rejects_one_ulp(tmp_path):
    from tfcn.checkpoint import load_checkpoint, save_checkpoint
    model, _ = _small(tfcn.tfcn_config, tfcn.CausalityMode.causal())
    save_checkpoint(tmp_path / "c.ckpt", model)
    loaded = {p.name: p.data for p in load_checkpoint(tmp_path / "c.ckpt").model.parameters()}
    trained = {p.name: p.data.copy() for p in model.parameters()}
    assert wl.check_checkpoint(loaded, trained)[1]
    w = trained["rb0.db1.conv1.weight"]
    w.flat[3] = np.nextafter(w.flat[3], np.float32(np.inf))
    assert not wl.check_checkpoint(loaded, trained)[1]


def test_self_time_subtracts_children():
    spans = [["model.forward", "", 0.0, 10.0, -1, None],
             ["conv.fwd", "rb0.db0.conv1", 1.0, 4.0, 0, {"kind": "dilated", "d": 1, "macs": 6e9}],
             ["bn.fwd", "rb0.db0.bn1", 4.0, 6.0, 0, None],
             ["concat", "", 6.0, 6.5, 0, None]]
    m = tracing.per_layer_metrics(spans, rounds=2, overhead_pct=0.0)
    assert m["model.forward_self_s"][0] == pytest.approx((10.0 - 3.0 - 2.0 - 0.5) / 2)
    assert m["conv.dilated.d1.fwd_s"][0] == pytest.approx(1.5)
    assert m["conv.dilated.fwd_gmac_per_s"][0] == pytest.approx(2.0)
    assert m["bn.fwd_s"][0] == pytest.approx(1.0)
