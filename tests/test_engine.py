"""Tensor-engine primitives against independent oracles and finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    bn_inference_f64,
    bn_train_f64,
    conv2d_f64,
    conv2d_reference,
    numeric_gradient,
    prelu_f64,
)
from tfcn.engine import (
    BatchNorm,
    ConvSpec,
    PReLU,
    ShapeError,
    add_residual,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    grad_check,
    split_channels,
)


def rand(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, shape).astype(np.float32)


class TestConvForward:
    def test_identity_pointwise(self, rng):
        # identity weight across channels leaves the input untouched
        spec = ConvSpec(3, 3, (1, 1))
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        x = rand(rng, (2, 3, 4, 5))
        y, _ = conv2d_forward(x, w, spec)
        np.testing.assert_array_equal(y, x)

    def test_dilated_taps_by_hand(self):
        # 1x8 signal, kernel (1,3), time dilation 4, zero padding 4 each side:
        # y[t] = w0*x[t-4] + w1*x[t] + w2*x[t+4] with zeros outside
        x = np.arange(8, dtype=np.float32).reshape(1, 1, 1, 8)
        w = np.array([2.0, 3.0, 5.0], dtype=np.float32).reshape(1, 1, 1, 3)
        spec = ConvSpec(1, 1, (1, 3), (1, 4), pad=(0, 0, 4, 4))
        y, _ = conv2d_forward(x, w, spec)
        xv = x[0, 0, 0]
        expected = [3.0 * xv[t] for t in range(8)]
        for t in range(8):
            if t >= 4:
                expected[t] += 2.0 * xv[t - 4]
            if t + 4 < 8:
                expected[t] += 5.0 * xv[t + 4]
        np.testing.assert_allclose(y[0, 0, 0], expected, rtol=1e-6)

    def test_no_padding_empty_output_rejected(self):
        x = np.zeros((1, 1, 1, 8), dtype=np.float32)
        w = np.zeros((1, 1, 1, 3), dtype=np.float32)
        spec = ConvSpec(1, 1, (1, 3), (1, 4))     # span 9 > 8, no padding
        with pytest.raises(ShapeError, match="time axis"):
            conv2d_forward(x, w, spec)

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("dilation", [(1, 1), (2, 2)])
    def test_matches_nested_loop_oracle(self, rng, groups, dilation):
        spec = ConvSpec(4, 4, (3, 3), dilation, groups, pad=(2, 2, 2, 2))
        x = rand(rng, (2, 4, 6, 6))
        w = rand(rng, spec.weight_shape)
        ref = conv2d_reference(x, w, dilation=dilation, groups=groups, pad=(2, 2, 2, 2))
        y, _ = conv2d_forward(x, w, spec)
        scale = max(np.abs(ref).max(), 1e-9)
        assert np.abs(y.astype(np.float64) - ref).max() / scale < 1e-5

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(1, 2, 4, 5), (2, 8, 8, 8)])
    def test_groups1_oracle_sweep(self, rng, dilation, shape):
        pad = 2 * dilation
        spec = ConvSpec(shape[1], 4, (3, 3), (dilation, dilation),
                        pad=(pad, pad, pad, pad))
        x = rand(rng, shape)
        w = rand(rng, spec.weight_shape)
        ref = conv2d_reference(x, w, dilation=spec.dilation, pad=spec.pad)
        y, _ = conv2d_forward(x, w, spec)
        scale = max(np.abs(ref).max(), 1e-9)
        assert np.abs(y.astype(np.float64) - ref).max() / scale < 1e-5

    def test_depthwise_equals_per_channel_conv(self, rng):
        spec = ConvSpec(5, 5, (3, 3), (2, 1), groups=5, pad=(2, 2, 1, 1))
        x = rand(rng, (2, 5, 6, 7))
        w = rand(rng, spec.weight_shape)
        y, _ = conv2d_forward(x, w, spec)
        for c in range(5):
            single = ConvSpec(1, 1, (3, 3), (2, 1), pad=(2, 2, 1, 1))
            yc, _ = conv2d_forward(x[:, c:c + 1], w[c:c + 1], single)
            np.testing.assert_allclose(y[:, c:c + 1], yc, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("groups,dilation", [(1, (1, 1)), (2, (2, 3)), (4, (1, 4))])
    def test_paths_agree(self, rng, groups, dilation):
        # the kernel against the nested-loop oracle on grouped, dilated,
        # asymmetrically padded specs
        pad = (dilation[0] * 2, dilation[0] * 2, dilation[1], dilation[1] * 3)
        spec = ConvSpec(4, 8, (3, 3), dilation, groups, pad=pad)
        x = rand(rng, (2, 4, 7, 9))
        w = rand(rng, spec.weight_shape)
        ref = conv2d_reference(x, w, dilation=dilation, groups=groups, pad=pad)
        y, _ = conv2d_forward(x, w, spec)
        scale = max(np.abs(ref).max(), 1e-9)
        assert np.abs(y.astype(np.float64) - ref).max() / scale < 1e-5

    def test_column_path_extent_independent(self, rng):
        # every output frame of a batch call equals, bitwise, a one-frame call
        # on that frame's zero-padded window: what streaming computes. One
        # matmul over (C, F*T) breaks this at some freq extents, 1 and 17
        # among them, so they are tested alongside the full 256.
        for n_f in (1, 17, 256):
            k_f, d_f = (1, 1) if n_f == 1 else (3, 2)
            specs = [ConvSpec(16, 64, (1, 1)), ConvSpec(64, 16, (1, 1)),
                     ConvSpec(8, 8, (k_f, 3), (d_f, 2), pad=(d_f, d_f, 4, 0)),
                     ConvSpec(8, 8, (k_f, 3), (d_f, 2), groups=2, pad=(d_f, d_f, 2, 2)),
                     ConvSpec(8, 8, (k_f, 3), (d_f, 2), groups=8, pad=(d_f, d_f, 3, 1))]
            for spec in specs:
                x = rand(rng, (2, spec.in_channels, n_f, 9))
                w = rand(rng, spec.weight_shape)
                full, _ = conv2d_forward(x, w, spec)
                lf, rf, lt, rt = spec.pad
                xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (lt, rt)))
                one = replace(spec, pad=(lf, rf, 0, 0))
                span = spec.span()[1]
                for t in range(full.shape[3]):
                    frame, _ = conv2d_forward(xp[..., t:t + span], w, one)
                    np.testing.assert_array_equal(frame[..., 0], full[..., t],
                                                  err_msg=f"{spec}, F={n_f}, t={t}")

    def test_channel_mismatch_names_axis(self, rng):
        spec = ConvSpec(4, 4, (1, 1))
        with pytest.raises(ShapeError, match="channel axis"):
            conv2d_forward(rand(rng, (1, 3, 2, 2)), np.zeros(spec.weight_shape, np.float32),
                           spec)

    def test_bias_added_per_channel(self, rng):
        spec = ConvSpec(2, 3, (1, 1), has_bias=True)
        x = np.zeros((1, 2, 2, 2), dtype=np.float32)
        w = np.zeros(spec.weight_shape, dtype=np.float32)
        bias = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        y, _ = conv2d_forward(x, w, spec, bias=bias)
        np.testing.assert_array_equal(y[0, :, 0, 0], bias)

    def test_finite_on_finite_inputs(self, rng):
        for trial in range(5):
            spec = ConvSpec(3, 6, (3, 3), (2, 2), 3, pad=(4, 4, 4, 4))
            x = rand(rng, (2, 3, 6, 6), -2, 2)
            w = rand(rng, spec.weight_shape, -2, 2)
            y, _ = conv2d_forward(x, w, spec)
            assert np.isfinite(y).all()


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        spec = ConvSpec(2, 3, (3, 3), pad=(1, 1, 1, 1), has_bias=True)
        x = rand(rng, (1, 2, 4, 4))
        w = rand(rng, spec.weight_shape)
        y, ctx = conv2d_forward(x, w, spec, bias=np.zeros(3, np.float32))
        gx, gw, gb = conv2d_backward(np.zeros_like(y), ctx)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_pointwise_weight_grad_is_correlation(self, rng):
        # 1x1x1x3 input, 1x1 kernel: grad_w = sum_t grad_out[t] * input[t]
        spec = ConvSpec(1, 1, (1, 1))
        x = rand(rng, (1, 1, 1, 3))
        w = rand(rng, spec.weight_shape)
        y, ctx = conv2d_forward(x, w, spec)
        go = rand(rng, y.shape)
        _, gw, _ = conv2d_backward(go, ctx)
        np.testing.assert_allclose(gw[0, 0, 0, 0], (go * x).sum(), rtol=1e-5)

    @pytest.mark.parametrize(
        "cin,cout,groups,dilation,pad,bias",
        [
            (2, 4, 1, (1, 1), (1, 1, 1, 1), False),
            (2, 4, 2, (1, 2), (2, 2, 2, 2), True),
            (4, 4, 4, (2, 2), (2, 2, 2, 2), False),   # depthwise
        ])
    def test_grads_match_float64_oracle(self, rng, cin, cout, groups, dilation, pad, bias):
        spec = ConvSpec(cin, cout, (3, 3), dilation, groups, pad, has_bias=bias)
        x = rand(rng, (2, cin, 5, 6))
        w = rand(rng, spec.weight_shape, -0.5, 0.5)
        b = rand(rng, (cout,)) if bias else None
        y, ctx = conv2d_forward(x, w, spec, bias=b)
        co = rand(rng, y.shape)
        gx, gw, gb = conv2d_backward(co, ctx)

        x64 = x.astype(np.float64)
        w64 = w.astype(np.float64)

        def loss():
            out = conv2d_f64(x64, w64, dilation=dilation, groups=groups, pad=pad)
            if bias:
                out = out + b.astype(np.float64)[None, :, None, None]
            return (out * co).sum()

        ngx = numeric_gradient(loss, x64, step=1e-3)
        ngw = numeric_gradient(loss, w64, step=1e-3)
        assert np.abs(gx - ngx).max() < 1e-3
        assert np.abs(gw - ngw).max() < 1e-3
        if bias:
            np.testing.assert_allclose(gb, co.sum(axis=(0, 2, 3)), rtol=1e-5)

    def test_mismatched_context_rejected(self, rng):
        spec = ConvSpec(2, 2, (1, 1))
        x = rand(rng, (1, 2, 3, 3))
        _, ctx = conv2d_forward(x, rand(rng, spec.weight_shape), spec)
        with pytest.raises(ShapeError, match="grad_out"):
            conv2d_backward(np.zeros((1, 2, 3, 4), np.float32), ctx)


class TestBatchNorm:
    def test_inference_identity(self, rng):
        bn = BatchNorm(3)
        x = rand(rng, (2, 3, 4, 4))
        y = bn.forward(x, training=False)
        np.testing.assert_allclose(y, x, rtol=1e-4, atol=1e-5)

    def test_train_constant_input_gives_beta(self, rng):
        bn = BatchNorm(2)
        bn.beta.data[:] = [0.5, -1.5]
        x = np.full((2, 2, 3, 3), 7.0, dtype=np.float32)
        y = bn.forward(x, training=True)
        np.testing.assert_allclose(y[:, 0], 0.5, atol=1e-5)
        np.testing.assert_allclose(y[:, 1], -1.5, atol=1e-5)
        assert np.isfinite(y).all()

    def test_train_normalizes_to_gamma_beta(self, rng):
        bn = BatchNorm(3)
        bn.gamma.data[:] = [1.0, 2.0, 0.5]
        bn.beta.data[:] = [0.0, -1.0, 3.0]
        x = rand(rng, (4, 3, 8, 8), -3, 3)
        y = bn.forward(x, training=True)
        for c in range(3):
            assert abs(y[:, c].mean() - bn.beta.data[c]) < 1e-4
            assert abs(y[:, c].std() - bn.gamma.data[c]) < 1e-4

    def test_running_stats_update_and_freeze(self, rng):
        bn = BatchNorm(2, momentum=0.1)
        x = rand(rng, (2, 2, 4, 4), 1.0, 3.0)
        bn.forward(x, training=True)
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(bn.running_mean, expected_mean, rtol=1e-5)
        frozen = bn.running_mean.copy()
        bn.forward(x, training=False)
        np.testing.assert_array_equal(bn.running_mean, frozen)

    def test_inference_is_affine(self, rng):
        bn = BatchNorm(2)
        bn.running_mean[:] = [0.3, -0.2]
        bn.running_var[:] = [1.5, 0.7]
        bn.gamma.data[:] = [2.0, 0.5]
        bn.beta.data[:] = [1.0, -1.0]
        x1, x2 = rand(rng, (1, 2, 3, 3)), rand(rng, (1, 2, 3, 3))
        y1 = bn.forward(x1, training=False)
        y2 = bn.forward(x2, training=False)
        mid = bn.forward((0.5 * (x1 + x2)).astype(np.float32), training=False)
        np.testing.assert_allclose(mid, 0.5 * (y1 + y2), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_matches_float64_oracle(self, rng, training):
        bn = BatchNorm(3)
        bn.gamma.data[:] = rand(rng, (3,), 0.5, 2.0)
        bn.beta.data[:] = rand(rng, (3,), -1.0, 1.0)
        bn.running_mean[:] = rand(rng, (3,), -0.5, 0.5)
        bn.running_var[:] = rand(rng, (3,), 0.5, 2.0)
        x = rand(rng, (2, 3, 3, 4), -2, 2)
        co = rand(rng, x.shape)
        rm, rv = bn.running_mean.copy(), bn.running_var.copy()
        bn.forward(x, training=training, record=True)
        bn.running_mean, bn.running_var = rm, rv
        gx = bn.backward(co)

        x64 = x.astype(np.float64)
        g64 = bn.gamma.data.astype(np.float64)
        b64 = bn.beta.data.astype(np.float64)

        def loss():
            if training:
                out = bn_train_f64(x64, g64, b64)
            else:
                out = bn_inference_f64(x64, g64, b64, rm, rv)
            return (out * co).sum()

        assert np.abs(gx - numeric_gradient(loss, x64, step=1e-3)).max() < 1e-3
        assert np.abs(bn.gamma.grad - numeric_gradient(loss, g64, step=1e-3)).max() < 1e-3
        assert np.abs(bn.beta.grad - numeric_gradient(loss, b64, step=1e-3)).max() < 1e-3

    def test_zero_variance_guarded(self):
        bn = BatchNorm(1)
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        y = bn.forward(x, training=True)
        assert np.isfinite(y).all()


class TestPReLU:
    def test_alpha_one_is_identity(self, rng):
        act = PReLU()
        act.alpha.data[:] = 1.0
        x = rand(rng, (1, 2, 3, 3), -2, 2)
        np.testing.assert_array_equal(act.forward(x), x)

    def test_alpha_zero_is_relu(self):
        act = PReLU()
        act.alpha.data[:] = 0.0
        x = np.array([-1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 2)
        np.testing.assert_array_equal(act.forward(x)[0, 0, 0], [0.0, 2.0])

    def test_alpha_gradient_on_negative_inputs(self, rng):
        act = PReLU()
        x = rand(rng, (1, 2, 3, 4), -2.0, -0.5)       # strictly negative: no kink nearby
        co = rand(rng, x.shape)
        act.forward(x, record=True)
        act.backward(co)
        a64 = act.alpha.data.astype(np.float64)

        def loss():
            return (prelu_f64(x.astype(np.float64), a64) * co).sum()

        num = numeric_gradient(loss, a64, step=1e-3)
        assert abs(act.alpha.grad[0] - num[0]) / max(abs(num[0]), 1e-8) < 1e-3

    def test_input_gradient_kinks_avoided(self, rng):
        act = PReLU()
        x = rand(rng, (2, 2, 3, 3), -2, 2)
        x = np.where(np.abs(x) < 1e-2, np.float32(5e-2), x).astype(np.float32)
        co = rand(rng, x.shape)
        act.forward(x, record=True)
        gx = act.backward(co)
        x64 = x.astype(np.float64)

        def loss():
            return (prelu_f64(x64, act.alpha.data.astype(np.float64)) * co).sum()

        assert np.abs(gx - numeric_gradient(loss, x64, step=1e-3)).max() < 1e-3

    def test_per_channel_mode(self, rng):
        act = PReLU(channels=3, shared=False)
        act.alpha.data[:] = [0.0, 0.5, 1.0]
        x = -np.ones((1, 3, 2, 2), dtype=np.float32)
        y = act.forward(x)
        np.testing.assert_allclose(y[0, :, 0, 0], [0.0, -0.5, -1.0])


class TestConcatAndResidual:
    def test_single_input_identity(self, rng):
        x = rand(rng, (1, 4, 3, 3))
        assert concat_channels([x]) is x

    def test_two_inputs_slices(self, rng):
        a, b = rand(rng, (2, 16, 4, 4)), rand(rng, (2, 16, 4, 4))
        y = concat_channels([a, b])
        assert y.shape[1] == 32
        np.testing.assert_array_equal(y[:, :16], a)
        np.testing.assert_array_equal(y[:, 16:], b)

    def test_concat_then_split_identity(self, rng):
        parts = [rand(rng, (1, c, 2, 3)) for c in (2, 5, 1)]
        back = split_channels(concat_channels(parts), [2, 5, 1])
        for orig, rec in zip(parts, back):
            np.testing.assert_array_equal(orig, rec)

    def test_spatial_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match="concat"):
            concat_channels([rand(rng, (1, 2, 3, 3)), rand(rng, (1, 2, 3, 4))])

    def test_gradient_routing(self, rng):
        # grad of concat routes the matching channel slice to each input
        a64 = rng.uniform(-1, 1, (1, 2, 2, 2))
        b64 = rng.uniform(-1, 1, (1, 3, 2, 2))
        co = rng.uniform(-1, 1, (1, 5, 2, 2))

        def loss():
            return (np.concatenate([a64, b64], axis=1) * co).sum()

        ga, gb = split_channels(co.astype(np.float32), [2, 3])
        assert np.abs(ga - numeric_gradient(loss, a64, step=1e-3)).max() < 1e-3
        assert np.abs(gb - numeric_gradient(loss, b64, step=1e-3)).max() < 1e-3

    def test_residual(self, rng):
        a = rand(rng, (1, 2, 3, 3))
        np.testing.assert_array_equal(add_residual(a, np.zeros_like(a)), a)
        np.testing.assert_array_equal(add_residual(a, -a), np.zeros_like(a))
        with pytest.raises(ShapeError, match="residual"):
            add_residual(a, rand(rng, (1, 2, 3, 4)))


class TestGradCheckOp:
    def test_pointwise_conv_under_1e4(self, rng):
        spec = ConvSpec(3, 5, (1, 1))
        x = rand(rng, (1, 3, 4, 6))
        w = rand(rng, spec.weight_shape, -0.5, 0.5)
        y0, _ = conv2d_forward(x, w, spec)
        co = rand(rng, y0.shape)

        def f():
            y, ctx = conv2d_forward(x, w, spec)
            _, gw, _ = conv2d_backward(co, ctx)
            return float((y.astype(np.float64) * co).sum()), {"w": gw}

        assert grad_check(f, {"w": w}, step=1e-3) < 1e-4

    def test_full_dilated_block_under_1e3(self, rng):
        # analytic float32 grads vs a float64 replica of the block, central
        # differences at the contract step. Slope-1 activations keep the
        # function kink-free (slope switching is covered by the PReLU tests);
        # inference mode keeps every gradient direction well-conditioned.
        from tfcn.config import tfcn_config
        from tfcn.model import build_model
        from tfcn.engine.gradcheck import relative_error

        cfg = tfcn_config(repeated_blocks=1, dilated_blocks_per_repeat=1, freq_bins=16)
        model = build_model(cfg, seed=3)
        blk = model.blocks[0][0]
        for p in blk.parameters():
            if p.name.endswith(".alpha"):
                p.data[:] = 1.0
        for bn in (blk.bn0, blk.bn1):
            bn.running_mean[:] = rand(rng, (bn.channels,), -0.3, 0.3)
            bn.running_var[:] = rand(rng, (bn.channels,), 0.5, 1.5)
        x = rand(rng, (1, 16, 16, 16))
        co = rand(rng, (1, 16, 16, 16))

        for p in blk.parameters():
            p.zero_grad()
        out = blk.forward(x, x, training=False, record=True)
        blk.backward(co)
        grads = {p.name: p.grad for p in blk.parameters()}

        p64 = {p.name: p.data.astype(np.float64) for p in blk.parameters()}
        plan_pad = blk.conv1.spec

        def block_f64():
            h = conv2d_f64(x, p64["rb0.db0.conv0.weight"])
            h = prelu_f64(h, p64["rb0.db0.act0.alpha"])
            h = bn_inference_f64(h, p64["rb0.db0.bn0.gamma"], p64["rb0.db0.bn0.beta"],
                                 blk.bn0.running_mean, blk.bn0.running_var)
            h = conv2d_f64(h, p64["rb0.db0.conv1.weight"], dilation=plan_pad.dilation,
                           groups=plan_pad.groups, pad=plan_pad.pad)
            h = prelu_f64(h, p64["rb0.db0.act1.alpha"])
            h = bn_inference_f64(h, p64["rb0.db0.bn1.gamma"], p64["rb0.db0.bn1.beta"],
                                 blk.bn1.running_mean, blk.bn1.running_var)
            h = conv2d_f64(h, p64["rb0.db0.conv2.weight"])
            return ((h + x) * co).sum()

        srng = np.random.default_rng(1)
        worst = 0.0
        for name, arr in p64.items():
            flat = arr.reshape(-1)
            analytic = grads[name].reshape(-1)
            count = min(6, flat.size)
            coords = (srng.choice(flat.size, size=count, replace=False)
                      if flat.size > count else range(flat.size))
            for i in coords:
                keep = flat[i]
                flat[i] = keep + 1e-3
                hi = block_f64()
                flat[i] = keep - 1e-3
                lo = block_f64()
                flat[i] = keep
                worst = max(worst, relative_error(analytic[i], (hi - lo) / 2e-3))
        assert worst < 1e-3

    def test_kink_avoidance_case(self, rng):
        act = PReLU()
        x = rand(rng, (1, 1, 4, 4), -2, 2)
        x = np.where(np.abs(x) < 1e-2, np.float32(1e-2), x).astype(np.float32)
        co = rand(rng, x.shape)

        def f():
            act.alpha.zero_grad()
            y = act.forward(x, record=True)
            loss = float((y.astype(np.float64) * co).sum())
            act.backward(co)
            return loss, {"alpha": act.alpha.grad}

        assert grad_check(f, {"alpha": act.alpha.data}, step=1e-3) < 1e-3

    def test_nonfinite_loss_reported(self):
        def f():
            return float("nan"), {}
        with pytest.raises(ValueError, match="non-finite"):
            grad_check(f, {}, step=1e-3)
