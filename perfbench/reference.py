"""Float64 recomputation of the enhancement pipeline and the training loss.

Written from the method's description, not from the program: the STFT
front end, the pad plan (causal, semi-causal greedy, non-causal), the block
wiring of the dense and plain variants, inference and training batch norm,
PReLU, the per-frame RMS loss and overlap-add synthesis. The only things
taken from the program are the config and the parameter values, looked up by
their checkpoint names.
"""

from __future__ import annotations

import numpy as np

from .inputs import FRAME_LEN, HOP

LPS_FLOOR = 1e-10
BN_EPS = 1e-5


# -- spectral front end ---------------------------------------------------------


def hann() -> np.ndarray:
    n = np.arange(FRAME_LEN)
    return 0.5 - 0.5 * np.cos(2 * np.pi * n / FRAME_LEN)


def stft(x: np.ndarray) -> np.ndarray:
    frames = (x.size - FRAME_LEN) // HOP + 1
    idx = np.arange(FRAME_LEN)[None, :] + HOP * np.arange(frames)[:, None]
    return np.fft.rfft(x[idx] * hann(), axis=1)


def lps(spec: np.ndarray) -> np.ndarray:
    return np.log(np.abs(spec[:, :-1]) ** 2 + LPS_FLOOR)


def istft(spec: np.ndarray) -> np.ndarray:
    frames = np.fft.irfft(spec, n=FRAME_LEN, axis=1)
    n = HOP * (spec.shape[0] - 1) + FRAME_LEN
    out, wsum = np.zeros(n), np.zeros(n)
    for t, frame in enumerate(frames):
        out[t * HOP:t * HOP + FRAME_LEN] += frame
        wsum[t * HOP:t * HOP + FRAME_LEN] += hann()
    return np.where(wsum > 1e-2, out / np.maximum(wsum, 1e-2), 0.0)


# -- network ----------------------------------------------------------------------


def conv_pads(cfg) -> dict[str, tuple[tuple[int, int], tuple[int, int, int, int]]]:
    """name -> (dilation, (left_f, right_f, left_t, right_t)) for the input
    conv and every dilated conv; 1x1 convs need no padding."""
    layers = [("input.conv", cfg.input_kernel, (1, 1))]
    for r in range(cfg.repeated_blocks):
        for n in range(cfg.dilated_blocks_per_repeat):
            d = cfg.dilation_base ** n
            layers.append((f"rb{r}.db{n}.conv1", cfg.dilated_kernel,
                           (d if cfg.dilated_kernel[0] > 1 else 1, d)))
    kind = cfg.causality.kind
    budget = cfg.causality.look_ahead_frames
    out = {}
    for name, (k_f, k_t), (d_f, d_t) in layers:
        pad_f, pad_t = (k_f - 1) * d_f, (k_t - 1) * d_t
        if kind == "non_causal":
            future = pad_t // 2
        elif kind == "causal":
            future = 0
        else:
            future = min(pad_t // 2, budget)
            budget -= future
        out[name] = ((d_f, d_t), (pad_f // 2, pad_f // 2, pad_t - future, future))
    return out


def conv(x, w, dilation=(1, 1), pad=(0, 0, 0, 0), depthwise=False):
    """Zero-padded dilated cross-correlation. Each tap adds its weight times
    the input over the part of the output where the tap reads inside the
    input; where it reads padding it adds nothing, so no padded copy is made."""
    lf, rf, lt, rt = pad
    b, _, n_f, n_t = x.shape
    _, _, k_f, k_t = w.shape
    d_f, d_t = dilation
    f_out = n_f + lf + rf - (k_f - 1) * d_f
    t_out = n_t + lt + rt - (k_t - 1) * d_t
    y = np.zeros((b, w.shape[0], f_out, t_out))
    taps = []
    for i in range(k_f):
        for j in range(k_t):
            # output o reads input o + off on each axis
            off_f, off_t = i * d_f - lf, j * d_t - lt
            of0, of1 = max(0, -off_f), min(f_out, n_f - off_f)
            ot0, ot1 = max(0, -off_t), min(t_out, n_t - off_t)
            if of0 < of1 and ot0 < ot1:
                taps.append((i, j, (slice(of0, of1), slice(ot0, ot1)),
                             (slice(of0 + off_f, of1 + off_f), slice(ot0 + off_t, ot1 + off_t))))
    if not depthwise:
        for i, j, (yf, yt), (xf, xt) in taps:
            y[:, :, yf, yt] += np.einsum("oc,bcft->boft", w[:, :, i, j], x[:, :, xf, xt],
                                         optimize=True)
        return y
    # channel slabs of about 1 MB keep the depth-wise tap loop in cache
    step = max(1, (1 << 17) // x[:, 0].size)
    for c in range(0, w.shape[0], step):
        xs, ys = x[:, c:c + step], y[:, c:c + step]
        for i, j, (yf, yt), (xf, xt) in taps:
            ys[:, :, yf, yt] += w[c:c + step, 0, i, j][None, :, None, None] * xs[:, :, xf, xt]
    return y


def prelu(x, alpha):
    a = alpha.reshape(1, -1, 1, 1)
    y = a * x
    # with every slope <= 1, max(x, a*x) picks x above zero and a*x below
    return np.maximum(x, y, out=y) if (a <= 1.0).all() else np.where(x >= 0.0, x, y)


def batch_norm(x, p, name, training):
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
    else:
        mean, var = p[f"{name}.running_mean"], p[f"{name}.running_var"]
    scale = p[f"{name}.gamma"] / np.sqrt(var + BN_EPS)
    y = x * scale[None, :, None, None]
    y += (p[f"{name}.beta"] - mean * scale)[None, :, None, None]
    return y


def model_arrays(model) -> dict[str, np.ndarray]:
    """Parameters and BN buffers as float64 copies, keyed by checkpoint name."""
    out = {p.name: p.data.astype(np.float64) for p in model.parameters()}
    out.update({name: buf.astype(np.float64) for name, buf in model.named_buffers()})
    return out


def network(cfg, p, x, training=False):
    """(B, 1, F, T) normalized LPS -> network output, float64.

    Dense-inter: repeated block r reads the input-module output and every
    earlier repeated block's output. Dense-intra: dilated block n also reads
    the outputs of blocks 0..n-1 of its own repeated block. The residual of a
    block is always the previous block's output alone.
    """
    pads = conv_pads(cfg)
    h = batch_norm(np.asarray(x, dtype=np.float64), p, "input.bn", training)
    d, pad = pads["input.conv"]
    h = conv(h, p["input.conv.weight"], d, pad)
    rb_outputs = [h]
    primary = h
    for r in range(cfg.repeated_blocks):
        rb_inputs = list(rb_outputs) if cfg.dense_inter else [primary]
        block_outputs = []
        for n in range(cfg.dilated_blocks_per_repeat):
            name = f"rb{r}.db{n}"
            if cfg.dense_intra:
                sources = rb_inputs + block_outputs
            else:
                sources = rb_inputs if n == 0 else [primary]
            g = np.concatenate(sources, axis=1)
            g = conv(g, p[f"{name}.conv0.weight"])
            g = batch_norm(prelu(g, p[f"{name}.act0.alpha"]), p, f"{name}.bn0", training)
            d, pad = pads[f"{name}.conv1"]
            g = conv(g, p[f"{name}.conv1.weight"], d, pad, depthwise=cfg.depthwise_dilated)
            g = batch_norm(prelu(g, p[f"{name}.act1.alpha"]), p, f"{name}.bn1", training)
            primary = conv(g, p[f"{name}.conv2.weight"]) + primary
            block_outputs.append(primary)
        rb_outputs.append(primary)
    return prelu(conv(primary, p["output.conv.weight"]), p["output.act.alpha"])


# -- end to end -------------------------------------------------------------------


def enhance(cfg, p, mean, std, samples) -> np.ndarray:
    """Noisy waveform -> enhanced waveform, peak-normalized above full scale."""
    spec = stft(samples)
    x = (lps(spec) - mean) / std
    est = network(cfg, p, x.T[None, None])[0, 0].T * std + mean
    full = np.zeros(spec.shape, dtype=np.complex128)
    full[:, :-1] = np.exp(est / 2.0) * np.exp(1j * np.angle(spec[:, :-1]))
    out = istft(full)
    peak = np.abs(out).max()
    return out * (0.999 / peak) if peak > 1.0 else out


def frame_rms_loss(clean_lps, est_lps) -> float:
    """Mean over frames of the RMS error across bins; (T, F) arrays."""
    diff = np.asarray(est_lps, dtype=np.float64) - np.asarray(clean_lps, dtype=np.float64)
    return float(np.mean(np.sqrt(np.mean(diff * diff, axis=1))))


def training_loss(cfg, p, mean, std, noisy, clean) -> float:
    """Loss of one training-mode forward on one segment, from waveforms."""
    x = (lps(stft(noisy)) - mean) / std
    est = network(cfg, p, x.T[None, None], training=True)[0, 0].T * std + mean
    return frame_rms_loss(lps(stft(clean)), est)
