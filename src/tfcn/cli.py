"""Command-line surface.

Verbs: synth, stats, train, enhance, report, probe, eval. Exit codes:
0 success, 1 usage/config error, 2 missing resource, 3 contract violation
(e.g. a causality leak).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .audio import TARGET_RATE, AudioError, load_audio, write_wav
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    CausalityMode,
    ConfigError,
    ModelConfig,
    RunConfig,
    TrainConfig,
    tcn_lps_config,
    tfcn_config,
    tfcn_d_config,
)
from .dsp import compute_norm_stats, load_normalizer, lps, save_normalizer, stft
from .enhance import enhance_waveform, segmental_snr
from .model import build_model, param_count, probe_causality
from .padding import max_look_ahead, plan_padding, receptive_field
from .synth import generate_corpus, load_manifest, load_pairs
from .training import TrainingError, frame_rms_loss, train

LEAK_THRESHOLD = 1e-6
FRAME_MS = 16.0          # 256-sample hop at 16 kHz


class MissingResource(Exception):
    pass


class ContractViolation(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingResource(f"{what} not found: {p}")
    return p


def _parse_causality(text: str) -> CausalityMode:
    if text == "non_causal":
        return CausalityMode.non_causal()
    if text == "causal":
        return CausalityMode.causal()
    if text.startswith("semi:"):
        return CausalityMode.semi_causal(int(text.split(":", 1)[1]))
    raise ConfigError(f"causality must be non_causal, causal or semi:<frames>, got {text!r}")


def _model_config_from_args(args) -> ModelConfig:
    if args.config is not None:
        cfg_path = _require(args.config, "run config")
        run = RunConfig.from_dict(json.loads(cfg_path.read_text()))
        model_cfg = run.model
        if args.causality is not None:
            model_cfg = model_cfg.with_causality(_parse_causality(args.causality))
        return model_cfg
    preset = {"tfcn": tfcn_config, "tfcn_d": tfcn_d_config, "tcn_lps": tcn_lps_config}[args.variant]
    kwargs = {}
    if args.repeats is not None:
        kwargs["repeated_blocks"] = args.repeats
    if args.blocks_per_repeat is not None:
        kwargs["dilated_blocks_per_repeat"] = args.blocks_per_repeat
    causality = _parse_causality(args.causality) if args.causality else None
    return preset(causality=causality, **kwargs)


# -- commands ---------------------------------------------------------------------


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    manifest = generate_corpus(out_dir, args.count, seed=args.seed,
                               duration_range=(args.min_duration, args.max_duration))
    print(f"wrote {args.count} pairs under {out_dir} (manifest: {manifest})")
    return 0


def cmd_stats(args) -> int:
    manifest = load_manifest(_require(args.manifest, "corpus manifest"))
    if not manifest.pairs:
        raise ConfigError(f"{args.manifest}: manifest lists no pairs")
    missing = [str(p.noisy_path) for p in manifest.pairs if not p.noisy_path.exists()]
    if missing:
        raise MissingResource("unreadable corpus files: " + ", ".join(missing))
    norm = compute_norm_stats(
        lps(stft(load_audio(p.noisy_path))) for p in manifest.pairs)
    save_normalizer(args.out, norm)
    print(f"wrote per-bin statistics for {len(manifest.pairs)} utterances to {args.out}")
    return 0


def _split_pairs(pairs, val_fraction_every: int = 5):
    train_pairs, val_pairs = [], []
    for i, pair in enumerate(pairs):
        (val_pairs if i % val_fraction_every == val_fraction_every - 1 else train_pairs).append(pair)
    if not val_pairs:
        val_pairs = [train_pairs.pop()]
    if not train_pairs:
        raise ConfigError("corpus too small to split into train and validation")
    return train_pairs, val_pairs


def cmd_train(args) -> int:
    cfg_path = _require(args.config, "run config")
    run = RunConfig.from_dict(json.loads(cfg_path.read_text()))
    if args.seed is not None:
        run = RunConfig.from_dict({**run.to_dict(), "seed": args.seed})
    out_dir = Path(args.out_dir or run.paths.out_dir)

    stats_path = Path(run.paths.stats)
    if not stats_path.exists():
        raise MissingResource(f"statistics file not found: {stats_path}")
    norm = load_normalizer(stats_path)

    manifest = load_manifest(_require(run.paths.train_manifest, "train manifest"))
    all_pairs = load_pairs(manifest)
    names = [str(p.noisy_path) for p in manifest.pairs]
    if run.paths.val_manifest:
        val_manifest = load_manifest(_require(run.paths.val_manifest, "validation manifest"))
        train_pairs, val_pairs = all_pairs, load_pairs(val_manifest)
    else:
        train_pairs, val_pairs = _split_pairs(all_pairs)

    resume_state = resume_opt = None
    if args.resume:
        last = _require(out_dir / "last.ckpt", "resume checkpoint")
        loaded = load_checkpoint(last)
        if loaded.model.config != run.model:
            raise ConfigError("checkpoint architecture differs from the run config")
        model = loaded.model
        resume_state = loaded.training_state
        resume_opt = loaded.opt_arrays
        if resume_state is None:
            raise ConfigError(f"{last} has no training state to resume from")
    else:
        model = build_model(run.model, seed=run.seed)

    train_cfg = run.train
    if args.seed is not None:
        train_cfg = TrainConfig.from_dict({**run.train.to_dict(), "seed": args.seed})
    result = train(model, train_pairs, val_pairs, norm, train_cfg, run.stft,
                   out_dir=out_dir, resume_state=resume_state, resume_opt=resume_opt,
                   names=None if run.paths.val_manifest else names)
    last_row = result.history[-1]
    print(f"trained {last_row.epoch} epochs; best validation loss "
          f"{result.best_val_loss:.6f}; checkpoints in {out_dir}")
    return 0


def cmd_enhance(args) -> int:
    ckpt = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    if ckpt.normalizer is None:
        raise ConfigError(f"{args.checkpoint} carries no normalization statistics")
    samples = load_audio(_require(args.infile, "input WAV"))
    result = enhance_waveform(ckpt.model, ckpt.normalizer, samples,
                              streaming=args.streaming)
    write_wav(args.outfile, result.samples)
    mode = "streaming" if args.streaming else "batch"
    extra = " (peak-normalized)" if result.peak_normalized else ""
    rtf = result.compute_s / (samples.size / TARGET_RATE)
    print(f"enhanced {result.frames} frames [{mode}] -> {args.outfile}{extra} rtf {rtf:.3f}")
    return 0


def cmd_report(args) -> int:
    cfg = _model_config_from_args(args)
    count = param_count(cfg)
    past, future, freq_span = receptive_field(cfg)
    plan = plan_padding(cfg)
    payload = {
        "variant": cfg.variant,
        "causality": cfg.causality.to_dict(),
        "param_count": count,
        "receptive_field": {
            "past_frames": past, "future_frames": future,
            "past_ms": past * FRAME_MS, "future_ms": future * FRAME_MS,
            "freq_span_bins": freq_span,
        },
        "max_look_ahead_frames": max_look_ahead(cfg),
        "pad_plan": [
            {"layer": e.name, "kernel": list(e.kernel), "dilation": list(e.dilation),
             "pad_t": [e.left_t, e.right_t], "pad_f": [e.left_f, e.right_f],
             "right_clip": e.right_clip}
            for e in plan.entries],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"variant:          {cfg.variant} ({cfg.causality.kind})")
    print(f"parameters:       {count:,}")
    print(f"receptive field:  past {past} frames ({past * FRAME_MS:.0f} ms), "
          f"future {future} frames ({future * FRAME_MS:.0f} ms), "
          f"{freq_span} bins")
    print(f"max look-ahead:   {max_look_ahead(cfg)} frames")
    print("pad plan (temporal left/right per conv):")
    for e in plan.entries:
        if e.total_t or args.verbose:
            print(f"  {e.name:<18} k={e.kernel} d={e.dilation} "
                  f"pad_t=({e.left_t},{e.right_t}) pad_f=({e.left_f},{e.right_f})")
    return 0


def cmd_probe(args) -> int:
    ckpt = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    model = ckpt.model
    lead = args.look_ahead if args.look_ahead is not None else model.look_ahead_frames
    frames = args.frames or max(48, lead + 16)
    leak = probe_causality(model, frames=frames, trials=args.trials,
                           look_ahead=lead, seed=args.seed)
    print(f"max leak past look-ahead {lead}: {leak:.3e} "
          f"({'ok' if leak <= LEAK_THRESHOLD else 'VIOLATION'})")
    if leak > LEAK_THRESHOLD:
        raise ContractViolation(
            f"future frames leak into past outputs (leak {leak:.3e} > {LEAK_THRESHOLD})")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    if ckpt.normalizer is None:
        raise ConfigError(f"{args.checkpoint} carries no normalization statistics")
    manifest = load_manifest(_require(args.manifest, "corpus manifest"))
    rows = []
    for pair in manifest.pairs:
        noisy = load_audio(pair.noisy_path)
        clean = load_audio(pair.clean_path)
        result = enhance_waveform(ckpt.model, ckpt.normalizer, noisy)
        n = result.samples.size
        est_lps = lps(stft(result.samples))
        clean_lps = lps(stft(clean[:n]))
        loss = frame_rms_loss(clean_lps, est_lps)
        snr_before = segmental_snr(clean[:n], noisy[:n])
        snr_after = segmental_snr(clean[:n], result.samples)
        rows.append({"noisy": str(pair.noisy_path), "lps_loss": loss,
                     "seg_snr_before_db": snr_before, "seg_snr_after_db": snr_after,
                     "seg_snr_gain_db": snr_after - snr_before})
    summary = {
        "pairs": len(rows),
        "mean_lps_loss": float(np.mean([r["lps_loss"] for r in rows])) if rows else None,
        "mean_seg_snr_gain_db": float(np.mean([r["seg_snr_gain_db"] for r in rows]))
        if rows else None,
        "per_pair": rows,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for r in rows:
            print(f"{Path(r['noisy']).name}: loss {r['lps_loss']:.4f}, "
                  f"segSNR {r['seg_snr_before_db']:.2f} -> {r['seg_snr_after_db']:.2f} dB "
                  f"({r['seg_snr_gain_db']:+.2f})")
        if rows:
            print(f"mean loss {summary['mean_lps_loss']:.4f}, "
                  f"mean segSNR gain {summary['mean_seg_snr_gain_db']:+.2f} dB")
        else:
            print("manifest lists no pairs")
    return 0


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tfcn", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-duration", type=float, default=2.0)
    p.add_argument("--max-duration", type=float, default=6.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="compute per-bin normalization statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--streaming", action="store_true")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("report", help="parameter count, receptive field, pad plan")
    p.add_argument("--config", default=None)
    p.add_argument("--variant", choices=("tfcn", "tfcn_d", "tcn_lps"), default="tfcn")
    p.add_argument("--causality", default=None,
                   help="non_causal, causal or semi:<frames>")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--blocks-per-repeat", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("probe", help="verify the causal contract of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--look-ahead", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("eval", help="loss and segmental SNR gain over a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (MissingResource, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CheckpointError, AudioError, TrainingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
