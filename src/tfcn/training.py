"""Loss, Adam optimizer, learning-rate/early-stop schedule, segment batching
and the training loop.

The loss is the frame-wise RMS of the log-power-spectrum error, averaged over
frames (and over batch items). Training runs on fixed 2-second segments;
validation runs on intact utterances in inference mode, mirroring deployment.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import StftConfig, TrainConfig
from .dsp import Normalizer, lps, stft
from .engine import Parameter
from .fileio import replace_file

log = logging.getLogger(__name__)

RMS_FLOOR = 1e-8


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss); the last saved checkpoint survives."""


# -- loss ----------------------------------------------------------------------


def _as_batched(target, estimate, frame_mask):
    target = np.asarray(target)
    estimate = np.asarray(estimate)
    if target.shape != estimate.shape:
        raise ValueError(f"target shape {target.shape} != estimate shape {estimate.shape}")
    if target.ndim == 2:
        target = target[None]
        estimate = estimate[None]
        if frame_mask is not None:
            frame_mask = np.asarray(frame_mask)[None]
    elif target.ndim != 3:
        raise ValueError("expected (T, F) or (B, T, F) arrays")
    if frame_mask is None:
        frame_mask = np.ones(target.shape[:2], dtype=bool)
    else:
        frame_mask = np.asarray(frame_mask, dtype=bool)
        if frame_mask.shape != target.shape[:2]:
            raise ValueError(f"mask shape {frame_mask.shape} != frames {target.shape[:2]}")
    return target, estimate, frame_mask


def frame_rms_loss(target, estimate, frame_mask=None) -> float:
    """Mean over (valid) frames of the per-frame RMS error across bins,
    then mean over batch items."""
    target, estimate, mask = _as_batched(target, estimate, frame_mask)
    diff = (estimate.astype(np.float64) - target.astype(np.float64))
    rms = np.sqrt(np.mean(diff * diff, axis=2))
    valid = np.maximum(mask.sum(axis=1), 1)
    per_item = (rms * mask).sum(axis=1) / valid
    return float(per_item.mean())


def frame_rms_loss_grad(target, estimate, frame_mask=None) -> np.ndarray:
    """d(loss)/d(estimate): (est - tgt) / (T * F * RMS_frame), RMS floored,
    zero on masked frames. Shape follows the inputs."""
    squeeze = np.asarray(target).ndim == 2
    target, estimate, mask = _as_batched(target, estimate, frame_mask)
    b_sz, _, n_f = target.shape
    diff = estimate.astype(np.float64) - target.astype(np.float64)
    rms = np.sqrt(np.mean(diff * diff, axis=2))
    rms = np.maximum(rms, RMS_FLOOR)
    valid = np.maximum(mask.sum(axis=1), 1).astype(np.float64)
    scale = mask / (valid[:, None] * n_f * rms) / b_sz
    grad = (diff * scale[:, :, None]).astype(np.float32)
    return grad[0] if squeeze else grad


# -- optimizer -------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over a fixed parameter list.

    A step with any non-finite gradient is rejected: nothing mutates, the
    incident is logged, and step() returns False.
    """

    def __init__(self, params: list[Parameter], betas=(0.9, 0.999), epsilon=1e-8):
        self.params = list(params)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def _grads(self):
        return {p.name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for p in self.params}

    def step(self, lr: float) -> bool:
        grads = self._grads()
        for name, g in grads.items():
            if not np.isfinite(g).all():
                log.warning("rejected update: non-finite gradient in %s", name)
                return False
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for p in self.params:
            g = grads[p.name]
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + self.epsilon)
            p.data -= np.float32(lr) * update
        return True

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for p in self.params:
            out[f"opt.m.{p.name}"] = self.m[p.name]
            out[f"opt.v.{p.name}"] = self.v[p.name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        for p in self.params:
            self.m[p.name] = np.ascontiguousarray(arrays[f"opt.m.{p.name}"], dtype=np.float32)
            self.v[p.name] = np.ascontiguousarray(arrays[f"opt.v.{p.name}"], dtype=np.float32)
        self.step_count = int(step_count)


# -- schedule --------------------------------------------------------------------


@dataclass
class ScheduleState:
    """Plateau-halving plus early stop.

    A new best (strictly lower validation loss) resets both counters. Three
    consecutive epochs strictly above the best halve the learning rate and
    reset the halving counter; ties neither improve nor extend an "above"
    run. Ten epochs without a new best stop training; stop wins when both
    would fire.
    """

    current_lr: float
    halving_patience: int = 3
    stop_patience: int = 10
    best_val_loss: float = math.inf
    epochs_since_best: int = 0
    consecutive_above: int = 0

    def update(self, val_loss: float) -> str:
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss {val_loss}")
        if val_loss < self.best_val_loss:
            self.best_val_loss = val_loss
            self.epochs_since_best = 0
            self.consecutive_above = 0
            return "none"
        self.epochs_since_best += 1
        if val_loss > self.best_val_loss:
            self.consecutive_above += 1
        else:
            self.consecutive_above = 0
        if self.epochs_since_best >= self.stop_patience:
            return "stop"
        if self.consecutive_above >= self.halving_patience:
            self.current_lr /= 2.0
            self.consecutive_above = 0
            return "halve"
        return "none"

    def to_dict(self) -> dict:
        return {"current_lr": self.current_lr, "halving_patience": self.halving_patience,
                "stop_patience": self.stop_patience, "best_val_loss": self.best_val_loss,
                "epochs_since_best": self.epochs_since_best,
                "consecutive_above": self.consecutive_above}

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleState":
        return cls(**data)


# -- segmenting --------------------------------------------------------------------


@dataclass
class Segment:
    noisy: np.ndarray
    clean: np.ndarray
    frame_mask: np.ndarray
    utterance: int
    offset: int


def segment_frames(segment_samples: int, stft_cfg: StftConfig) -> int:
    return (segment_samples - stft_cfg.frame_len) // stft_cfg.hop + 1


def segment_corpus(pairs, cfg: TrainConfig, stft_cfg: StftConfig | None = None,
                   names=None) -> list[Segment]:
    """Cut utterances into non-overlapping fixed-length segments.

    A tail shorter than one frame is dropped; otherwise it is zero-padded to
    a full segment with a frame validity mask (padded frames never reach the
    loss).
    """
    stft_cfg = stft_cfg or StftConfig()
    seg = cfg.segment_samples
    n_frames = segment_frames(seg, stft_cfg)
    out: list[Segment] = []
    for idx, (noisy, clean) in enumerate(pairs):
        noisy = np.asarray(noisy, dtype=np.float64)
        clean = np.asarray(clean, dtype=np.float64)
        if noisy.shape != clean.shape:
            label = names[idx] if names else f"pair {idx}"
            raise ValueError(
                f"{label}: noisy has {noisy.size} samples but clean has {clean.size}")
        n_full = noisy.size // seg
        for k in range(n_full):
            sl = slice(k * seg, (k + 1) * seg)
            out.append(Segment(noisy[sl], clean[sl],
                               np.ones(n_frames, dtype=bool), idx, k * seg))
        tail = noisy.size - n_full * seg
        if tail >= stft_cfg.frame_len:
            pad_noisy = np.zeros(seg)
            pad_clean = np.zeros(seg)
            pad_noisy[:tail] = noisy[n_full * seg:]
            pad_clean[:tail] = clean[n_full * seg:]
            mask = np.zeros(n_frames, dtype=bool)
            mask[:(tail - stft_cfg.frame_len) // stft_cfg.hop + 1] = True
            out.append(Segment(pad_noisy, pad_clean, mask, idx, n_full * seg))
    return out


def epoch_order(n_segments: int, seed: int, epoch: int) -> np.ndarray:
    """Deterministic shuffle for one epoch; resuming replays it exactly."""
    rng = np.random.default_rng([seed, epoch])
    return rng.permutation(n_segments)


# -- training loop -----------------------------------------------------------------


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    event: str


@dataclass
class TrainResult:
    history: list[EpochRow]
    step_losses: list[float]
    best_val_loss: float
    best_path: Path | None
    last_path: Path | None
    stopped_early: bool


HISTORY_FIELDS = ("epoch", "train_loss", "val_loss", "lr", "event")


def write_history_csv(path, rows: list[EpochRow]) -> None:
    with replace_file(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_FIELDS)
        for r in rows:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.val_loss),
                             repr(r.lr), r.event])


def read_history_csv(path) -> list[EpochRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(EpochRow(int(rec["epoch"]), float(rec["train_loss"]),
                                 float(rec["val_loss"]), float(rec["lr"]), rec["event"]))
    return rows


def _prepare_segment(seg: Segment, norm: Normalizer, stft_cfg: StftConfig):
    noisy_lps = lps(stft(seg.noisy, stft_cfg))
    clean_lps = lps(stft(seg.clean, stft_cfg))
    return norm.normalize(noisy_lps), clean_lps, seg.frame_mask


def _prepare_utterance(noisy, clean, norm: Normalizer, stft_cfg: StftConfig):
    noisy_lps = lps(stft(noisy, stft_cfg))
    clean_lps = lps(stft(clean, stft_cfg))
    return norm.normalize(noisy_lps), clean_lps


def _to_model_input(lps_batch: np.ndarray) -> np.ndarray:
    # (B, T, F) -> (B, 1, F, T)
    return np.ascontiguousarray(np.swapaxes(lps_batch, 1, 2)[:, None])


def _from_model_output(y: np.ndarray) -> np.ndarray:
    return np.swapaxes(y[:, 0], 1, 2)


def validation_loss(model, utterances, norm: Normalizer, stft_cfg: StftConfig) -> float:
    losses = []
    for noisy_norm, clean in utterances:
        x = _to_model_input(noisy_norm[None])
        y = model.forward(x, training=False)
        est = norm.denormalize(_from_model_output(y)[0])
        losses.append(frame_rms_loss(clean, est))
    return float(np.mean(losses))


def train(model, train_pairs, val_pairs, norm: Normalizer, cfg: TrainConfig,
          stft_cfg: StftConfig | None = None, out_dir=None,
          resume_state: dict | None = None, resume_opt: dict | None = None,
          names=None) -> TrainResult:
    """Run the optimization loop; returns history and checkpoint paths.

    ``resume_state``/``resume_opt`` come from a previously saved training
    checkpoint; epoch shuffles depend only on (seed, epoch), so a resumed run
    retraces the uninterrupted trajectory.
    """
    from .checkpoint import save_checkpoint  # local import: checkpoint imports model

    stft_cfg = stft_cfg or StftConfig()
    segments = segment_corpus(train_pairs, cfg, stft_cfg, names=names)
    if not segments:
        raise ValueError("no trainable segments: utterances shorter than one frame")
    prepared = [_prepare_segment(s, norm, stft_cfg) for s in segments]
    val_prepared = [_prepare_utterance(n, c, norm, stft_cfg) for n, c in val_pairs]
    if not val_prepared:
        raise ValueError("validation split is empty")

    adam = Adam(model.parameters(), betas=cfg.adam_betas, epsilon=cfg.adam_epsilon)
    schedule = ScheduleState(current_lr=cfg.initial_lr,
                             halving_patience=cfg.lr_halving_patience,
                             stop_patience=cfg.early_stop_patience)
    history: list[EpochRow] = []
    start_epoch = 1
    if resume_state is not None:
        schedule = ScheduleState.from_dict(resume_state["schedule"])
        adam.load_state_arrays(resume_opt or {}, resume_state["adam_step"])
        start_epoch = int(resume_state["epoch"]) + 1

    out_dir = Path(out_dir) if out_dir is not None else None
    best_path = last_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        best_path = out_dir / "best.ckpt"
        last_path = out_dir / "last.ckpt"
        history_path = out_dir / "history.csv"
        if resume_state is not None and history_path.exists():
            history = [r for r in read_history_csv(history_path) if r.epoch < start_epoch]

    step_losses: list[float] = []
    stopped_early = False
    for epoch in range(start_epoch, cfg.max_epochs + 1):
        order = epoch_order(len(prepared), cfg.seed, epoch)
        epoch_loss_sum = 0.0
        epoch_items = 0
        for start in range(0, len(order), cfg.batch_size):
            chosen = order[start:start + cfg.batch_size]
            noisy_norm = np.stack([prepared[i][0] for i in chosen])
            clean = np.stack([prepared[i][1] for i in chosen])
            mask = np.stack([prepared[i][2] for i in chosen])
            x = _to_model_input(noisy_norm)
            y = model.forward(x, training=True)
            est = _from_model_output(y) * norm.std + norm.mean
            loss = frame_rms_loss(clean, est, mask)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}; last checkpoint kept")
            grad_est = frame_rms_loss_grad(clean, est, mask)
            grad_norm = grad_est * norm.std
            model.backward(_to_model_input(grad_norm))
            adam.step(schedule.current_lr)
            model.zero_grad()
            step_losses.append(loss)
            epoch_loss_sum += loss * len(chosen)
            epoch_items += len(chosen)

        train_loss = epoch_loss_sum / epoch_items
        val_loss = validation_loss(model, val_prepared, norm, stft_cfg)
        prev_best = schedule.best_val_loss
        lr_at_epoch = schedule.current_lr
        event = schedule.update(val_loss)
        history.append(EpochRow(epoch, train_loss, val_loss, lr_at_epoch, event))
        log.info("epoch %d: train %.6f val %.6f lr %.2e %s",
                 epoch, train_loss, val_loss, lr_at_epoch, event)

        if out_dir is not None:
            if val_loss < prev_best:
                save_checkpoint(best_path, model, normalizer=norm)
            training_state = {"epoch": epoch, "adam_step": adam.step_count,
                              "schedule": schedule.to_dict()}
            save_checkpoint(last_path, model, normalizer=norm,
                            training_state=training_state,
                            opt_arrays=adam.state_arrays())
            write_history_csv(history_path, history)
        if event == "stop":
            stopped_early = True
            break

    return TrainResult(history=history, step_losses=step_losses,
                       best_val_loss=schedule.best_val_loss,
                       best_path=best_path, last_path=last_path,
                       stopped_early=stopped_early)
