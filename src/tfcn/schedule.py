"""Learning-rate schedule (plateau halving, early stop) and the training state
a resumable checkpoint carries."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss); the last saved checkpoint survives."""


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
        """Inverse of to_dict; any other field set, or a non-numeric value, raises ValueError."""
        names = {f.name for f in fields(cls)}
        if not isinstance(data, dict) or set(data) != names:
            raise ValueError(f"schedule must hold exactly {sorted(names)}, got {data!r}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data.values()):
            raise ValueError(f"schedule values must be numbers, got {data!r}")
        return cls(**data)


def check_training_state(state) -> None:
    """Raise ValueError unless ``state`` is None or what ``train`` saves to
    resume from: non-negative int ``epoch`` and ``adam_step`` and a
    ``schedule`` that ScheduleState.from_dict accepts."""
    if state is None:
        return
    if not isinstance(state, dict) or set(state) != {"epoch", "adam_step", "schedule"}:
        raise ValueError(f"training state must hold epoch, adam_step and schedule, got {state!r}")
    for key in ("epoch", "adam_step"):
        if type(state[key]) is not int or state[key] < 0:
            raise ValueError(f"training state {key} must be a non-negative int, got {state[key]!r}")
    ScheduleState.from_dict(state["schedule"])
