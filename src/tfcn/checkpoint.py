"""Single-file model checkpoints.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON header,
then raw little-endian float32 array data in manifest order. The header
carries the model config, init seed, format version and a manifest of
(name, shape, offset, kind) entries; kinds are "param" (learnable), "buffer"
(BN running statistics) and "opt" (Adam moments, present only in resumable
training checkpoints). Loading validates that the param entries sum exactly
to the architecture's analytic parameter count, that each entry's offset
follows the one before, and that a training state is one ``train`` can
resume from. A save replaces the file whole, so an interrupted one leaves
the previous checkpoint intact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .dsp import Normalizer
from .fileio import replace_file
from .model import Model, build_model, param_count
from .schedule import check_training_state

MAGIC = b"TFCNCKP1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


@dataclass
class LoadedCheckpoint:
    model: Model
    seed: int
    normalizer: Normalizer | None
    training_state: dict | None
    opt_arrays: dict[str, np.ndarray]


def save_checkpoint(path, model: Model, normalizer: Normalizer | None = None,
                    training_state: dict | None = None,
                    opt_arrays: dict[str, np.ndarray] | None = None) -> None:
    entries = []
    blobs = []
    offset = 0

    def push(name, array, kind):
        nonlocal offset
        arr = np.ascontiguousarray(array, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "kind": kind})
        blobs.append(arr.tobytes())
        offset += arr.nbytes

    for p in model.parameters():
        push(p.name, p.data, "param")
    for name, buf in model.named_buffers():
        push(name, buf, "buffer")
    for name, arr in (opt_arrays or {}).items():
        push(name, arr, "opt")

    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "seed": model.seed,
        "manifest": entries,
        "normalizer": None if normalizer is None else {
            "mean": [float(v) for v in normalizer.mean],
            "std": [float(v) for v in normalizer.std],
        },
        "training_state": training_state,
    }
    head = json.dumps(header).encode("utf-8")
    with replace_file(path) as fh:
        fh.write(MAGIC)
        fh.write(np.array(len(head), dtype="<u4").tobytes())
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> LoadedCheckpoint:
    """Read a checkpoint; any malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        body = fh.read()
    try:
        return _parse(body)
    except CheckpointError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint ({exc!r})") from exc


def _parse(body: bytes) -> LoadedCheckpoint:
    """Everything after the magic: header length, JSON header, array data."""
    if len(body) < 4:
        raise CheckpointError("truncated header length")
    head_len = int.from_bytes(body[:4], "little")
    header = json.loads(body[4:4 + head_len].decode("utf-8"))
    payload = body[4 + head_len:]
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format {header.get('format_version')}")
    cfg = ModelConfig.from_dict(header["config"])
    manifest = header["manifest"]

    param_total = sum(int(np.prod(e["shape"])) if e["shape"] else 1
                      for e in manifest if e["kind"] == "param")
    expected = param_count(cfg)
    if param_total != expected:
        raise CheckpointError(
            f"manifest holds {param_total} learnable scalars, architecture needs {expected}")

    end = 0

    def read(entry):
        nonlocal end
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if entry["offset"] != end:
            raise CheckpointError(f"bad offset {entry['offset']!r} for {entry['name']}")
        raw = payload[end:end + 4 * count]
        if len(raw) != 4 * count:
            raise CheckpointError(f"truncated data for {entry['name']}")
        end += len(raw)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    model = build_model(cfg, seed=int(header["seed"]))
    params = {p.name: p.data for p in model.parameters()}
    buffers = dict(model.named_buffers())
    seen: set[str] = set()
    opt_arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        name, kind = entry["name"], entry["kind"]
        if name in seen:
            raise CheckpointError(f"{name} appears twice in the manifest")
        seen.add(name)
        if kind == "opt":
            opt_arrays[name] = read(entry)
            continue
        if kind not in ("param", "buffer"):
            raise CheckpointError(f"unknown manifest kind {kind!r}")
        arrays = params if kind == "param" else buffers
        if name not in arrays:
            raise CheckpointError(f"unknown {kind} {name} in manifest")
        value = read(entry)
        if value.shape != arrays[name].shape:
            raise CheckpointError(
                f"{name}: stored shape {value.shape} != model {arrays[name].shape}")
        arrays[name][...] = value
    # names are unique and the scalar total matched, so every parameter is set
    missing = sorted(set(buffers) - seen)
    if missing:
        raise CheckpointError(f"manifest lacks buffers {missing}")

    check_training_state(header.get("training_state"))
    norm = None
    if header.get("normalizer") is not None:
        norm = Normalizer(
            mean=np.asarray(header["normalizer"]["mean"], dtype=np.float32),
            std=np.asarray(header["normalizer"]["std"], dtype=np.float32))
    return LoadedCheckpoint(model=model, seed=int(header["seed"]), normalizer=norm,
                            training_state=header.get("training_state"),
                            opt_arrays=opt_arrays)
