"""Single-file model checkpoints.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON header,
then raw little-endian float32 array data in manifest order. The header
carries the model config, init seed, format version and a manifest of
(name, shape, offset, kind) entries; kinds are "param" (learnable), "buffer"
(BN running statistics) and "opt" (Adam moments, present only in resumable
training checkpoints). Loading validates that the param entries sum exactly
to the architecture's analytic parameter count. A save replaces the file
whole, so an interrupted one leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .dsp import Normalizer
from .fileio import replace_file
from .model import Model, build_model, param_count

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
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        head_len = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        header = json.loads(fh.read(head_len).decode("utf-8"))
        payload = fh.read()

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

    def read(entry):
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        raw = payload[start:start + 4 * count]
        if len(raw) != 4 * count:
            raise CheckpointError(f"truncated data for {entry['name']}")
        return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    model = build_model(cfg, seed=int(header["seed"]))
    by_name = {p.name: p for p in model.parameters()}
    opt_arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        if entry["kind"] == "param":
            if entry["name"] not in by_name:
                raise CheckpointError(f"unknown parameter {entry['name']} in manifest")
            target = by_name[entry["name"]]
            value = read(entry)
            if value.shape != target.data.shape:
                raise CheckpointError(
                    f"{entry['name']}: stored shape {value.shape} != model {target.data.shape}")
            target.data = value
        elif entry["kind"] == "buffer":
            model.set_buffer(entry["name"], read(entry))
        elif entry["kind"] == "opt":
            opt_arrays[entry["name"]] = read(entry)
        else:
            raise CheckpointError(f"unknown manifest kind {entry['kind']!r}")

    norm = None
    if header.get("normalizer") is not None:
        norm = Normalizer(
            mean=np.asarray(header["normalizer"]["mean"], dtype=np.float32),
            std=np.asarray(header["normalizer"]["std"], dtype=np.float32))
    return LoadedCheckpoint(model=model, seed=int(header["seed"]), normalizer=norm,
                            training_state=header.get("training_state"),
                            opt_arrays=opt_arrays)
