"""Crash-safe file replacement for training artifacts."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replace_file(path, mode: str = "wb", **open_kwargs):
    """Write a temporary file beside ``path``, flush it to disk and rename it
    over ``path``: an interrupted write leaves the previous file intact."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
