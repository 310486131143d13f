"""Serialisation helpers for models and experiment results.

Models are stored as ``.npz`` archives of named parameter arrays plus a JSON
sidecar describing the architecture; experiment results are stored as JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from typing import Any, Dict

import numpy as np


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a mapping of names to arrays from an ``.npz`` archive."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _jsonify(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def save_json(path: str, payload: Any) -> None:
    """Write ``payload`` (dataclasses and numpy types allowed) as JSON.

    The payload is serialised before the file is touched and then written
    through :func:`atomic_write_text`, so a payload that cannot be encoded
    leaves the previous file intact.
    """
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_text(path, text)


def atomic_write_text(path: str, text: str) -> None:
    """Durably replace ``path`` with ``text``; never torn, never clobbered by
    a concurrent writer.

    The temp file comes from ``mkstemp`` *in the destination directory* --
    unique per writer (two writers of one path cannot truncate or rename
    away each other's half-written temp file, unlike a fixed ``<path>.tmp``)
    and on the same filesystem, so the final ``os.replace`` is atomic.  The
    ``fsync`` before the rename keeps a power loss from leaving the new name
    pointing at not-yet-flushed data; without it a crash could leave exactly
    the torn file this function exists to prevent.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def load_json(path: str) -> Any:
    """Read a JSON file previously written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
