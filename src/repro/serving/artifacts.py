"""Deterministic weight artifacts for the model zoo.

``numpy.savez`` embeds the current wall-clock in every zip member header, so
two otherwise identical saves differ byte-for-byte -- which would break the
zoo's contract that promoting the same run twice produces *byte-identical*
entries (the property the content-hash dedupe store relies on).  The writer
here builds the same ``.npz`` container by hand: one uncompressed ``.npy``
member per array, names sorted, every zip timestamp pinned to the DOS epoch.
``numpy.load`` reads the result like any other ``.npz`` archive.

The capture/restore helpers snapshot a model's *complete* numeric state:
parameters via ``state_dict`` plus every registered buffer (batch-norm
running statistics), keyed by qualified name under a ``param/`` or
``buffer/`` prefix so the two namespaces cannot collide.
"""

from __future__ import annotations

import io
import zipfile
from typing import Dict

import numpy as np

from repro.nn.module import Module
from repro.utils.fingerprint import array_fingerprint, combine_fingerprints

PARAM_PREFIX = "param/"
BUFFER_PREFIX = "buffer/"

# Fixed DOS-epoch timestamp for every zip member: saves carry no wall-clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


# -- model state capture / restore ---------------------------------------------------
def capture_model_arrays(model: Module) -> Dict[str, np.ndarray]:
    """Snapshot every parameter and buffer of ``model`` by qualified name."""
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"{PARAM_PREFIX}{name}"] = value
    for name, value in model.named_buffers():
        arrays[f"{BUFFER_PREFIX}{name}"] = np.asarray(value).copy()
    return arrays


def _submodule(model: Module, dotted: str) -> Module:
    module = model
    for part in dotted.split("."):
        if part not in module._modules:
            raise KeyError(f"model has no sub-module {dotted!r}")
        module = module._modules[part]
    return module


def restore_model_arrays(model: Module, arrays: Dict[str, np.ndarray]) -> None:
    """Load a :func:`capture_model_arrays` snapshot back into ``model``."""
    state = {
        name[len(PARAM_PREFIX) :]: value
        for name, value in arrays.items()
        if name.startswith(PARAM_PREFIX)
    }
    model.load_state_dict(state)
    for name, value in arrays.items():
        if not name.startswith(BUFFER_PREFIX):
            continue
        qualified = name[len(BUFFER_PREFIX) :]
        owner, _, leaf = qualified.rpartition(".")
        module = _submodule(model, owner) if owner else model
        if leaf not in module._buffers:
            raise KeyError(f"model has no buffer {qualified!r}")
        module.register_buffer(
            leaf, np.asarray(value, dtype=module._buffers[leaf].dtype).copy()
        )


def model_content_hash(arrays: Dict[str, np.ndarray]) -> str:
    """Content fingerprint of a weight snapshot (names, shapes, dtypes, bytes)."""
    parts = [
        combine_fingerprints(name, array_fingerprint(arrays[name]))
        for name in sorted(arrays)
    ]
    return combine_fingerprints("model-arrays", *parts)


# -- deterministic npz ---------------------------------------------------------------
def arrays_to_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """``arrays`` as byte-deterministic ``.npz`` archive contents.

    Equal inputs always produce equal bytes: member order is the sorted name
    order, members are stored uncompressed and every timestamp is the fixed
    DOS epoch.  This is what makes the archive content-addressable -- the
    zoo stores it under ``sha256(bytes)`` and equal weights dedupe by key.
    """
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.ascontiguousarray(arrays[name]), allow_pickle=False
            )
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o600 << 16  # fixed mode bits
            archive.writestr(info, buffer.getvalue())
    return out.getvalue()


def load_arrays(path: str) -> Dict[str, np.ndarray]:
    """Read the :func:`arrays_to_bytes` archive at ``path``.

    Zoo manifests written before weights moved onto the artifact store name
    such a flat blob (``_blobs/<hash>.npz``); they still load through here.
    """
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def load_arrays_bytes(data: bytes) -> Dict[str, np.ndarray]:
    """Read :func:`arrays_to_bytes` output without touching the filesystem."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}
