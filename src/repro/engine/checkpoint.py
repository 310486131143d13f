"""Checkpoint/resume for engine-driven searches: an append-only wave journal.

A checkpoint captures everything a search needs to continue bit-for-bit from
a batch boundary: the controller weights and the Adam moment estimates of
the policy trainer, the reward baseline and Adam step, both RNG streams
(controller sampling and child weight initialisation), the full
:class:`~repro.core.results.SearchHistory`, the in-memory evaluation-cache
entries in LRU order and the next episode index.  A run directory holds it
in two kinds of file:

* ``checkpoint.jsonl``, the journal, one line per checkpoint.  A line is
  compact JSON with sorted keys, a tab, and the CRC-32 of that JSON.  The
  first save of an engine (fresh or resumed) replaces the file with one
  *base* line that holds every record and cache entry.  Every later save
  appends a *delta* line: the records appended and the cache entries
  inserted since the previous line, the cache's key order as the keys
  evicted and the keys moved or inserted since, and the full scalar state.
  A line's size therefore depends on the wave, never on the episode index
  or the size of the cache.
* ``checkpoint-<sha256>.state``, the controller weights and Adam moments as
  raw bytes in parameter order, named by the sha256 of those bytes.  The
  line records that name and each array's dtype and shape.  A save whose
  arrays did not change since the previous line writes no state file.

A save writes in an order that leaves a resumable run wherever the process
dies: first the state file (atomically, then the directory is fsynced),
then the line that names it (fsynced), and only then the deletion of the
state file the previous line named.  A :class:`JournalCursor` records what
an engine's journal already holds; it advances once the line is written.
Every file operation goes through :func:`_replace`, :func:`_append`,
:func:`_fsync` or :func:`_unlink`, so a crash test can interpose on each.

Loading stops at the first line that does not parse or whose checksum does
not match (a torn tail), and checks the state file that the last valid line
names against its name.  A missing or mismatched state file is an error,
never a silent fresh start.  Run directories written before the journal
hold a version-1 pair, ``checkpoint.json`` (compact or indented) and
``checkpoint.npz`` (plain or compressed).  :func:`load_checkpoint` reads the
pair when no journal is present, and the next save replaces it.

Checkpoints embed the engine's evaluation-context fingerprint; restoring
into a search with a different dataset / reward / training configuration is
refused rather than silently producing a diverged run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.controller import LSTMController
from repro.core.evaluator import EvaluationResult
from repro.core.policy import PolicyGradientTrainer
from repro.core.results import SearchHistory
from repro.engine.cache import EvaluationCache
from repro.engine.serde import (
    history_from_dict,
    history_meta_to_dict,
    record_to_dict,
    result_to_dict,
    rng_state_from_dict,
    rng_state_to_dict,
)
from repro.utils.serialization import atomic_write_bytes, load_json, load_state_dict

CHECKPOINT_JOURNAL = "checkpoint.jsonl"
JOURNAL_VERSION = 2
STATE_PREFIX = "checkpoint-"
STATE_SUFFIX = ".state"
# The version-1 pair, read when a run directory holds no journal.
LEGACY_JSON = "checkpoint.json"
LEGACY_NPZ = "checkpoint.npz"
LEGACY_VERSION = 1


@dataclass
class EngineCheckpoint:
    """A parsed checkpoint, ready to be restored into a search."""

    next_episode: int
    context_key: str
    baseline: Optional[float]
    adam_step: int
    rng_states: Dict[str, Any]
    history: SearchHistory
    cache_entries: List[Tuple[str, Dict[str, Any]]]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)


@dataclass
class JournalCursor:
    """What an engine's journal already holds.

    A cursor that has written nothing, or that last wrote another journal,
    makes the next save write a base line.  Cache entries are compared by
    identity: a result object is never changed once it is cached.
    """

    journal: Optional[str] = None
    records: int = 0
    cache: Dict[str, EvaluationResult] = field(default_factory=dict)
    state: Optional[str] = None


def checkpoint_paths(run_dir: str) -> List[str]:
    """The journal, then the state files, present in ``run_dir``.

    A directory listing only: no file is opened.
    """
    try:
        names = os.listdir(run_dir)
    except FileNotFoundError:
        return []
    journal = [CHECKPOINT_JOURNAL] if CHECKPOINT_JOURNAL in names else []
    states = sorted(name for name in names if _is_state_file(name))
    return [os.path.join(run_dir, name) for name in journal + states]


def has_checkpoint(run_dir: str) -> bool:
    """True when ``run_dir`` holds a journal with a valid line, or a
    version-1 pair."""
    if next(_journal_lines(run_dir), None) is not None:
        return True
    return all(
        os.path.exists(os.path.join(run_dir, name)) for name in (LEGACY_JSON, LEGACY_NPZ)
    )


def _is_state_file(name: str) -> bool:
    return name.startswith(STATE_PREFIX) and name.endswith(STATE_SUFFIX)


def _state_name(data: bytes) -> str:
    return f"{STATE_PREFIX}{hashlib.sha256(data).hexdigest()}{STATE_SUFFIX}"


def _checksum(text: bytes) -> bytes:
    return b"%08x" % zlib.crc32(text)


def _json_scalar(value: Any) -> Any:
    """``json.dumps`` hook: a numpy scalar or array becomes Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# -- file operations: every write, fsync, rename and unlink of a save ----------------
def _replace(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically (temp file, fsync, rename)."""
    atomic_write_bytes(path, data)


def _append(path: str, data: bytes) -> None:
    with open(path, "ab") as handle:
        handle.write(data)


def _fsync(path: str) -> None:
    """Flush a file's data, or a directory's entries, to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# -- writing --------------------------------------------------------------------------
def save_checkpoint(
    run_dir: str,
    *,
    next_episode: int,
    context_key: str,
    controller: LSTMController,
    policy_trainer: PolicyGradientTrainer,
    sample_rng: np.random.Generator,
    child_rng: np.random.Generator,
    history: SearchHistory,
    cache: Optional[EvaluationCache] = None,
    cursor: Optional[JournalCursor] = None,
) -> str:
    """Journal a checkpoint under ``run_dir`` and return the journal's path.

    With a ``cursor`` that holds this journal, appends one delta line and
    advances the cursor; otherwise (no cursor, or its first save) replaces
    the journal with a base line.  Must be called at a batch boundary (no
    pending policy-gradient episodes); :meth:`PolicyGradientTrainer.state_dict`
    enforces this.
    """
    policy_state = policy_trainer.state_dict()
    optimizer = policy_state["optimizer"]
    arrays = [(f"param__{param.name}", param.data) for param in controller.parameters()]
    arrays += [(f"adam_m__{index}", m) for index, m in enumerate(optimizer["m"])]
    arrays += [(f"adam_v__{index}", v) for index, v in enumerate(optimizer["v"])]
    state = b"".join(np.ascontiguousarray(array) for _, array in arrays)
    state_name = _state_name(state)

    journal = os.path.join(run_dir, CHECKPOINT_JOURNAL)
    cursor = cursor if cursor is not None else JournalCursor()
    base = cursor.journal != journal
    held_records = 0 if base else cursor.records
    held_cache: Dict[str, EvaluationResult] = {} if base else cursor.cache
    held_state = None if base else cursor.state
    entries = cache.items() if cache is not None else []
    evicted, moved = _order_delta(list(held_cache), [key for key, _ in entries])
    line = {
        "version": JOURNAL_VERSION,
        "next_episode": next_episode,
        "context_key": context_key,
        "baseline": policy_state["baseline"],
        "adam_step": optimizer["step"],
        "rng": {
            "sample": rng_state_to_dict(sample_rng),
            "child": rng_state_to_dict(child_rng),
        },
        "history": history_meta_to_dict(history),
        "records": [record_to_dict(record) for record in history.records[held_records:]],
        "cache": [
            [key, result_to_dict(result)]
            for key, result in entries
            if held_cache.get(key) is not result
        ],
        "cache_evicted": evicted,
        "cache_moved": moved,
        "state": {
            "name": state_name,
            "layout": [[key, array.dtype.str, list(array.shape)] for key, array in arrays],
        },
    }
    text = json.dumps(line, sort_keys=True, default=_json_scalar).encode("utf-8")
    data = text + b"\t" + _checksum(text) + b"\n"

    os.makedirs(run_dir, exist_ok=True)
    try:
        if state_name != held_state:
            _replace(os.path.join(run_dir, state_name), state)
            _fsync(run_dir)
        if base:
            _replace(journal, data)
            _fsync(run_dir)
        else:
            _append(journal, data)
            _fsync(journal)
    except BaseException:
        # A failed append may have left part of a line: start the journal over.
        cursor.journal = None
        raise
    cursor.journal = journal
    cursor.records = len(history.records)
    cursor.cache = dict(entries)
    cursor.state = state_name
    if base:
        _sweep(run_dir, keep=state_name)
    elif held_state not in (None, state_name):
        _unlink(os.path.join(run_dir, held_state))
    return journal


def _order_delta(previous: List[str], order: List[str]) -> Tuple[List[str], List[str]]:
    """``order`` relative to ``previous``: the keys evicted since, and the
    suffix of ``order`` from its first key that is new or out of its old
    place.  :func:`_apply_order_delta` rebuilds ``order`` from the two.

    An LRU appends every key it inserts or touches at its end, so for an
    LRU the suffix holds only keys touched since ``previous``: its length
    follows the wave, not the cache size.
    """
    position = {key: index for index, key in enumerate(previous)}
    split, last = 0, -1
    for key in order:
        index = position.get(key)
        if index is None or index < last:
            break
        last = index
        split += 1
    present = set(order)
    return [key for key in previous if key not in present], order[split:]


def _apply_order_delta(
    previous: List[str], evicted: List[str], moved: List[str]
) -> List[str]:
    """The order :func:`_order_delta` described: ``previous`` without the
    evicted and moved keys, then the moved ones."""
    gone = set(evicted).union(moved)
    return [key for key in previous if key not in gone] + moved


def _sweep(run_dir: str, keep: str) -> None:
    """Delete what a base line supersedes: other state files, a version-1
    pair, and temp files that interrupted writes left behind."""
    for name in os.listdir(run_dir):
        if (
            name in (LEGACY_JSON, LEGACY_NPZ)
            or (_is_state_file(name) and name != keep)
            or (name.startswith(".checkpoint") and name.endswith(".tmp"))
        ):
            _unlink(os.path.join(run_dir, name))


# -- reading --------------------------------------------------------------------------
def _journal_lines(run_dir: str) -> Iterator[Dict[str, Any]]:
    """The journal's lines, parsed, up to the first torn or corrupt one."""
    try:
        with open(os.path.join(run_dir, CHECKPOINT_JOURNAL), "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    for raw in data.split(b"\n"):
        text, tab, checksum = raw.rpartition(b"\t")
        if not tab or checksum != _checksum(text):
            return
        try:
            line = json.loads(text)
        except ValueError:
            return
        yield line


def load_checkpoint(run_dir: str) -> EngineCheckpoint:
    """Read and parse the checkpoint stored under ``run_dir``."""
    lines = list(_journal_lines(run_dir))
    if not lines:
        return _load_legacy(run_dir)
    records: List[Dict[str, Any]] = []
    values: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for line in lines:
        version = int(line.get("version", -1))
        if version != JOURNAL_VERSION:
            raise ValueError(
                f"checkpoint journal version {version} is not supported "
                f"(expected {JOURNAL_VERSION})"
            )
        records.extend(line["records"])
        values.update(line["cache"])
        order = _apply_order_delta(order, line["cache_evicted"], line["cache_moved"])
    last = lines[-1]
    return EngineCheckpoint(
        next_episode=int(last["next_episode"]),
        context_key=str(last["context_key"]),
        baseline=last["baseline"],
        adam_step=int(last["adam_step"]),
        rng_states=last["rng"],
        history=history_from_dict({**last["history"], "records": records}),
        cache_entries=[(key, values[key]) for key in order],
        arrays=_read_state(run_dir, last["state"]),
    )


def _read_state(run_dir: str, state: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """The arrays of the state file a line names, checked against its name."""
    name = state["name"]
    with open(os.path.join(run_dir, name), "rb") as handle:
        data = bytearray(handle.read())
    if _state_name(data) != name:
        raise ValueError(f"checkpoint state file {name!r} does not match its name")
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for key, dtype, shape in state["layout"]:
        count = math.prod(shape)
        arrays[key] = np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape)
        offset += arrays[key].nbytes
    if offset != len(data):
        raise ValueError(f"checkpoint state file {name!r} does not match its layout")
    return arrays


def _load_legacy(run_dir: str) -> EngineCheckpoint:
    """Read a version-1 pair: ``checkpoint.json`` and ``checkpoint.npz``."""
    json_path = os.path.join(run_dir, LEGACY_JSON)
    npz_path = os.path.join(run_dir, LEGACY_NPZ)
    if not os.path.exists(json_path) or not os.path.exists(npz_path):
        raise FileNotFoundError(f"no checkpoint found under {run_dir!r}")
    payload = load_json(json_path)
    version = int(payload.get("version", -1))
    if version != LEGACY_VERSION:
        raise ValueError(
            f"checkpoint version {version} is not supported "
            f"(expected {LEGACY_VERSION})"
        )
    return EngineCheckpoint(
        next_episode=int(payload["next_episode"]),
        context_key=str(payload["context_key"]),
        baseline=payload["baseline"],
        adam_step=int(payload["adam_step"]),
        rng_states=payload["rng"],
        history=history_from_dict(payload["history"]),
        cache_entries=[(key, entry) for key, entry in payload["cache"]],
        arrays=load_state_dict(npz_path),
    )


def restore_checkpoint(
    checkpoint: EngineCheckpoint,
    *,
    context_key: str,
    controller: LSTMController,
    policy_trainer: PolicyGradientTrainer,
    sample_rng: np.random.Generator,
    child_rng: np.random.Generator,
    cache: Optional[EvaluationCache] = None,
) -> Tuple[int, SearchHistory]:
    """Load ``checkpoint`` into live search components.

    Returns ``(next_episode, history)``; the caller continues the search from
    there.  Raises when the checkpoint was written under a different
    evaluation context (different dataset, reward or training configuration).
    """
    if checkpoint.context_key != context_key:
        raise ValueError(
            "checkpoint was written under a different evaluation context; "
            "reconstruct the search with the original dataset and configuration"
        )
    parameters = controller.parameters()
    for param in parameters:
        key = f"param__{param.name}"
        if key not in checkpoint.arrays:
            raise KeyError(f"checkpoint is missing controller parameter {param.name!r}")
        param.data = np.asarray(checkpoint.arrays[key], dtype=np.float64).copy()
    policy_trainer.load_state_dict(
        {
            "baseline": checkpoint.baseline,
            "optimizer": {
                "step": checkpoint.adam_step,
                "m": [
                    checkpoint.arrays[f"adam_m__{index}"]
                    for index in range(len(parameters))
                ],
                "v": [
                    checkpoint.arrays[f"adam_v__{index}"]
                    for index in range(len(parameters))
                ],
            },
        }
    )
    rng_state_from_dict(sample_rng, checkpoint.rng_states["sample"])
    rng_state_from_dict(child_rng, checkpoint.rng_states["child"])
    if cache is not None:
        cache.restore(checkpoint.cache_entries)
    return checkpoint.next_episode, checkpoint.history
