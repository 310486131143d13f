"""Checkpoint/resume for engine-driven searches.

A checkpoint captures everything a search needs to continue bit-for-bit from
a batch boundary:

* controller weights and the Adam moment estimates of the policy trainer
  (``checkpoint.npz``, an uncompressed numpy archive),
* the reward baseline, both RNG streams (controller sampling and child
  weight initialisation), the full :class:`~repro.core.results.SearchHistory`,
  the in-memory evaluation-cache entries and the next episode index
  (``checkpoint.json``, compact one-line JSON with sorted keys).

A checkpoint re-serialises the whole history and cache, so both files are
written by single C-level calls (``np.savez``, ``json.dumps``) rather than
per-value Python passes.  Checkpoints written with indented JSON and a
compressed archive load the same way.

Checkpoints embed the engine's evaluation-context fingerprint; restoring
into a search with a different dataset / reward / training configuration is
refused rather than silently producing a diverged run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.controller import LSTMController
from repro.core.policy import PolicyGradientTrainer
from repro.core.results import SearchHistory
from repro.engine.cache import EvaluationCache
from repro.engine.serde import (
    history_from_dict,
    history_to_dict,
    rng_state_from_dict,
    rng_state_to_dict,
)
from repro.utils.serialization import load_json, load_state_dict

CHECKPOINT_JSON = "checkpoint.json"
CHECKPOINT_NPZ = "checkpoint.npz"
CHECKPOINT_VERSION = 1


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


def checkpoint_paths(run_dir: str) -> Tuple[str, str]:
    """The (json, npz) file pair of a run directory's checkpoint."""
    return (
        os.path.join(run_dir, CHECKPOINT_JSON),
        os.path.join(run_dir, CHECKPOINT_NPZ),
    )


def has_checkpoint(run_dir: str) -> bool:
    """True when ``run_dir`` holds a complete checkpoint pair."""
    json_path, npz_path = checkpoint_paths(run_dir)
    return os.path.exists(json_path) and os.path.exists(npz_path)


def _json_scalar(value: Any) -> Any:
    """``json.dumps`` hook: a numpy scalar or array becomes Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
) -> str:
    """Write a checkpoint under ``run_dir`` and return the JSON path.

    Must be called at a batch boundary (no pending policy-gradient episodes);
    :meth:`PolicyGradientTrainer.state_dict` enforces this.
    """
    policy_state = policy_trainer.state_dict()
    arrays: Dict[str, np.ndarray] = {}
    for param in controller.parameters():
        arrays[f"param__{param.name}"] = param.data
    for index, (m, v) in enumerate(
        zip(policy_state["optimizer"]["m"], policy_state["optimizer"]["v"])
    ):
        arrays[f"adam_m__{index}"] = m
        arrays[f"adam_v__{index}"] = v

    payload = {
        "version": CHECKPOINT_VERSION,
        "next_episode": next_episode,
        "context_key": context_key,
        "baseline": policy_state["baseline"],
        "adam_step": policy_state["optimizer"]["step"],
        "rng": {
            "sample": rng_state_to_dict(sample_rng),
            "child": rng_state_to_dict(child_rng),
        },
        "history": history_to_dict(history),
        "cache": cache.snapshot() if cache is not None else [],
    }
    text = json.dumps(payload, sort_keys=True, default=_json_scalar)
    json_path, npz_path = checkpoint_paths(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    np.savez(npz_path, **arrays)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return json_path


def load_checkpoint(run_dir: str) -> EngineCheckpoint:
    """Read and parse the checkpoint stored under ``run_dir``."""
    json_path, npz_path = checkpoint_paths(run_dir)
    if not os.path.exists(json_path) or not os.path.exists(npz_path):
        raise FileNotFoundError(f"no checkpoint found under {run_dir!r}")
    payload = load_json(json_path)
    version = int(payload.get("version", -1))
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
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
