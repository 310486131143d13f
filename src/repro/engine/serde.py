"""JSON round-trips for the engine's persisted objects.

Checkpoints and the on-disk evaluation cache store plain JSON (plus raw
array bytes for weights), so every object that crosses the persistence
boundary -- descriptors, evaluation results, episode records, search
histories and numpy RNG states -- gets an explicit ``*_to_dict`` /
``*_from_dict`` pair here.  Keeping the converters together (rather than as
methods scattered over core) means the persisted schema is reviewable in one
place.

The ``*_to_dict`` converters read fields directly rather than through
``dataclasses.asdict``, whose recursive deep copy dominated the cost of a
checkpoint; they copy each container field, so they never return the
objects' own lists and dicts.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from typing import Any, Dict, Tuple

import numpy as np

from repro.blocks.spec import BlockSpec, ClassifierSpec, StemSpec
from repro.core.evaluator import EvaluationResult
from repro.core.results import EpisodeRecord, SearchHistory
from repro.zoo.descriptors import ArchitectureDescriptor, HeadSpec


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _shallow_dict(obj: Any) -> Dict[str, Any]:
    """A dataclass's fields as a dict, in field order, values not copied."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


# -- architecture descriptors ------------------------------------------------------
def descriptor_to_dict(descriptor: ArchitectureDescriptor) -> Dict[str, Any]:
    """Flatten a descriptor into plain JSON-encodable data."""
    return {
        "name": descriptor.name,
        "family": descriptor.family,
        "input_resolution": descriptor.input_resolution,
        "stem": _shallow_dict(descriptor.stem),
        "blocks": [_shallow_dict(block) for block in descriptor.blocks],
        "head": _shallow_dict(descriptor.head),
        "classifier": _shallow_dict(descriptor.classifier),
    }


def descriptor_from_dict(payload: Dict[str, Any]) -> ArchitectureDescriptor:
    """Rebuild a descriptor previously flattened by :func:`descriptor_to_dict`."""
    return ArchitectureDescriptor(
        name=payload["name"],
        family=payload["family"],
        input_resolution=int(payload["input_resolution"]),
        stem=StemSpec(**payload["stem"]),
        blocks=tuple(BlockSpec(**block) for block in payload["blocks"]),
        head=HeadSpec(**payload["head"]),
        classifier=ClassifierSpec(**payload["classifier"]),
    )


# -- evaluation results ------------------------------------------------------------
def result_to_dict(result: EvaluationResult) -> Dict[str, Any]:
    """Flatten an evaluation result into JSON data."""
    return {**_shallow_dict(result), "group_accuracy": dict(result.group_accuracy)}


def result_from_dict(payload: Dict[str, Any]) -> EvaluationResult:
    """Rebuild an evaluation result from :func:`result_to_dict` output."""
    return EvaluationResult(
        latency_ms=float(payload["latency_ms"]),
        storage_mb=float(payload["storage_mb"]),
        num_parameters=int(payload["num_parameters"]),
        trained=bool(payload["trained"]),
        accuracy=float(payload["accuracy"]),
        unfairness=float(payload["unfairness"]),
        group_accuracy={str(k): float(v) for k, v in payload["group_accuracy"].items()},
        reward=float(payload["reward"]),
        meets_timing=bool(payload["meets_timing"]),
        meets_accuracy=bool(payload["meets_accuracy"]),
        train_seconds=float(payload["train_seconds"]),
        fidelity=str(payload.get("fidelity", "full")),
    )


# -- episode records / search history ----------------------------------------------
def record_to_dict(record: EpisodeRecord) -> Dict[str, Any]:
    """Flatten one episode record, inlining its descriptor."""
    return {
        **_shallow_dict(record),
        "descriptor": descriptor_to_dict(record.descriptor),
        "decisions": list(record.decisions),
        "group_accuracy": dict(record.group_accuracy),
        "stages": list(record.stages),
    }


def record_from_dict(payload: Dict[str, Any]) -> EpisodeRecord:
    """Rebuild one episode record from :func:`record_to_dict` output."""
    return EpisodeRecord(
        episode=int(payload["episode"]),
        descriptor=descriptor_from_dict(payload["descriptor"]),
        decisions=[str(d) for d in payload["decisions"]],
        reward=float(payload["reward"]),
        accuracy=float(payload["accuracy"]),
        unfairness=float(payload["unfairness"]),
        latency_ms=float(payload["latency_ms"]),
        storage_mb=float(payload["storage_mb"]),
        num_parameters=int(payload["num_parameters"]),
        trained=bool(payload["trained"]),
        group_accuracy={str(k): float(v) for k, v in payload["group_accuracy"].items()},
        elapsed_seconds=float(payload["elapsed_seconds"]),
        cache_hit=bool(payload.get("cache_hit", False)),
        worker=str(payload.get("worker", "")),
        fidelity=str(payload.get("fidelity", "full")),
        stages=[str(stage) for stage in payload.get("stages", [])],
    )


def history_meta_to_dict(history: SearchHistory) -> Dict[str, Any]:
    """A search history's metadata: everything but its records."""
    return {
        "space_size": history.space_size,
        "full_space_size": history.full_space_size,
        "total_seconds": history.total_seconds,
        "frozen_blocks": history.frozen_blocks,
        "searchable_blocks": history.searchable_blocks,
    }


def history_to_dict(history: SearchHistory) -> Dict[str, Any]:
    """Flatten a search history (metadata plus every record)."""
    return {
        **history_meta_to_dict(history),
        "records": [record_to_dict(record) for record in history.records],
    }


def history_from_dict(payload: Dict[str, Any]) -> SearchHistory:
    """Rebuild a search history from :func:`history_to_dict` output."""
    return SearchHistory(
        records=[record_from_dict(record) for record in payload["records"]],
        space_size=float(payload["space_size"]),
        full_space_size=float(payload["full_space_size"]),
        total_seconds=float(payload["total_seconds"]),
        frozen_blocks=int(payload["frozen_blocks"]),
        searchable_blocks=int(payload["searchable_blocks"]),
    )


# -- RNG state ----------------------------------------------------------------------
def rng_state_to_dict(rng: np.random.Generator) -> Dict[str, Any]:
    """Capture a generator's bit-generator state (JSON-safe: python ints)."""
    return rng.bit_generator.state


def rng_state_from_dict(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a generator's state captured by :func:`rng_state_to_dict`."""
    rng.bit_generator.state = state
