"""Search-engine subsystem: the execution layer of the NAS framework.

* :mod:`repro.engine.engine` -- :class:`SearchEngine`: batched parallel
  episode execution with deterministic, backend-independent results,
* :mod:`repro.engine.cache` -- content-addressed evaluation memoization,
* :mod:`repro.engine.workers` -- serial / thread / process worker pools,
* :mod:`repro.engine.checkpoint` -- checkpoint/resume of a running search,
* :mod:`repro.engine.events` -- event bus plus JSONL telemetry.
"""

from repro.engine.cache import EvaluationCache
from repro.engine.checkpoint import (
    EngineCheckpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.engine import (
    EngineConfig,
    SearchEngine,
    StopToken,
)
from repro.engine.events import EngineEvent, EventBus, JsonlTelemetry
from repro.engine.workers import (
    BACKENDS,
    ProcessPool,
    SerialPool,
    ThreadPool,
    WorkerPool,
    create_pool,
)

__all__ = [
    "EvaluationCache",
    "EngineCheckpoint",
    "has_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "EngineConfig",
    "SearchEngine",
    "StopToken",
    "EngineEvent",
    "EventBus",
    "JsonlTelemetry",
    "BACKENDS",
    "ProcessPool",
    "SerialPool",
    "ThreadPool",
    "WorkerPool",
    "create_pool",
]
