"""Engine event bus and JSONL telemetry.

The engine announces everything observable about a run -- episodes
finishing, cache hits, checkpoints being written -- as
:class:`EngineEvent` objects on an :class:`EventBus`.  Consumers subscribe
with plain callables; the built-in :class:`JsonlTelemetry` consumer appends
one JSON line per event to ``<run_dir>/telemetry.jsonl`` so that external
tooling (dashboards, tail -f, post-hoc analysis) can follow a search without
touching engine internals.

:meth:`EngineEvent.to_dict` / :meth:`EngineEvent.from_dict` are exact
inverses, so one ``EngineEvent`` schema serves both transports: a live
in-process subscription sees the same objects an out-of-process consumer
reconstructs from ``telemetry.jsonl`` lines (this is what the run service's
typed event streams are built on).

A raising subscriber never kills the emitting engine loop: the failure is
caught, announced once as a ``consumer-error`` event, and delivery
continues -- telemetry is observability, not a load-bearing dependency.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

# Event kinds emitted by the engine.
RUN_STARTED = "run-started"
RUN_FINISHED = "run-finished"
BATCH_FINISHED = "batch-finished"
EPISODE_FINISHED = "episode-finished"
CACHE_HIT = "cache-hit"
CHECKPOINT_WRITTEN = "checkpoint-written"
# Evaluation-pipeline kinds (promotions need a multi-rung ladder).
GATE_REJECTED = "gate-rejected"
STAGE_FINISHED = "stage-finished"
WAVE_PROMOTED = "wave-promoted"
# Engine-level scheduling kinds.
EARLY_STOPPED = "early-stopped"
WAVE_RESIZED = "wave-resized"
# Lifecycle / bus-health kinds.
RUN_CANCELLED = "run-cancelled"
CONSUMER_ERROR = "consumer-error"
# Observability kinds (repro.obs): one completed tracer span; one aggregated
# metrics snapshot per wave (elapsed, episodes/sec, cache hit rate).
SPAN = "span"
METRICS_UPDATED = "metrics-updated"
# Fleet supervision kinds (repro.fleet): the worker fabric fell back to local
# execution; an expired lease was returned to pending; an agent missed enough
# heartbeats to be declared dead.
FLEET_DEGRADED = "fleet-degraded"
FLEET_LEASE_REASSIGNED = "fleet-lease-reassigned"
FLEET_AGENT_DEAD = "fleet-agent-dead"
# Artifact-store kind (repro.store): the remote store tier became
# unreachable and the run fell back to local-only caching.
STORE_DEGRADED = "store-degraded"

# Kinds that end a run's event stream (a tail can stop following after one).
TERMINAL_KINDS = (RUN_FINISHED, RUN_CANCELLED)

# The reserved top-level keys of a serialized event; everything else on a
# telemetry line is payload.
_EVENT_FIELDS = ("kind", "episode", "timestamp")


@dataclass(frozen=True)
class EngineEvent:
    """One observable engine occurrence."""

    kind: str
    episode: Optional[int] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "episode": self.episode,
            "timestamp": self.timestamp,
            **self.payload,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EngineEvent":
        """Rebuild an event from its :meth:`to_dict` form (telemetry line).

        Forward-compatible by construction: every top-level key this version
        does not reserve -- including kinds and payload fields introduced by
        a *newer* engine (span/metric events, say) -- lands in ``payload``
        untouched, and malformed reserved fields degrade to their defaults
        instead of raising.  An old CLI can therefore tail a stream written
        by a newer engine; only a line that is not an event at all (no
        ``kind``) is rejected.
        """
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError(f"not a serialized engine event: {payload!r}")
        rest = {k: v for k, v in payload.items() if k not in _EVENT_FIELDS}
        episode = payload.get("episode")
        try:
            episode = None if episode is None else int(episode)
        except (TypeError, ValueError):
            episode = None
        try:
            timestamp = float(payload.get("timestamp", 0.0))
        except (TypeError, ValueError):
            timestamp = 0.0
        return cls(
            kind=str(payload["kind"]),
            episode=episode,
            payload=rest,
            timestamp=timestamp,
        )

    @property
    def is_terminal(self) -> bool:
        """True for the kinds that end a run's event stream."""
        return self.kind in TERMINAL_KINDS


EventCallback = Callable[[EngineEvent], None]


class EventBus:
    """Minimal synchronous publish/subscribe hub.

    Subscriber exceptions are isolated: the first failure of each consumer is
    announced as a single ``consumer-error`` event and the consumer stays
    subscribed (it may fail transiently); the engine loop never sees the
    exception.
    """

    def __init__(self) -> None:
        self._subscribers: List[tuple] = []
        # id() of every callback whose failure was already announced -- the
        # consumer-error event is emitted once per consumer, not per event.
        self._announced_failures: Set[int] = set()

    def subscribe(
        self, callback: EventCallback, kinds: Optional[List[str]] = None
    ) -> EventCallback:
        """Register ``callback`` for ``kinds`` (or every kind when None)."""
        self._subscribers.append((callback, None if kinds is None else set(kinds)))
        return callback

    def unsubscribe(self, callback: EventCallback) -> None:
        """Remove every registration of ``callback``."""
        self._subscribers = [
            (cb, kinds) for cb, kinds in self._subscribers if cb is not callback
        ]
        # An unsubscribed callback's id() may be recycled by a later one.
        self._announced_failures.discard(id(callback))

    def emit(self, event: EngineEvent) -> None:
        """Deliver ``event`` to every matching subscriber, in order."""
        for callback, kinds in list(self._subscribers):
            if kinds is None or event.kind in kinds:
                try:
                    callback(event)
                except Exception as error:
                    self._note_failure(callback, event, error)

    def _note_failure(
        self, callback: EventCallback, event: EngineEvent, error: Exception
    ) -> None:
        """Announce a consumer's first failure; later ones stay silent.

        Announcing through :meth:`emit` means the failing consumer receives
        the consumer-error event too -- if it raises again it is already in
        the announced set, so the recursion bottoms out after one level.
        """
        if id(callback) in self._announced_failures:
            return
        self._announced_failures.add(id(callback))
        self.emit(
            EngineEvent(
                kind=CONSUMER_ERROR,
                episode=event.episode,
                payload={
                    "consumer": getattr(
                        callback, "__qualname__", type(callback).__name__
                    ),
                    "failed_kind": event.kind,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(limit=5),
                },
            )
        )


class JsonlTelemetry:
    """Event consumer appending one JSON line per event to a file.

    The file handle is kept open across events and flushed after every line,
    so a ``repro-search tail`` on a live run directory sees each event as
    soon as it is emitted (no buffer-boundary latency) without paying an
    open/close syscall pair per event.  Every write leaves a complete line
    on disk, so an engine that never reaches :meth:`close` loses nothing.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = None

    def __call__(self, event: EngineEvent) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Release the file handle (idempotent; reopened on the next event)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.close()
        except Exception:
            pass
