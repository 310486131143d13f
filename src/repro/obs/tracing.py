"""Nested span tracing over the engine's typed event stream.

A :class:`Tracer` turns lexically scoped ``with tracer.span(...)`` blocks
into ``span`` :class:`~repro.engine.events.EngineEvent` objects: one event
per *completed* span, carrying the wall-clock start (``ts``), the measured
duration (``dur``, from a monotonic clock), a ``span_id``/``parent_id`` pair
(nesting is tracked per thread) and a ``tid`` naming the timeline the span
ran on.  Emitting only at span end keeps the event volume at one line per
span and makes every event self-contained -- a tail can render a span
without pairing begin/end lines.

Workers measure their own training time (possibly in another process), so
spans can also be recorded *post hoc* with :meth:`Tracer.record`: the engine
feeds it the start/duration a worker shipped back, labelled with the
worker's identity, which is what makes a trace show the wave's actual
parallelism.

Spans ride the existing telemetry schema, so they are persisted per run in
``telemetry.jsonl`` and served by every event transport unchanged;
:mod:`repro.obs.trace_export` converts them to Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from repro.obs import metrics as _metrics

# A sink receives (payload, episode) for each completed span.
SpanSink = Callable[[Dict[str, Any], Optional[int]], None]


class Tracer:
    """Emits completed spans to a sink (the engine wires it to its event bus)."""

    def __init__(self, sink: SpanSink, tid: str = "engine"):
        self._sink = sink
        self.tid = tid
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span_id(self) -> int:
        """The innermost open span's id on this thread (0 outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "engine",
        episode: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[int]:
        """Measure the enclosed block as one span; yields the span id."""
        if not _metrics.enabled():
            yield 0
            return
        span_id = next(self._ids)
        stack = self._stack()
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        wall_start = time.time()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self._emit(
                name, cat, wall_start, duration, self.tid,
                span_id, parent_id, episode, attrs,
            )

    def record(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        cat: str = "worker",
        tid: Optional[str] = None,
        episode: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a span measured elsewhere (e.g. by a worker process).

        ``start`` is a wall-clock (``time.time``) timestamp; ``parent_id``
        defaults to the caller's innermost open span, which is how worker
        training spans nest under the engine's stage span.
        """
        if not _metrics.enabled():
            return 0
        span_id = next(self._ids)
        if parent_id is None:
            parent_id = self.current_span_id
        self._emit(
            name, cat, start, duration, tid or self.tid,
            span_id, parent_id, episode, attrs,
        )
        return span_id

    def _emit(
        self,
        name: str,
        cat: str,
        wall_start: float,
        duration: float,
        tid: str,
        span_id: int,
        parent_id: int,
        episode: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        payload = {
            "name": name,
            "cat": cat,
            "ts": wall_start,
            "dur": duration,
            "tid": tid,
            "span_id": span_id,
            "parent_id": parent_id,
        }
        if attrs:
            payload.update(attrs)
        self._sink(payload, episode)
