"""Tracing from the outside: spans around calls into the repro packages.

The benchmark never edits the program to trace it.  An :class:`Installation`
wraps a fixed set of public functions and methods (see :func:`_targets`) so
that each call records one span into a :class:`Recorder`;
:meth:`Installation.close` puts the originals back.  A span is a
:class:`repro.obs.tracing.Tracer` span payload -- name, wall-clock start
``ts``, duration ``dur``, ``span_id``, ``parent_id`` -- plus the request id
(``request``: the search episode, or the client request sequence number), the
thread (``tid``) and the process (``pid``).  Spans are kept in memory and
written out only when the benchmark ends.  The serial and process pools are
traced; the thread pool is not (no workload uses it).

Worker processes: the process pool forks after the installation, so its
workers run the wrapped functions too.  The wrapper around
``WorkerPool.map_ordered`` routes every task through :func:`traced_task`,
which records the task's spans in the worker and ships them back with the
task's value; the parent re-records them with ``Tracer.record`` under the
``engine.pool.map`` span that dispatched the task.  Starts are wall-clock
(``time.time``) timestamps, so worker and parent spans share one timeline.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.events import SPAN, EngineEvent
from repro.obs.trace_export import chrome_trace as _chrome_trace
from repro.obs.tracing import Tracer

Span = Dict[str, Any]

# The recorder the wrappers record into while installed.  It is module state
# because forked pool workers must find the same recorder through
# ``traced_task`` (a module-level function is all a task can pickle).
_ACTIVE: Optional["Recorder"] = None
_TID = "perfbench"
# The keys of a span payload that Tracer.record sets itself.
_PAYLOAD_FIELDS = ("name", "cat", "ts", "dur", "tid", "span_id", "parent_id")


class Recorder:
    """An obs :class:`Tracer` whose sink keeps every span in memory.

    On top of the tracer it tracks, per thread, the open span names (so a
    layer that re-enters itself records once) and the current request id
    (a span without one inherits its enclosing span's).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.tracer = Tracer(self._sink, tid=_TID)
        self._local = threading.local()
        # Attributes known only once a call returned, keyed by span id.
        self._late: Dict[int, Dict[str, Any]] = {}
        # Request bookkeeping of the search loop (driving thread only).
        self.episode = -1
        self._request_of: Dict[int, str] = {}

    def _sink(self, payload: Span, _episode: Optional[int]) -> None:
        if payload["tid"] == _TID:  # a live span: name its thread and process
            payload["tid"] = threading.current_thread().name
            payload["pid"] = os.getpid()
        payload.update(self._late.pop(payload["span_id"], {}))
        self.spans.append(payload)

    def _open(self) -> List[str]:
        names = getattr(self._local, "names", None)
        if names is None:
            names = self._local.names = []
        return names

    def active(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return name in self._open()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs: Any) -> Iterator[int]:
        """One span; yields its id (for :meth:`annotate`)."""
        outer = getattr(self._local, "request", None)
        self._local.request = outer if request is None else request
        names = self._open()
        names.append(name)
        try:
            with self.tracer.span(name, cat="perfbench", request=self._local.request, **attrs) as span_id:
                yield span_id
        finally:
            names.pop()
            self._local.request = outer

    def annotate(self, span_id: int, **attrs: Any) -> None:
        """Attributes for a span still open, added when it ends."""
        self._late[span_id] = attrs

    def thread_state(self, state: Optional[Tuple[List[str], Optional[str]]] = None) -> Tuple[List[str], Optional[str]]:
        """Set this thread's open span names and request (none by default);
        returns the previous ones."""
        previous = (self._open(), getattr(self._local, "request", None))
        self._local.names, self._local.request = state if state is not None else ([], None)
        return previous

    def merge(self, spans: List[Span], parent_id: int, worker: str) -> None:
        """Re-record spans measured in a pool task under ``parent_id``.

        Worker span ids may repeat the parent's, so each span gets a new id;
        spans whose parent is not among them (the task span) hang under
        ``parent_id``.  Parents are recorded before their children.
        """
        own = {span["span_id"] for span in spans}
        children: Dict[int, List[Span]] = {}
        for span in spans:
            key = span["parent_id"] if span["parent_id"] in own else 0
            children.setdefault(key, []).append(span)
        pending = [(span, parent_id) for span in children.get(0, [])]
        while pending:
            span, new_parent = pending.pop()
            attrs = {key: value for key, value in span.items() if key not in _PAYLOAD_FIELDS}
            new_id = self.tracer.record(
                span["name"], start=span["ts"], duration=span["dur"], cat="worker",
                tid=worker, parent_id=new_parent, **attrs,
            )
            pending.extend((child, new_id) for child in children.get(span["span_id"], []))

    # -- request ids ---------------------------------------------------------------
    def request_id(self, episode: int) -> str:
        return f"episode{episode}"

    def tag(self, obj: Any, request: str) -> None:
        """Remember which request produced ``obj`` (a sample or a child)."""
        self._request_of[id(obj)] = request

    def request_of(self, obj: Any) -> Optional[str]:
        return self._request_of.get(id(obj))


def active_recorder() -> Optional[Recorder]:
    """The recorder of the installed wrappers, or None outside a traced pass."""
    return _ACTIVE


def traced_task(item: Tuple[Callable[[Any], Any], Optional[str], Any]) -> Tuple[Any, List[Span]]:
    """Pool task wrapper: run ``fn(payload)`` and return its value plus spans.

    Runs in the pool's worker (a forked process, or the caller's thread for
    the serial pool).  The task's spans are collected apart from anything
    else the recorder holds and returned, so both cases merge the same way.
    """
    fn, request, payload = item
    recorder = _ACTIVE
    if recorder is None:  # pragma: no cover - the wrapper installs a recorder first
        return fn(payload), []
    # A forked worker inherits the open spans of the thread that forked it,
    # so the task starts from none.
    saved_spans, recorder.spans = recorder.spans, []
    saved_thread = recorder.thread_state()
    try:
        with recorder.span("engine.pool.task", request=request):
            value = fn(payload)
        return value, recorder.spans
    finally:
        recorder.spans = saved_spans
        recorder.thread_state(saved_thread)


# -- the wrapped call sites --------------------------------------------------------
def _fit_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    trainer, _model, images = args[0], args[1], args[2]
    return {"samples": int(images.shape[0]) * int(trainer.config.epochs)}


def _predict_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rows": int(args[2].shape[0])}


def _price_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rejected": not result.passed}


def _hit_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _checkpoint_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    from repro.engine.checkpoint import checkpoint_paths

    run_dir = args[0] if args else kwargs["run_dir"]
    return {
        "bytes": sum(
            os.path.getsize(path) for path in checkpoint_paths(run_dir) if os.path.exists(path)
        )
    }


def _put_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"bytes": len(data)}


def _targets() -> List[Tuple[Any, str, str, Optional[Callable[..., Dict[str, Any]]]]]:
    """(owner, attribute, span name, attrs-from-call) for every traced call."""
    from repro.api.spec import DatasetSpec
    from repro.core import pipeline
    from repro.core.controller import LSTMController
    from repro.core.pipeline import EvaluationPipeline
    from repro.core.policy import PolicyGradientTrainer
    from repro.core.producer import BackboneProducer
    from repro.engine import checkpoint
    from repro.engine.cache import EvaluationCache
    from repro.engine.engine import SearchEngine
    from repro.engine.workers import ProcessPool, SerialPool
    from repro.nn.trainer import Trainer
    from repro.serving.server import ModelServer
    from repro.store.core import LocalStore

    return [
        (DatasetSpec, "build", "api.dataset.build", None),
        (BackboneProducer, "prepare", "core.prepare", None),
        (BackboneProducer, "produce", "core.produce", None),
        (LSTMController, "sample", "core.controller.sample", None),
        (PolicyGradientTrainer, "observe", "core.controller.observe", None),
        (PolicyGradientTrainer, "apply_update", "core.controller.update", None),
        (SearchEngine, "run", "engine.run", None),
        (EvaluationCache, "get", "engine.cache.get", _hit_attrs),
        (EvaluationCache, "put", "engine.cache.put", None),
        (checkpoint, "save_checkpoint", "engine.checkpoint", _checkpoint_attrs),
        (EvaluationPipeline, "price", "hardware.price", _price_attrs),
        (pipeline, "evaluate_fairness", "fairness.score", None),
        (Trainer, "fit", "nn.fit", _fit_attrs),
        (Trainer, "predict", "nn.predict", _predict_attrs),
        (LocalStore, "get", "store.get", _hit_attrs),
        (LocalStore, "get_ref", "store.get", _hit_attrs),
        (LocalStore, "put_object", "store.put", _put_attrs),
        (LocalStore, "set_ref", "store.put", None),
        (ModelServer, "predict", "serving.predict", None),
        (SerialPool, "map_ordered", "engine.pool.map", None),
        (ProcessPool, "map_ordered", "engine.pool.map", None),
    ]


def _wrap(recorder: Recorder, original: Callable[..., Any], name: str, attrs_of) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # A layer entered again from inside itself (its methods share one
        # span name) stays in the outer span: calls and busy time count once.
        if recorder.active(name):
            return original(*args, **kwargs)
        with recorder.span(name) as span_id:
            result = original(*args, **kwargs)
            if attrs_of is not None:
                recorder.annotate(span_id, **attrs_of(args, kwargs, result))
            return result

    return wrapper


def _wrap_search_run(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
        # A traced pass runs one search on a fresh engine: episodes count from 0.
        recorder.episode = -1
        with recorder.span("engine.run"):
            return original(engine, *args, **kwargs)

    return run


def _wrap_sample(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def sample(controller: Any, *args: Any, **kwargs: Any) -> Any:
        recorder.episode += 1
        request = recorder.request_id(recorder.episode)
        with recorder.span("core.controller.sample", request=request):
            result = original(controller, *args, **kwargs)
        recorder.tag(result, request)
        return result

    return sample


def _wrap_produce(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def produce(producer: Any, *args: Any, **kwargs: Any) -> Any:
        request = recorder.request_id(recorder.episode)
        with recorder.span("core.produce", request=request):
            child = original(producer, *args, **kwargs)
        recorder.tag(child, request)
        return child

    return produce


def _wrap_observe(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def observe(trainer: Any, sample: Any, *args: Any, **kwargs: Any) -> Any:
        with recorder.span("core.controller.observe", request=recorder.request_of(sample)):
            return original(trainer, sample, *args, **kwargs)

    return observe


def _wrap_map(recorder: Recorder, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def map_ordered(pool: Any, fn: Callable[[Any], Any], payloads: Any) -> Any:
        workers = int(getattr(pool, "num_workers", 1))
        with recorder.span("engine.pool.map", workers=workers, tasks=len(payloads)) as span_id:
            # payload[1] is the child the task evaluates (see the engine's
            # wave payload tuples); its producer call tagged its episode.
            items = [(fn, recorder.request_of(payload[1]), payload) for payload in payloads]
            results = original(pool, traced_task, items)
            merged = []
            for (value, spans), worker in results:
                recorder.merge(spans, span_id, worker)
                merged.append((value, worker))
        return merged

    return map_ordered


_SPECIAL = {
    "engine.run": _wrap_search_run,
    "core.controller.sample": _wrap_sample,
    "core.produce": _wrap_produce,
    "core.controller.observe": _wrap_observe,
    "engine.pool.map": _wrap_map,
}


class Installation:
    """The wrappers of one traced pass; :meth:`close` restores the originals."""

    def __init__(self, recorder: Recorder):
        global _ACTIVE
        self.recorder = recorder
        self._originals: List[Tuple[Any, str, Any]] = []
        for owner, attribute, name, attrs_of in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            special = _SPECIAL.get(name)
            wrapped = special(recorder, original) if special else _wrap(recorder, original, name, attrs_of)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        _ACTIVE = recorder

    def close(self) -> None:
        global _ACTIVE
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        _ACTIVE = None


def chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """Spans as Chrome ``trace_event`` JSON (open in chrome://tracing)."""
    return _chrome_trace(EngineEvent(SPAN, payload=span) for span in spans)


# -- span arithmetic ---------------------------------------------------------------
def _end(span: Span) -> float:
    return span["ts"] + span["dur"]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cursor = 0.0, lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> self time (its duration minus what its child spans cover)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent_id"]:
            children.setdefault(span["parent_id"], []).append((span["ts"], _end(span)))
    return {
        span["span_id"]: span["dur"] - _covered(children.get(span["span_id"], []), span["ts"], _end(span))
        for span in spans
    }


def layer_metrics(spans: List[Span], histories: List[Any], serving: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``histories`` are the traced searches' histories (for the share of
    produced children that trained); ``serving`` carries the client-side
    request latencies and the model server's own stats (serve-http only).
    """
    by_id = {span["span_id"]: span for span in spans}

    def under(span: Span, name: str) -> bool:
        parent = by_id.get(span["parent_id"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent_id"])
        return False

    # Backbone pre-training calls Trainer.fit inside core.prepare (set-up);
    # the nn metrics count the children's training and inference only.
    named: Dict[str, List[Span]] = {}
    for span in spans:
        if span["name"].startswith("nn.") and under(span, "core.prepare"):
            continue
        named.setdefault(span["name"], []).append(span)

    def calls(name: str) -> int:
        return len(named.get(name, []))

    def busy(name: str) -> float:
        return sum(span["dur"] for span in named.get(name, []))

    def frac(name: str, flag: str) -> float:
        group = named.get(name, [])
        return sum(1 for span in group if span.get(flag)) / len(group) if group else 0.0

    def total(name: str, attr: str) -> float:
        return float(sum(span.get(attr, 0) for span in named.get(name, [])))

    own = self_times(spans)
    metrics: Dict[str, float] = {}
    fit_busy = busy("nn.fit")
    metrics["nn.fit.calls"] = calls("nn.fit")
    metrics["nn.fit.busy_s"] = fit_busy
    metrics["nn.fit.samples_per_s"] = total("nn.fit", "samples") / fit_busy if fit_busy else 0.0
    metrics["nn.predict.calls"] = calls("nn.predict")
    metrics["nn.predict.busy_s"] = busy("nn.predict")
    metrics["fairness.score.busy_s"] = sum(own[span["span_id"]] for span in named.get("fairness.score", []))
    metrics["core.prepare.busy_s"] = busy("core.prepare")
    metrics["api.dataset.build_s"] = busy("api.dataset.build")
    produced = calls("core.produce")
    trained = sum(
        1 for history in histories for record in history.records if record.trained and not record.cache_hit
    )
    metrics["core.produce.calls"] = produced
    metrics["core.produce.busy_s"] = busy("core.produce")
    metrics["core.produce.useful_frac"] = trained / produced if produced else 0.0
    # apply_update runs inside observe at policy-batch boundaries; count it once.
    metrics["core.controller.busy_s"] = (
        busy("core.controller.sample")
        + busy("core.controller.observe")
        + sum(
            span["dur"]
            for span in named.get("core.controller.update", [])
            if not under(span, "core.controller.observe")
        )
    )
    metrics["hardware.price.calls"] = calls("hardware.price")
    metrics["hardware.price.busy_s"] = busy("hardware.price")
    metrics["hardware.price.reject_frac"] = frac("hardware.price", "rejected")
    metrics["engine.cache.get.calls"] = calls("engine.cache.get")
    metrics["engine.cache.get.busy_s"] = busy("engine.cache.get")
    metrics["engine.cache.hit_frac"] = frac("engine.cache.get", "hit")
    metrics["engine.cache.put.calls"] = calls("engine.cache.put")
    metrics["engine.cache.put.busy_s"] = busy("engine.cache.put")
    metrics["engine.checkpoint.calls"] = calls("engine.checkpoint")
    metrics["engine.checkpoint.busy_s"] = busy("engine.checkpoint")
    metrics["engine.checkpoint.bytes"] = total("engine.checkpoint", "bytes")
    capacity = sum(span["dur"] * span.get("workers", 1) for span in named.get("engine.pool.map", []))
    metrics["engine.pool.map.busy_s"] = busy("engine.pool.map")
    metrics["engine.pool.idle_frac"] = 1.0 - busy("engine.pool.task") / capacity if capacity else 0.0
    metrics["engine.self_s"] = sum(own[span["span_id"]] for span in named.get("engine.run", []))
    metrics["store.get.calls"] = calls("store.get")
    metrics["store.get.busy_s"] = busy("store.get")
    metrics["store.hit_frac"] = frac("store.get", "hit")
    metrics["store.put.calls"] = calls("store.put")
    metrics["store.put.busy_s"] = busy("store.put")
    metrics["store.put.bytes"] = total("store.put", "bytes")

    # Serving: the model runs on the batcher's flush thread, not under the
    # request's span, so "ModelServer.predict minus nn.predict" subtracts the
    # part of each request's interval that some forward pass covered.
    requests = named.get("serving.predict", [])
    forwards = [(span["ts"], _end(span)) for span in named.get("nn.predict", [])]
    metrics["serving.predict.calls"] = len(requests)
    metrics["serving.predict.busy_s"] = sum(
        span["dur"] - _covered(forwards, span["ts"], _end(span)) for span in requests
    )
    metrics["serving.queue_wait_ms"] = _queue_wait_ms(requests, forwards)
    metrics["serving.batch_rows_mean"] = float(serving.get("batch_rows_mean", 0.0))
    client = serving.get("client_latencies_s", [])
    metrics["service.http.overhead_ms"] = (
        1e3 * (sum(client) / len(client) - busy("serving.predict") / len(requests))
        if client and requests
        else 0.0
    )
    return metrics


def _queue_wait_ms(requests: List[Span], forwards: List[Tuple[float, float]]) -> float:
    """Mean wait from a request's arrival to the start of the forward serving it.

    The forward that served a request is the last one to finish before the
    request returned.
    """
    if not requests or not forwards:
        return 0.0
    ordered = sorted(forwards, key=lambda interval: interval[1])
    ends = [end for _start, end in ordered]
    waits = []
    for span in requests:
        index = bisect.bisect_right(ends, _end(span)) - 1
        if index >= 0:
            waits.append(max(0.0, ordered[index][0] - span["ts"]))
    return 1e3 * sum(waits) / len(waits) if waits else 0.0


def span_table(spans: List[Span]) -> List[Tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) per span name, busiest first."""
    own = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["dur"]
        row[2] += own[span["span_id"]]
    return sorted(((name, int(c), t, o) for name, (c, t, o) in rows.items()), key=lambda row: -row[2])
