"""Request micro-batching: coalesce concurrent predicts into one forward pass.

Single-row inference through a pure-numpy network is dominated by per-layer
Python dispatch; a batch of 32 rows pays that overhead once.  The
:class:`MicroBatcher` exploits this: callers block in :meth:`predict` while
a single flush thread gathers concurrent requests into one batch and runs
the model once, so serving throughput scales with batch efficiency instead
of request count.

Flush policy (the two serving knobs):

* **max_batch_size** -- a flush fires as soon as this many rows are queued,
* **max_delay_ms** -- a flush fires this long after the batching window
  opened, whatever the batch size.  The window opens when the *oldest*
  queued request arrived or, if a batch was running then, when that batch
  finished, so a request waits at most the batch in flight plus this
  delay.  A window that ran during the batch ahead would split a closed
  loop of clients: one that missed a batch would flush almost alone the
  moment the model is free, its peers out of phase in the next.

The queue is bounded (``max_queue`` rows): a submit that would overflow it
raises :class:`QueueFull` immediately -- backpressure, surfaced as HTTP 429
by the daemon -- instead of letting latency grow without bound.  Requests
are never split across flushes and results are re-sliced per request in
submission order, so callers always get their own rows back.

All timing uses the monotonic clock and the ``repro.obs`` instruments only
*observe* (requests, batch sizes, queue waits); flush decisions never read a
metric, and disabling instrumentation leaves predictions bit-identical.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics

BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# Serving instruments, cached per registry (same idiom as the trainer's).
_instrument_cache: Tuple[Optional[obs_metrics.MetricsRegistry], tuple] = (None, ())


def _serving_instruments() -> tuple:
    global _instrument_cache
    registry = obs_metrics.get_registry()
    cached_registry, instruments = _instrument_cache
    if cached_registry is not registry:
        instruments = (
            registry.counter(
                "repro_serving_requests_total",
                "Predict requests completed",
                labelnames=("model",),
            ),
            registry.counter(
                "repro_serving_batches_total",
                "Micro-batches executed",
                labelnames=("model",),
            ),
            registry.counter(
                "repro_serving_rejected_total",
                "Predict requests rejected by queue backpressure",
                labelnames=("model",),
            ),
            registry.histogram(
                "repro_serving_batch_size",
                "Rows per executed micro-batch",
                labelnames=("model",),
                buckets=BATCH_SIZE_BUCKETS,
            ),
            registry.histogram(
                "repro_serving_queue_wait_seconds",
                "Time a request spent queued before its batch ran",
                labelnames=("model",),
            ),
            registry.histogram(
                "repro_serving_request_seconds",
                "End-to-end request latency (queue wait + batch compute)",
                labelnames=("model",),
            ),
        )
        _instrument_cache = (registry, instruments)  # repro-lint: disable=THR001 -- benign last-write-wins cache: concurrent writers build identical tuples from the same locked registry
    return instruments


class QueueFull(RuntimeError):
    """The batcher's bounded request queue is at capacity (backpressure)."""

    def __init__(self, model: str, queued_rows: int, max_queue: int):
        super().__init__(
            f"serving queue for model {model!r} is full "
            f"({queued_rows}/{max_queue} rows queued); retry later"
        )
        self.model = model
        self.queued_rows = queued_rows
        self.max_queue = max_queue


class _Pending:
    """One in-flight predict call, owned by its submitting thread."""

    __slots__ = ("inputs", "enqueued", "done", "result", "error")

    def __init__(self, inputs: np.ndarray, enqueued: float):
        self.inputs = inputs
        self.enqueued = enqueued
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Coalesces concurrent ``predict`` calls into single batched forwards.

    ``predict_fn`` receives one ``(rows, *input_shape)`` array per flush and
    must return one result row per input row; it runs only on the flush
    thread, so a non-thread-safe model (every :class:`~repro.nn.module.Module`
    is one) is safe behind a batcher.  ``input_shape`` (when given) validates
    each submission's trailing shape up front, so one malformed request fails
    alone instead of poisoning the batch it would have joined.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        max_batch_size: int = 32,
        max_delay_ms: float = 5.0,
        max_queue: int = 128,
        input_shape: Optional[Tuple[int, ...]] = None,
        model_name: str = "model",
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if max_queue < max_batch_size:
            raise ValueError("max_queue must be at least max_batch_size")
        self.predict_fn = predict_fn
        self.max_batch_size = max_batch_size
        self.max_delay_ms = max_delay_ms
        self.max_queue = max_queue
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.model_name = model_name

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: List[_Pending] = []
        self._pending_rows = 0
        self._closed = False
        # When the flush thread last finished a batch (flush thread only).
        self._flushed_at = 0.0
        # Reusable staging buffer: steady-state serving copies request rows
        # into the same workspace instead of concatenating fresh arrays.
        self._staging: Optional[np.ndarray] = None
        self._staging_key: Optional[Tuple[Tuple[int, ...], np.dtype]] = None
        # Plain counters for stats(); metrics mirror these when obs is on.
        self._requests_total = 0
        self._batches_total = 0
        self._rejected_total = 0
        self._rows_total = 0
        self._largest_batch = 0

        self._thread = threading.Thread(
            target=self._flush_loop,
            daemon=True,
            name=f"repro-serving-batcher-{model_name}",
        )
        self._thread.start()

    # -- submission ----------------------------------------------------------------
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Block until the micro-batch containing ``inputs`` has run.

        ``inputs`` is one request of shape ``(rows, *input_shape)``; the
        returned array holds exactly this request's result rows, in order.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim < 2:
            raise ValueError(
                f"predict expects a batch of shape (rows, ...); got {inputs.shape}"
            )
        if self.input_shape is not None and tuple(inputs.shape[1:]) != self.input_shape:
            raise ValueError(
                f"request rows have shape {tuple(inputs.shape[1:])}, "
                f"model expects {self.input_shape}"
            )
        rows = inputs.shape[0]
        if rows == 0:
            return np.zeros((0,), dtype=np.int64)

        pending = _Pending(inputs, time.monotonic())
        with self._lock:
            if self._closed:
                raise RuntimeError(f"batcher for {self.model_name!r} is closed")
            if self._pending_rows + rows > self.max_queue:
                self._rejected_total += 1
                if obs_metrics.enabled():
                    _serving_instruments()[2].labels(model=self.model_name).inc()
                raise QueueFull(self.model_name, self._pending_rows, self.max_queue)
            self._pending.append(pending)
            self._pending_rows += rows
            self._wake.notify()
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        return pending.result

    # -- flush thread --------------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Wait for a full batch or an expired deadline; None when drained."""
        with self._lock:
            while True:
                if self._pending:
                    if self._pending_rows >= self.max_batch_size:
                        break
                    opened = max(self._pending[0].enqueued, self._flushed_at)
                    remaining = opened + self.max_delay_ms / 1000.0 - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wake.wait(timeout=remaining)
                elif self._closed:
                    return None
                else:
                    self._wake.wait()
            taken: List[_Pending] = []
            rows = 0
            while self._pending:
                request = self._pending[0]
                request_rows = request.inputs.shape[0]
                if taken and rows + request_rows > self.max_batch_size:
                    break
                taken.append(self._pending.pop(0))
                rows += request_rows
            self._pending_rows -= rows
            return taken

    def _staging_view(self, taken: List[_Pending], total: int) -> np.ndarray:
        """Copy the requests into the reusable staging workspace."""
        row_shape = tuple(taken[0].inputs.shape[1:])
        dtype = taken[0].inputs.dtype
        key = (row_shape, dtype)
        if (
            self._staging is None
            or self._staging_key != key
            or self._staging.shape[0] < total
        ):
            capacity = max(self.max_batch_size, total)
            self._staging = np.empty((capacity,) + row_shape, dtype=dtype)
            self._staging_key = key
        view = self._staging[:total]
        offset = 0
        for request in taken:
            rows = request.inputs.shape[0]
            view[offset : offset + rows] = request.inputs
            offset += rows
        return view

    def _run_batch(self, taken: List[_Pending]) -> None:
        total = sum(request.inputs.shape[0] for request in taken)
        started = time.monotonic()
        instrumented = obs_metrics.enabled()
        try:
            homogeneous = all(
                request.inputs.shape[1:] == taken[0].inputs.shape[1:]
                and request.inputs.dtype == taken[0].inputs.dtype
                for request in taken
            )
            if homogeneous:
                batch = self._staging_view(taken, total)
            else:
                batch = np.concatenate([request.inputs for request in taken])
            results = np.asarray(self.predict_fn(batch))
            if results.shape[0] != total:
                raise RuntimeError(
                    f"predict_fn returned {results.shape[0]} rows for a "
                    f"{total}-row batch"
                )
            offset = 0
            for request in taken:
                rows = request.inputs.shape[0]
                # Copy: the model may hand back views of reusable buffers.
                request.result = np.array(results[offset : offset + rows], copy=True)
                offset += rows
        except BaseException as error:  # surface on every waiting caller
            for request in taken:
                request.error = error
        finally:
            finished = time.monotonic()
            with self._lock:
                self._requests_total += len(taken)
                self._batches_total += 1
                self._rows_total += total
                self._largest_batch = max(self._largest_batch, total)
            if instrumented:
                instruments = _serving_instruments()
                label = {"model": self.model_name}
                instruments[0].labels(**label).inc(len(taken))
                instruments[1].labels(**label).inc()
                instruments[3].labels(**label).observe(float(total))
                for request in taken:
                    instruments[4].labels(**label).observe(
                        started - request.enqueued
                    )
                    instruments[5].labels(**label).observe(
                        finished - request.enqueued
                    )
            for request in taken:
                request.done.set()
            self._flushed_at = time.monotonic()

    # -- lifecycle / stats ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live counters (requests, batches, rejections, mean batch size)."""
        with self._lock:
            batches = self._batches_total
            return {
                "model": self.model_name,
                "max_batch_size": self.max_batch_size,
                "max_delay_ms": self.max_delay_ms,
                "max_queue": self.max_queue,
                "requests_total": self._requests_total,
                "batches_total": batches,
                "rejected_total": self._rejected_total,
                "queued_rows": self._pending_rows,
                "largest_batch": self._largest_batch,
                "mean_batch_size": (self._rows_total / batches) if batches else 0.0,
            }

    def close(self, timeout: float = 5.0) -> None:
        """Drain queued requests, then stop the flush thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join(timeout=timeout)
