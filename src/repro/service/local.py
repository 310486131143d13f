"""The in-process executor backend: worker threads + on-disk registry.

:class:`LocalExecutor` turns the synchronous :func:`repro.api.run.run` into
the non-blocking lifecycle the :class:`~repro.service.client.RunClient` API
exposes.  Every run gets a directory under the runs root (spec, status,
telemetry, checkpoint, report) and a bounded worker-slot pool executes
submissions in strict FIFO order -- submissions beyond the slot count
queue.  This is the engine room of the HTTP daemon (``repro-search serve``),
of ``repro-search submit`` without a daemon and of any shared-filesystem
scheduler.  ``repro.run`` itself does not come through here: it executes in
the caller's thread.

Cancellation is cooperative: each run carries a file-backed
:class:`~repro.engine.engine.StopToken`, so ``repro-search cancel`` works
from another process; the engine stops at a wave boundary and leaves a
resumable checkpoint.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional

from repro.api.run import RunReport, _resolve_engine_config, _resolve_spec
from repro.api.run import run as run_spec
from repro.engine.engine import StopToken
from repro.engine.events import EngineEvent
from repro.obs import metrics as obs_metrics
from repro.service import registry as reg
from repro.service.errors import (
    RunCancelled,
    RunNotFound,
    RunNotReady,
    ServiceDraining,
)
from repro.service.events import EventLog, tail_telemetry
from repro.service.registry import RunRegistry


class _Run:
    """In-memory state of one submitted run."""

    def __init__(self, run_id: str, stop_token: StopToken):
        self.run_id = run_id
        self.stop_token = stop_token
        self.events = EventLog()
        self.done = threading.Event()
        self.started = False
        self.report: Optional[RunReport] = None
        self.error: Optional[BaseException] = None
        self.resume = False


class LocalExecutor:
    """Executes registered runs on worker threads; see the module docstring."""

    # Finished _Run objects retained in memory: beyond this, the oldest are
    # evicted -- their status/report/events all have file-backed fallbacks,
    # so only the live RunReport object is lost.
    MAX_RETAINED_RUNS = 64

    def __init__(self, runs_root: str, max_workers: int = 1, recover: bool = False):
        if max_workers < 1:
            raise ValueError("max_workers must be a positive number of slots")
        self.registry = RunRegistry(runs_root)
        self.max_workers = max_workers
        self._runs: Dict[str, _Run] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._workers: List[threading.Thread] = []
        self._busy_slots = 0
        self._draining = False
        self._register_metric_callbacks()
        if recover:
            self._recover_stale_runs()

    def _register_metric_callbacks(self) -> None:
        """Expose the executor's state as scrape-time gauges (repro.obs).

        Callbacks are evaluated when ``/metrics`` is rendered, so they always
        reflect the live registry/queue; registering replaces any same-named
        callback, so the newest executor in a process owns the fleet gauges.
        """
        metrics = obs_metrics.get_registry()
        metrics.register_callback(
            "repro_service_worker_slots",
            "Configured worker slots",
            lambda: float(self.max_workers),
        )
        metrics.register_callback(
            "repro_service_slots_busy",
            "Worker slots currently executing a run",
            lambda: float(self._busy_slots),
        )
        metrics.register_callback(
            "repro_service_queue_depth",
            "Submissions waiting for a worker slot",
            lambda: float(self._queue.qsize()),
        )
        metrics.register_callback(
            "repro_service_runs", "Known runs by state", self._runs_by_state
        )

    def _runs_by_state(self) -> List[Any]:
        counts: Dict[str, int] = {}
        for status in self.list_runs():
            state = status.get("state", "unknown")
            counts[state] = counts.get(state, 0) + 1
        return [({"state": state}, float(count)) for state, count in sorted(counts.items())]

    def _recover_stale_runs(self) -> None:
        """Adopt runs a previous process left non-terminal (daemon restart).

        Queued runs re-enqueue in their original submission order (the spec
        is archived); runs stuck in 'running' are marked failed -- their
        engine died with the old process -- which makes them resumable from
        whatever checkpoint they last wrote.  Only an executor that *owns*
        the runs root may do this (the daemon passes ``recover=True``);
        side-car executors on a shared root must not, or they would hijack
        the owner's live runs.
        """
        for status in self.registry.list_statuses():
            run_id = status["run_id"]
            if status["state"] == reg.RUNNING:
                self.registry.update_status(
                    run_id,
                    state=reg.FAILED,
                    finished_at=time.time(),
                    error="interrupted: the executing process exited mid-run",
                )
            elif status["state"] == reg.QUEUED:
                run = _Run(
                    run_id, StopToken(path=self.registry.cancel_path(run_id))
                )
                with self._lock:
                    self._runs[run_id] = run
                self._enqueue(run_id)

    # -- submission ----------------------------------------------------------------
    def submit(self, spec: Any, **options: Any) -> str:
        """Validate, register and enqueue a run; returns its id without blocking.

        ``options`` are keyword arguments of :func:`repro.api.run.run`; only
        ``engine`` applies, because a registered run must be fully described
        by its archived spec.  Validation -- spec schema, strategy lookup,
        engine-section conflicts -- happens here, synchronously, so a bad
        submission fails loudly at the submitter, not inside a worker thread.
        """
        if self._draining:
            raise ServiceDraining("submission")
        resolved = _resolve_spec(spec)
        if any(
            options.get(name) is not None
            for name in ("train_dataset", "validation_dataset", "design_spec")
        ):
            raise ValueError(
                "registry-managed runs must be fully described by their "
                "spec; injected datasets/design specs cannot be archived"
            )
        if options.get("resume"):
            raise ValueError(
                "registry-managed runs resume by id: call resume(run_id) "
                "instead of submit(spec, resume=True)"
            )
        # Resolve the effective engine configuration now (raises on the
        # spec-vs-explicit conflict) and re-root it into the registry's run
        # directory, so the archived run_spec.json is resume-ready verbatim.
        engine_config = _resolve_engine_config(resolved, options.get("engine"))
        run_id = reg.new_run_id()
        registry = self.registry
        effective = replace(
            engine_config, run_dir=registry.run_dir(run_id), telemetry=True
        )
        registry.create(replace(resolved, engine=effective), run_id=run_id)
        run = _Run(run_id, StopToken(path=registry.cancel_path(run_id)))
        with self._lock:
            self._runs[run_id] = run
        self._enqueue(run_id)
        return run_id

    def resume(self, run_id: str) -> str:
        """Re-queue a registered run from its checkpoint (same run id)."""
        if self._draining:
            raise ServiceDraining("resume")
        registry = self.registry
        status = registry.load_status(run_id)
        if status["state"] not in reg.TERMINAL_STATES:
            raise ValueError(
                f"run {run_id!r} is {status['state']}; only a finished, "
                "failed or cancelled run can be resumed"
            )
        from repro.engine.checkpoint import has_checkpoint

        if not has_checkpoint(registry.run_dir(run_id)):
            raise ValueError(
                f"run {run_id!r} has no checkpoint to resume from"
            )
        registry.clear_cancel(run_id)  # a stale marker would re-cancel instantly
        registry.update_status(
            run_id,
            state=reg.QUEUED,
            finished_at=None,
            error=None,
            cancel_requested=False,
        )
        run = _Run(run_id, StopToken(path=registry.cancel_path(run_id)))
        run.resume = True
        with self._lock:
            self._runs[run_id] = run
        self._enqueue(run_id)
        return run_id

    # -- worker plumbing -----------------------------------------------------------
    def _enqueue(self, run_id: str) -> None:
        self._queue.put(run_id)
        with self._lock:
            self._workers = [t for t in self._workers if t.is_alive()]
            while len(self._workers) < self.max_workers:
                worker = threading.Thread(
                    target=self._worker_loop, daemon=True,
                    name=f"repro-run-worker-{len(self._workers)}",
                )
                worker.start()
                self._workers.append(worker)

    def _worker_loop(self) -> None:
        while True:
            run_id = self._queue.get()
            if run_id is None:  # shutdown sentinel
                return
            try:
                self._execute(run_id)
            finally:
                self._queue.task_done()

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = 30.0) -> List[str]:
        """Graceful wind-down: refuse new work, checkpoint what is running.

        New submissions/resumes raise :class:`ServiceDraining` from the
        moment this returns control flow to the caller.  Every run already
        *executing* gets a cooperative stop request -- the engine halts at
        its next wave boundary and leaves a resumable checkpoint -- and the
        drain waits (up to ``timeout`` seconds total) for those runs to
        finalize.  Queued-but-unstarted runs are left queued on disk: a
        successor started with ``recover=True`` re-enqueues them, so no
        accepted work is lost.  Returns the ids of the runs that were
        checkpointed.
        """
        self._draining = True  # repro-lint: disable=THR001 -- one-way bool flip, atomic under the GIL; submit observes either value safely
        with self._lock:
            in_flight = [
                run
                for run in self._runs.values()
                if run.started and not run.done.is_set()
            ]
        for run in in_flight:
            run.stop_token.request()
            self.registry.request_cancel(run.run_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        for run in in_flight:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            run.done.wait(timeout=remaining)
        self.shutdown(wait=True)
        return [run.run_id for run in in_flight]

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool; queued-but-unstarted runs stay queued."""
        with self._lock:
            workers = list(self._workers)
            self._workers = []
        for _ in workers:
            self._queue.put(None)
        if wait:
            for worker in workers:
                worker.join(timeout=5.0)

    # -- execution -----------------------------------------------------------------
    def _execute(self, run_id: str) -> None:
        run = self._runs[run_id]
        if self._draining and not run.started:
            # A worker dequeued this run after the drain began: leave it
            # queued (its on-disk state is untouched) for a recovering
            # successor to adopt instead of starting work we would only
            # have to interrupt.
            return
        with self._lock:
            if run.done.is_set():
                return  # cancelled while queued
            # Claimed under the lock: cancel() only short-circuits a run that
            # has not been claimed, so a run never both starts and finalizes.
            run.started = True
        if run.stop_token.is_set():
            self._finalize_cancelled_before_start(run)
            return
        self._set_status(run, state=reg.RUNNING, started_at=time.time())
        self._busy_slots += 1
        try:
            report = run_spec(
                self.registry.load_spec(run_id),
                resume=run.resume,
                stop_token=run.stop_token,
                event_callback=run.events.append,
            )
            run.report = report
            state = reg.CANCELLED if report.cancelled else reg.FINISHED
            best = report.best
            self._set_status(
                run,
                state=state,
                finished_at=time.time(),
                episodes_done=len(report.history),
                best_reward=None if best is None else best.reward,
                resumed_from=report.resumed_from,
            )
            self.registry.save_report(run_id, report.to_dict())
        except BaseException as error:  # re-raised to the caller by result()
            run.error = error
            self._set_status(
                run,
                state=reg.FAILED,
                finished_at=time.time(),
                error=f"{type(error).__name__}: {error}",
            )
        finally:
            self._busy_slots -= 1
            run.events.close()
            run.done.set()
            self._evict_finished_runs()

    def _evict_finished_runs(self) -> None:
        """Bound in-memory retention of completed runs.

        Everything an evicted run can still be asked for -- status, report,
        events -- is served from its run directory; only ``result()``'s live
        ``RunReport`` object is tied to the in-memory record.
        """
        with self._lock:
            done = [run for run in self._runs.values() if run.done.is_set()]
            for run in done[: max(0, len(done) - self.MAX_RETAINED_RUNS)]:
                del self._runs[run.run_id]

    def _finalize_cancelled_before_start(self, run: _Run) -> None:
        self._set_status(run, state=reg.CANCELLED, finished_at=time.time())
        run.events.close()
        run.done.set()

    def _set_status(self, run: _Run, **changes: Any) -> Dict[str, Any]:
        with self._lock:
            return self.registry.update_status(run.run_id, **changes)

    # -- lifecycle queries ----------------------------------------------------------
    def _get_run(self, run_id: str) -> Optional[_Run]:
        with self._lock:
            return self._runs.get(run_id)

    def status(self, run_id: str) -> Dict[str, Any]:
        return self.registry.load_status(run_id)  # raises RunNotFound

    def result(self, run_id: str, timeout: Optional[float] = None) -> RunReport:
        """Block until the run completes; return the live RunReport object."""
        run = self._get_run(run_id)
        if run is None:
            raise RunNotFound(run_id)
        if not run.done.wait(timeout=timeout):
            raise TimeoutError(
                f"run {run_id!r} did not complete within {timeout} seconds"
            )
        if run.error is not None:
            raise run.error
        if run.report is None or run.report.cancelled:
            raise RunCancelled(run_id)
        return run.report

    def report(self, run_id: str) -> Dict[str, Any]:
        """The finished run's ``to_dict`` payload (works across restarts)."""
        run = self._get_run(run_id)
        if run is not None and run.report is not None:
            return run.report.to_dict()
        payload = self.registry.load_report(run_id)
        if payload is not None:
            return payload
        status = self.status(run_id)  # raises RunNotFound on an unknown id
        raise RunNotReady(run_id, status["state"])

    def cancel(self, run_id: str) -> Dict[str, Any]:
        run = self._get_run(run_id)
        if run is None:
            if self.registry.exists(run_id):
                # A run owned by another process on the shared runs root:
                # the marker file reaches its file-backed stop token.
                return self.registry.request_cancel(run_id)
            raise RunNotFound(run_id)
        if run.done.is_set():
            return self.status(run_id)
        run.stop_token.request()
        self.registry.request_cancel(run_id)  # marker file + status flag
        # A run still waiting for a worker slot never starts: finalize now so
        # cancel-while-queued is immediate rather than deferred to dequeue.
        with self._lock:
            finalize = not run.started and not run.done.is_set()
        if finalize:
            self._finalize_cancelled_before_start(run)
        return self.status(run_id)

    def events(
        self, run_id: str, since: int = 0, follow: bool = False
    ) -> Iterator[EngineEvent]:
        run = self._get_run(run_id)
        if run is not None:
            return run.events.iter(since=since, follow=follow)
        if self.registry.exists(run_id):
            return tail_telemetry(
                self.registry.telemetry_path(run_id), since=since, follow=follow
            )
        raise RunNotFound(run_id)

    def list_runs(self) -> List[Dict[str, Any]]:
        return self.registry.list_statuses()
