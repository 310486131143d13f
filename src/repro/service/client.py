"""The run lifecycle client API: :class:`RunClient` and :class:`RunHandle`.

A run is something you *submit*, then watch, cancel or resume by id::

    client = RunClient.local(runs_root="runs")       # in-process executor
    client = RunClient.connect("http://host:8023")   # repro-search serve

    handle = client.submit("spec.json")
    for event in handle.events(follow=True):         # typed EngineEvent stream
        ...
    report = handle.result()                         # blocks; raises on failure

Both backends implement the same :class:`Executor` protocol, so everything
above is backend-agnostic.  ``repro.run(spec)`` needs no client: it runs
the same code in the caller's thread and returns the report.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Protocol

from repro.engine.events import EngineEvent


class Executor(Protocol):
    """Backend protocol of the run lifecycle API.

    ``submit`` returns a run id immediately (execution is asynchronous);
    every other method addresses a run by that id.  ``result`` returns the
    in-process :class:`~repro.api.run.RunReport` where one exists and the
    report's ``to_dict`` payload across process boundaries; ``report``
    always returns the dict payload.
    """

    def submit(self, spec: Any, **options: Any) -> str:
        ...

    def resume(self, run_id: str) -> str:
        ...

    def status(self, run_id: str) -> Dict[str, Any]:
        ...

    def result(self, run_id: str, timeout: Optional[float] = None) -> Any:
        ...

    def report(self, run_id: str) -> Dict[str, Any]:
        ...

    def cancel(self, run_id: str) -> Dict[str, Any]:
        ...

    def events(
        self, run_id: str, since: int = 0, follow: bool = False
    ) -> Iterator[EngineEvent]:
        ...

    def list_runs(self) -> List[Dict[str, Any]]:
        ...


class RunHandle:
    """One submitted run: status, typed event stream, result, cancellation."""

    def __init__(self, executor: Executor, run_id: str):
        self.executor = executor
        self.run_id = run_id

    def __repr__(self) -> str:
        return f"RunHandle({self.run_id!r})"

    def status(self) -> Dict[str, Any]:
        """The run's current lifecycle status (state, timestamps, error)."""
        return self.executor.status(self.run_id)

    @property
    def state(self) -> str:
        """Shorthand for ``status()['state']``."""
        return str(self.status()["state"])

    def events(self, since: int = 0, follow: bool = False) -> Iterator[EngineEvent]:
        """The run's typed event stream, replayed from index ``since``.

        ``follow=True`` blocks for new events until the run reaches a
        terminal state; ``follow=False`` drains what exists and returns.
        """
        return self.executor.events(self.run_id, since=since, follow=follow)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the run completes and return its report.

        Raises :class:`~repro.service.errors.RunCancelled` for a cancelled
        run and re-raises the run's own exception (or
        :class:`~repro.service.errors.RunFailed` over HTTP) for a failed one.
        """
        return self.executor.result(self.run_id, timeout=timeout)

    def report(self) -> Dict[str, Any]:
        """The finished run's report payload (``RunReport.to_dict()``)."""
        return self.executor.report(self.run_id)

    def cancel(self) -> Dict[str, Any]:
        """Request cooperative cancellation; returns the updated status.

        The engine honours the request at the next wave boundary, writes its
        checkpoint and stops -- the run stays resumable via
        :meth:`RunClient.resume`.
        """
        return self.executor.cancel(self.run_id)


class RunClient:
    """Submits :class:`~repro.api.spec.RunSpec` runs to an executor backend."""

    def __init__(self, executor: Executor):
        self.executor = executor

    @classmethod
    def local(cls, runs_root: str, max_workers: int = 1) -> "RunClient":
        """A client over an in-process :class:`LocalExecutor`.

        Every run is registered under ``<runs_root>/<run_id>/`` and
        ``max_workers`` bounds the worker-slot pool (1: strict FIFO).
        """
        from repro.service.local import LocalExecutor

        return cls(LocalExecutor(runs_root=runs_root, max_workers=max_workers))

    @classmethod
    def connect(cls, url: str, timeout: float = 10.0) -> "RunClient":
        """A client over the HTTP daemon at ``url`` (``repro-search serve``)."""
        from repro.service.remote import ServiceExecutor

        return cls(ServiceExecutor(url, timeout=timeout))

    def submit(self, spec: Any, **options: Any) -> RunHandle:
        """Submit a run (RunSpec, spec-file path or dict); returns its handle."""
        return RunHandle(self.executor, self.executor.submit(spec, **options))

    def resume(self, run_id: str) -> RunHandle:
        """Re-queue a cancelled/failed run from its checkpoint; same id."""
        return RunHandle(self.executor, self.executor.resume(run_id))

    def handle(self, run_id: str) -> RunHandle:
        """A handle to an already-submitted run (validates the id exists)."""
        self.executor.status(run_id)  # raises RunNotFound on an unknown id
        return RunHandle(self.executor, run_id)

    def list_runs(self) -> List[Dict[str, Any]]:
        """Status dicts of every run the executor knows, oldest first."""
        return self.executor.list_runs()
