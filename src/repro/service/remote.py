"""The HTTP executor backend: a client for ``repro-search serve``.

:class:`ServiceExecutor` implements the same
:class:`~repro.service.client.Executor` protocol as the in-process
:class:`~repro.service.local.LocalExecutor`, speaking the daemon's JSON
endpoints (see :mod:`repro.service.daemon`).  ``RunSpec`` JSON is the only
wire format: a submission POSTs the spec's canonical dict, and everything
that comes back (statuses, reports, events) is plain JSON -- events are
rebuilt into typed :class:`~repro.engine.events.EngineEvent` objects via
``EngineEvent.from_dict``, so consumers cannot tell the transports apart.

Requests go through the shared :class:`~repro.utils.http.HttpClient` and
its :class:`~repro.utils.http.RetryPolicy`: connection-refused (a daemon
restarting) and 5xx answers (a daemon draining) retry on its deterministic
backoff schedule, while 4xx answers and non-idempotent calls -- submitting,
resuming, promoting -- never retry (a duplicate POST would duplicate the
work).  Every request carries an explicit timeout, so a stalled read fails
fast instead of wedging the caller forever.  What is left after the retries
maps onto the service's own errors here.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api.run import _resolve_spec
from repro.engine.events import EngineEvent
from repro.service import registry as reg
from repro.service.errors import (
    RunCancelled,
    RunFailed,
    RunNotFound,
    RunNotReady,
    ServiceError,
)
from repro.utils.http import HttpClient, HttpStatusError, Unreachable


class ServiceExecutor(HttpClient):
    """Talks to a ``repro-search serve`` daemon over HTTP."""

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        **options: Any,
    ) -> Dict[str, Any]:
        """One JSON round trip, its failures mapped onto the service errors.

        ``options`` go to :meth:`HttpClient.request`; ``idempotent=False``
        pins a mutating POST to one attempt (resent after a lost response,
        it could land twice).
        """
        try:
            return self.json(method, path, payload, **options)
        except HttpStatusError as error:
            raise self._map_error(error, run_id) from None
        except Unreachable as error:
            raise ServiceError(
                f"run service unreachable at {self.base_url}: {error}"
            ) from None

    @staticmethod
    def _map_error(error: HttpStatusError, run_id: Optional[str]) -> Exception:
        """Translate the daemon's structured errors into the shared types."""
        message = ""
        try:
            body = json.loads(error.body.decode("utf-8", "replace"))
            message = str(body.get("error", {}).get("message", ""))
        except (ValueError, AttributeError):
            pass
        message = message or f"HTTP {error.status}"
        if error.status == 404 and run_id is not None:
            return RunNotFound(run_id)
        if error.status == 400:
            return ValueError(message)
        if error.status == 409 and run_id is not None:
            return RunNotReady(run_id, message)
        return ServiceError(message, status=error.status)

    @staticmethod
    def _run_path(run_id: str, suffix: str = "") -> str:
        return f"/runs/{urllib.parse.quote(run_id, safe='')}{suffix}"

    # -- the Executor protocol ------------------------------------------------------
    def submit(self, spec: Any, **options: Any) -> str:
        unsupported = {
            name
            for name in ("engine", "train_dataset", "validation_dataset", "design_spec")
            if options.get(name) is not None
        }
        if unsupported or options.get("resume"):
            raise ValueError(
                "service submissions are pure RunSpec JSON; in-process "
                "options are not serializable: "
                f"{sorted(unsupported | ({'resume'} if options.get('resume') else set()))}"
                " (put the engine section in the spec, resume by run id)"
            )
        resolved = _resolve_spec(spec)
        # A retried submission whose first response was dropped would enqueue
        # the run twice -- one attempt only.
        response = self._call(
            "POST", "/runs", payload=resolved.to_dict(), idempotent=False
        )
        return str(response["run_id"])

    def resume(self, run_id: str) -> str:
        response = self._call(
            "POST",
            self._run_path(run_id, "/resume"),
            payload={},
            run_id=run_id,
            idempotent=False,  # a duplicate resume re-queues the run twice
        )
        return str(response["run_id"])

    def status(self, run_id: str) -> Dict[str, Any]:
        return self._call("GET", self._run_path(run_id), run_id=run_id)

    def report(self, run_id: str) -> Dict[str, Any]:
        return self._call("GET", self._run_path(run_id, "/report"), run_id=run_id)

    def result(
        self, run_id: str, timeout: Optional[float] = None, poll_interval: float = 0.3
    ) -> Dict[str, Any]:
        """Poll until the run terminates; return the report payload."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(run_id)
            state = status["state"]
            if state == reg.FINISHED:
                return self.report(run_id)
            if state == reg.CANCELLED:
                raise RunCancelled(run_id)
            if state == reg.FAILED:
                raise RunFailed(run_id, status.get("error") or "unknown error")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id!r} did not complete within {timeout} seconds"
                )
            time.sleep(poll_interval)

    def cancel(self, run_id: str) -> Dict[str, Any]:
        return self._call(
            "POST", self._run_path(run_id, "/cancel"), payload={}, run_id=run_id
        )

    def events(
        self,
        run_id: str,
        since: int = 0,
        follow: bool = False,
        poll_interval: float = 0.3,
    ) -> Iterator[EngineEvent]:
        """Page through the events endpoint; with ``follow`` poll until done."""
        cursor = since
        while True:
            events, cursor, done = self._events_page(run_id, cursor)
            for event in events:
                yield event
            if not follow or (done and not events):
                return
            if not events:
                time.sleep(poll_interval)

    def _events_page(
        self, run_id: str, since: int
    ) -> Tuple[List[EngineEvent], int, bool]:
        response = self._call(
            "GET", self._run_path(run_id, f"/events?since={since}"), run_id=run_id
        )
        events = [EngineEvent.from_dict(entry) for entry in response["events"]]
        return events, int(response["next"]), bool(response["done"])

    def list_runs(self) -> List[Dict[str, Any]]:
        return list(self._call("GET", "/runs")["runs"])

    # -- the model zoo ---------------------------------------------------------------
    def promote(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST /models/promote; returns the promoted entry's manifest.

        Promotion retrains the winning child deterministically, so it can
        outlast the default request timeout by a wide margin -- give it ten
        minutes instead.
        """
        response = self._call(
            "POST",
            "/models/promote",
            payload=payload,
            run_id=str(payload.get("run_id", "")),
            timeout=max(self.timeout, 600.0),
            idempotent=False,  # a duplicate promotion moves `latest` again
        )
        return dict(response["model"])

    def list_models(self) -> List[Dict[str, Any]]:
        return list(self._call("GET", "/models")["models"])

    def predict(self, name: str, inputs: Any) -> List[int]:
        """POST /models/<name>/predict; the served class of every input row."""
        response = self._call(
            "POST",
            f"/models/{urllib.parse.quote(name, safe='')}/predict",
            payload={"inputs": np.asarray(inputs, dtype=np.float64).tolist()},
        )
        return [int(value) for value in response["predictions"]]

    def healthy(self) -> bool:
        """True when the daemon answers its health endpoint (single probe)."""
        try:
            return bool(self._call("GET", "/healthz", max_attempts=1).get("ok"))
        except ServiceError:
            return False
