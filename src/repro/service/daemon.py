"""The local run service daemon behind ``repro-search serve``.

A stdlib-only HTTP front (``http.server.ThreadingHTTPServer``) over a
registry-backed :class:`~repro.service.local.LocalExecutor` plus a
:class:`~repro.serving.server.ModelServer`: submissions are ``RunSpec``
JSON, runs queue on the executor's bounded worker-slot pool, promoted zoo
models answer batched predict requests, and every artifact lives in the
runs/zoo roots, so daemon restarts lose nothing.

Endpoints (JSON unless noted)::

    GET  /healthz                  liveness probe
    GET  /metrics                  Prometheus text exposition (text/plain)
    POST /runs                     submit a RunSpec JSON body -> {"run_id"}
    GET  /runs                     every run's status, oldest first
    GET  /runs/<id>                one run's status
    GET  /runs/<id>/report         RunReport.to_dict() (409 until finished)
    GET  /runs/<id>/events?since=N event page {"events", "next", "done"}
    POST /runs/<id>/cancel         cooperative cancel -> updated status
    POST /runs/<id>/resume         re-queue from the checkpoint -> {"run_id"}
    GET  /models                   zoo entries (+ live serving stats)
    POST /models/promote           {"run_id", "name"?, "episode"?} -> manifest
    POST /models/<name>/predict    {"inputs": [[...], ...]} -> {"predictions"}
    GET  /agents                   registered fleet agents + lease counts
    POST /agents/register          {"name"?} -> agent id + timing contract
    POST /agents/heartbeat         {"agent_id", "active_tasks"} -> {"ok"}
    POST /agents/lease             {"agent_id"} -> {"task": {...} | null}
    POST /agents/complete          {"agent_id", "task_id", "result"} -> {"accepted"}
    GET  /store/<key>              object bytes (octet-stream; 404 on miss)
    PUT  /store/<key>              store raw bytes under their content key
    HEAD /store/<key>              existence probe (200/404, no body)
    POST /store/has                {"keys": [...]} -> {"present": {key: bool}}
    GET  /store/refs/<name>        {"name", "key"} ref lookup (404 on miss)
    PUT  /store/refs/<name>        {"key": <content key>} -> {"ok": true}
    GET  /store/stats              the store's counters (hits, puts, evictions)

The ``/agents/*`` endpoints are the worker-fabric protocol (see
:mod:`repro.fleet`): task payloads and results travel base64-encoded inside
the JSON envelope.  The ``/store/*`` endpoints are the shared
content-addressed artifact store (see :mod:`repro.store`): engines pointed
at this daemon with ``--store-url`` share evaluation results through it, so
each unique ``(context, child, fidelity)`` trains once fleet-wide.

Dispatch is one ordered route table, ``_RequestHandler.routes``, of these
endpoints; a request that matches no row gets 404 and a closed connection.

Errors are structured: ``{"error": {"type", "message"}}`` with 400 for
invalid specs/JSON, 404 for unknown runs/models/agents/endpoints, 408 for a
body read that timed out, 409 for a report requested before the run
finished, 411/413 for missing-length/oversized bodies (validated from the
headers *before* any body byte is read), 429 when a model's serving queue is
full and 503 once the daemon is draining (new submissions/resumes refused).
A connection-level timeout (``request_timeout``) drops stalled clients so
they cannot wedge a worker thread.

Every response leaves in one write on a ``TCP_NODELAY`` socket.  Written as
two small segments (headers, then body) under Nagle's algorithm, the second
waits for the client to acknowledge the first, and a keep-alive client
delays that acknowledgement by its 40 ms minimum: a fixed stall on every
exchange that a connection-per-request client never sees.
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.spec import RunSpec
from repro.fleet.pool import install_supervisor, installed_supervisor
from repro.fleet.supervisor import FleetConfig, FleetSupervisor, UnknownAgent
from repro.obs import metrics as obs_metrics
from repro.service import registry as reg
from repro.service.errors import RunNotFound, RunNotReady, ServiceDraining
from repro.service.local import LocalExecutor
from repro.serving.batcher import QueueFull
from repro.serving.registry import DEFAULT_ZOO_ROOT, ModelNotFound
from repro.serving.server import ModelServer
from repro.store import KEY_PATTERN, LocalStore, StoreError

DEFAULT_STORE_DIR = "_store"

DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
DEFAULT_REQUEST_TIMEOUT = 30.0


class _RequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-run-service/1"
    protocol_version = "HTTP/1.1"
    default_request_version = "HTTP/1.0"  # HTTP/0.9 buffers no headers for _send
    disable_nagle_algorithm = True  # TCP_NODELAY; see the module docstring

    @property
    def executor(self) -> LocalExecutor:
        return self.server.executor  # type: ignore[attr-defined]

    @property
    def model_server(self) -> ModelServer:
        return self.server.model_server  # type: ignore[attr-defined]

    @property
    def supervisor(self) -> FleetSupervisor:
        return self.server.supervisor  # type: ignore[attr-defined]

    @property
    def store(self) -> LocalStore:
        return self.server.store  # type: ignore[attr-defined]

    def setup(self) -> None:
        # Connection-level timeout: a client that stalls mid-request (or
        # never sends one) gets dropped instead of pinning a worker thread.
        self.timeout = getattr(self.server, "request_timeout", None)
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    # -- response helpers ----------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Send status line, headers and body in one write."""
        if self.command == "HEAD":
            # A HEAD response must not carry a body (it would desynchronise
            # a keep-alive connection); status + headers say everything.
            body = b""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.extend((b"\r\n", body))  # end_headers(), plus the body
        self.flush_headers()

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, {"error": {"type": kind, "message": message}})

    def _read_json_body(self, required: bool = False) -> Any:
        raw = self._read_body(required=required)
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _BadRequest("invalid-json", f"request body is not JSON: {error}")

    def _read_body(self, required: bool = False) -> bytes:
        """Validate the body from its headers *before* reading a byte.

        Missing ``Content-Length`` on a request that carries (or must carry)
        a body is 411; a declared length beyond the server's limit is 413 --
        both answered without draining the wire, so an oversized upload is
        rejected at the headers instead of buffered.  A client that stalls
        mid-body hits the connection timeout and gets 408.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            if self.headers.get("Transfer-Encoding") or required:
                raise _HttpError(
                    411,
                    "length-required",
                    "request must declare Content-Length (chunked bodies are "
                    "not accepted)",
                    close=True,
                )
            return b""
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, "invalid-length", f"Content-Length is not an integer: "
                f"{raw_length!r}", close=True
            )
        if length < 0:
            raise _HttpError(
                400, "invalid-length", "Content-Length must be non-negative",
                close=True,
            )
        limit = getattr(self.server, "max_body_bytes", DEFAULT_MAX_BODY_BYTES)
        if length > limit:
            raise _HttpError(
                413,
                "payload-too-large",
                f"request body of {length} bytes exceeds the server limit of "
                f"{limit} bytes",
                close=True,
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            raise _HttpError(
                408,
                "request-timeout",
                "timed out reading the request body",
                close=True,
            )
        if len(raw) < length:
            raise _HttpError(
                400, "truncated-body",
                f"declared {length} body bytes, received {len(raw)}", close=True
            )
        if not raw and required:
            raise _HttpError(411, "length-required", "request body required")
        return raw

    # -- request dispatch ----------------------------------------------------------
    def _dispatch(self) -> None:
        try:
            handler, captures = self._match(self.command)
            handler(self, *captures)
        except _HttpError as error:
            if error.close:
                self.close_connection = True
            self._send_error_json(error.status, error.kind, error.message)
        except RunNotFound as error:
            self._send_error_json(404, "unknown-run", str(error))
        except ModelNotFound as error:
            self._send_error_json(404, "unknown-model", str(error))
        except UnknownAgent as error:
            self._send_error_json(404, "unknown-agent", str(error))
        except ServiceDraining as error:
            self._send_error_json(503, "draining", str(error))
        except RunNotReady as error:
            self._send_error_json(409, "run-not-ready", str(error))
        except QueueFull as error:
            self._send_error_json(429, "backpressure", str(error))
        except StoreError as error:
            self._send_error_json(400, "invalid-store-request", str(error))
        except ValueError as error:
            self._send_error_json(400, "invalid-spec", str(error))
        except Exception as error:  # no stack traces over the wire
            self._send_error_json(500, "internal-error", f"{type(error).__name__}: {error}")

    # http.server's per-method entry points (other methods get its 501).
    do_GET = do_POST = do_PUT = do_HEAD = _dispatch

    def _match(self, method: str) -> Tuple[Callable[..., None], List[str]]:
        """The first of :attr:`routes` this request matches, and its captures."""
        path = urllib.parse.urlsplit(self.path).path
        parts = [urllib.parse.unquote(part) for part in path.split("/") if part]
        for route_method, pattern, handler in self.routes:
            if route_method == method and len(pattern) == len(parts):
                pairs = list(zip(pattern, parts))
                if all(want in ("*", got) for want, got in pairs):
                    return handler, [got for want, got in pairs if want == "*"]
        raise _HttpError(  # closes: the unread body would parse as a request
            404, "unknown-endpoint", f"no such endpoint: {method} {self.path}",
            close=True,
        )

    # -- endpoint implementations ---------------------------------------------------
    def _get_health(self) -> None:
        self._send_json(200, {"ok": True, "runs_root": self.executor.registry.root})

    def _get_metrics(self) -> None:
        """Prometheus text exposition of the process-global registry.

        Engines mirror their per-run registries into the global one, so this
        is the fleet view: every run this daemon process executed so far,
        the serving metric families, plus the executor's scrape-time gauges
        (slots, queue, runs by state).
        """
        self._send(
            200,
            obs_metrics.get_registry().render_prometheus().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _post_submit(self) -> None:
        payload = self._read_json_body(required=True)
        spec = RunSpec.from_dict(payload)  # ValueError -> structured 400
        submitted = self.executor.submit(spec)
        self._send_json(
            201, {"run_id": submitted, "status": self.executor.status(submitted)}
        )

    def _get_runs(self) -> None:
        self._send_json(200, {"runs": self.executor.list_runs()})

    def _get_status(self, run_id: str) -> None:
        self._send_json(200, self.executor.status(run_id))

    def _get_report(self, run_id: str) -> None:
        self._send_json(200, self.executor.report(run_id))

    def _get_events(self, run_id: str) -> None:
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        try:
            since = int(query.get("since", ["0"])[-1])
        except ValueError:
            since = -1
        if since < 0:  # a negative cursor would answer a `next` behind the start
            raise _BadRequest(
                "invalid-query", "'since' must be a non-negative integer"
            )
        events = list(self.executor.events(run_id, since=since, follow=False))
        state = self.executor.status(run_id)["state"]
        self._send_json(
            200,
            {
                "events": [event.to_dict() for event in events],
                "next": since + len(events),
                "done": state in reg.TERMINAL_STATES,
            },
        )

    def _post_cancel(self, run_id: str) -> None:
        self._read_json_body()  # drain (and validate) any body
        self._send_json(200, self.executor.cancel(run_id))

    def _post_resume(self, run_id: str) -> None:
        self._read_json_body()
        resumed = self.executor.resume(run_id)
        self._send_json(
            200, {"run_id": resumed, "status": self.executor.status(resumed)}
        )

    # -- serving endpoints ----------------------------------------------------------
    def _get_models(self) -> None:
        self._send_json(200, {"models": self.model_server.models()})

    def _post_promote(self) -> None:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "run_id" not in payload:
            raise _BadRequest(
                "invalid-promotion", 'body must be {"run_id": ..., "name"?, '
                '"episode"?}'
            )
        episode = payload.get("episode")
        entry = self.model_server.zoo.promote_run(
            self.executor.registry,
            str(payload["run_id"]),
            name=payload.get("name"),
            episode=None if episode is None else int(episode),
        )
        # A re-promotion may have moved the name's `latest` pointer.
        self.model_server.invalidate(entry.name)
        self._send_json(201, {"model": entry.manifest})

    def _post_predict(self, name: str) -> None:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "inputs" not in payload:
            raise _BadRequest(
                "invalid-inputs", 'body must be {"inputs": [[...], ...]}'
            )
        try:
            inputs = np.asarray(payload["inputs"], dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise _BadRequest("invalid-inputs", f"inputs are not numeric: {error}")
        predictions = self.model_server.predict(name, inputs)
        self._send_json(
            200,
            {
                "model": name,
                "count": int(predictions.shape[0]),
                "predictions": [int(value) for value in predictions],
            },
        )

    # -- store endpoints (the shared artifact store; see repro.store) ----------------
    def _get_store_object(self, key: str) -> None:
        data = self.store.get(self._store_key(key))
        if data is None:
            raise _HttpError(404, "unknown-object", f"no object {key}")
        self._send(200, data, "application/octet-stream")

    def _head_store_object(self, key: str) -> None:
        if not self.store.has(self._store_key(key)):
            raise _HttpError(404, "unknown-object", f"no object {key}")
        self._send(200, b"", "application/octet-stream")

    def _put_store_object(self, key: str) -> None:
        data = self._read_body(required=True)
        # put_object verifies sha256(body) == key; a mismatch raises
        # StoreCorruptWrite -> structured 400, nothing persisted.
        self.store.put_object(self._store_key(key), data)
        self._send_json(201, {"key": key, "size": len(data)})

    def _post_store_has(self) -> None:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("keys"), list
        ):
            raise _BadRequest("invalid-store-request", 'body must be {"keys": [...]}')
        keys = [self._store_key(str(key)) for key in payload["keys"]]
        self._send_json(200, {"present": self.store.has_many(keys)})

    def _get_store_ref(self, name: str) -> None:
        key = self.store.get_ref(self._store_key(name))
        if key is None:
            raise _HttpError(404, "unknown-ref", f"no ref {name}")
        self._send_json(200, {"name": name, "key": key})

    def _put_store_ref(self, name: str) -> None:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or not isinstance(payload.get("key"), str):
            raise _BadRequest(
                "invalid-store-request", 'body must be {"key": <content key>}'
            )
        self.store.set_ref(self._store_key(name), self._store_key(payload["key"]))
        self._send_json(200, {"ok": True, "name": name})

    def _get_store_stats(self) -> None:
        self._send_json(200, self.store.stats())

    @staticmethod
    def _store_key(key: str) -> str:
        if not KEY_PATTERN.match(key):
            raise _BadRequest(
                "invalid-store-key",
                f"store keys are 64 lowercase hex characters, got {key!r}",
            )
        return key

    # -- fleet endpoints (the worker-fabric protocol; see repro.fleet) ---------------
    def _get_agents(self) -> None:
        supervisor = self.supervisor
        self._send_json(
            200,
            {
                "agents": supervisor.agents_status(),
                "draining": supervisor.draining,
                "reassignments": supervisor.reassignments,
            },
        )

    def _post_agent_register(self) -> None:
        payload = self._read_json_body()
        name = payload.get("name") if isinstance(payload, dict) else None
        info = self.supervisor.register_agent(None if name is None else str(name))
        self._send_json(201, info)

    def _post_agent_heartbeat(self) -> None:
        payload = self._read_json_body(required=True)
        agent_id, active = self._agent_fields(payload)
        self._send_json(200, self.supervisor.heartbeat(agent_id, active))

    def _post_agent_lease(self) -> None:
        payload = self._read_json_body(required=True)
        agent_id, _active = self._agent_fields(payload)
        grant = self.supervisor.lease(agent_id)
        if grant is not None:
            grant = dict(grant)
            grant["payload"] = base64.b64encode(grant["payload"]).decode("ascii")
        self._send_json(
            200, {"task": grant, "draining": self.supervisor.draining}
        )

    def _post_agent_complete(self) -> None:
        payload = self._read_json_body(required=True)
        agent_id, _active = self._agent_fields(payload)
        task_id = payload.get("task_id")
        encoded = payload.get("result")
        if not isinstance(task_id, str) or not isinstance(encoded, str):
            raise _BadRequest(
                "invalid-completion",
                'body must be {"agent_id", "task_id", "result": <base64>}',
            )
        try:
            result = base64.b64decode(encoded, validate=True)
        except (ValueError, TypeError) as error:
            raise _BadRequest("invalid-completion", f"result is not base64: {error}")
        accepted = self.supervisor.complete(agent_id, task_id, result)
        self._send_json(200, {"accepted": accepted})

    @staticmethod
    def _agent_fields(payload: Any) -> Tuple[str, List[str]]:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("agent_id"), str
        ):
            raise _BadRequest(
                "invalid-agent-request", 'body must carry an "agent_id" string'
            )
        active = payload.get("active_tasks") or []
        if not isinstance(active, list):
            raise _BadRequest(
                "invalid-agent-request", '"active_tasks" must be a list of task ids'
            )
        return payload["agent_id"], [str(task_id) for task_id in active]

    # -- the route table: ordered, the first match wins -----------------------------
    # A ``*`` matches one path segment, which reaches the handler unquoted as
    # a positional argument; the store's literals come before its 64-hex keys.
    # Patterns are split into segments once, here.
    routes = [
        (method, tuple(filter(None, pattern.split("/"))), handler)
        for method, pattern, handler in (
            ("GET", "/healthz", _get_health),
            ("GET", "/metrics", _get_metrics),
            ("GET", "/runs", _get_runs),
            ("POST", "/runs", _post_submit),
            ("GET", "/runs/*", _get_status),
            ("GET", "/runs/*/report", _get_report),
            ("GET", "/runs/*/events", _get_events),
            ("POST", "/runs/*/cancel", _post_cancel),
            ("POST", "/runs/*/resume", _post_resume),
            ("GET", "/models", _get_models),
            ("POST", "/models/promote", _post_promote),
            ("POST", "/models/*/predict", _post_predict),
            ("GET", "/agents", _get_agents),
            ("POST", "/agents/register", _post_agent_register),
            ("POST", "/agents/heartbeat", _post_agent_heartbeat),
            ("POST", "/agents/lease", _post_agent_lease),
            ("POST", "/agents/complete", _post_agent_complete),
            ("GET", "/store/stats", _get_store_stats),
            ("POST", "/store/has", _post_store_has),
            ("GET", "/store/refs/*", _get_store_ref),
            ("PUT", "/store/refs/*", _put_store_ref),
            ("GET", "/store/*", _get_store_object),
            ("HEAD", "/store/*", _head_store_object),
            ("PUT", "/store/*", _put_store_object),
        )
    ]


class _HttpError(Exception):
    """A structured HTTP error with an explicit status code."""

    def __init__(self, status: int, kind: str, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message
        self.close = close


class _BadRequest(_HttpError):
    def __init__(self, kind: str, message: str):
        super().__init__(400, kind, message)


class RunService:
    """The daemon: a threading HTTP server over a registry-backed executor."""

    def __init__(
        self,
        runs_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 1,
        quiet: bool = True,
        zoo_root: str = DEFAULT_ZOO_ROOT,
        max_batch_size: int = 32,
        flush_ms: float = 5.0,
        max_queue: int = 256,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        fleet: Optional[FleetConfig] = None,
        store_root: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
    ):
        # The daemon owns its runs root: re-enqueue runs a previous daemon
        # left queued and fail the ones it left mid-flight (resumable).
        self.executor = LocalExecutor(
            runs_root=runs_root, max_workers=max_workers, recover=True
        )
        # The fleet supervisor is installed process-wide so engine-created
        # pools (EngineConfig(backend="fleet")) running inside this daemon's
        # worker threads find it by name.
        self.supervisor = FleetSupervisor(fleet or FleetConfig())
        install_supervisor(self.supervisor)
        self.model_server = ModelServer(
            zoo_root=zoo_root,
            max_batch_size=max_batch_size,
            max_delay_ms=flush_ms,
            max_queue=max_queue,
        )
        # The shared artifact store lives under the runs root by default, so
        # a restarted daemon serves every object its predecessor accepted.
        self.store = LocalStore(
            store_root or os.path.join(runs_root, DEFAULT_STORE_DIR),
            max_bytes=store_max_bytes,
        )
        self.store.bind_metrics(obs_metrics.get_registry())
        self.server = ThreadingHTTPServer((host, port), _RequestHandler)
        self.server.daemon_threads = True
        self.server.executor = self.executor  # type: ignore[attr-defined]
        self.server.model_server = self.model_server  # type: ignore[attr-defined]
        self.server.supervisor = self.supervisor  # type: ignore[attr-defined]
        self.server.store = self.store  # type: ignore[attr-defined]
        self.server.quiet = quiet  # type: ignore[attr-defined]
        self.server.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
        self.server.request_timeout = request_timeout  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RunService":
        """Serve in a background thread (for embedding and tests)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True, name="repro-run-service"
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self.server.serve_forever()

    def drain(self, timeout: Optional[float] = 30.0) -> List[str]:
        """Graceful wind-down (the SIGTERM path); HTTP keeps answering.

        The fleet supervisor stops granting leases (agents see ``draining``
        and exit after their current task), the executor refuses new
        submissions with 503 and checkpoints everything in flight, and
        status/report/events endpoints stay up throughout so clients can
        observe the drain.  Follow with :meth:`shutdown` to stop serving.
        Returns the ids of the runs that were checkpointed mid-flight.
        """
        self.supervisor.drain()
        drained = self.executor.drain(timeout=timeout)
        # Idle agents only learn of the drain from a heartbeat response;
        # linger one heartbeat generation so every live agent hears it
        # before shutdown() takes the HTTP endpoints away.
        if self.supervisor.alive_agents() > 0:
            time.sleep(
                min(2.5 * self.supervisor.config.heartbeat_interval, 10.0)
            )
        return drained

    def shutdown(self) -> None:
        """Stop accepting requests and wind down the worker pool."""
        self.server.shutdown()
        self.server.server_close()
        self.model_server.close()
        self.executor.shutdown(wait=False)
        if installed_supervisor() is self.supervisor:
            install_supervisor(None)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
