"""Tests for the daemon's clients: one fault matrix over a scripted stub server,
and the checks that keep them on one HTTP transport."""

from __future__ import annotations

import ast
import glob
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import RunSpec
from repro.fleet import FleetClient, RetryPolicy, UnknownAgent
from repro.obs.top import fetch_metrics
from repro.service.errors import RunNotFound, RunNotReady, ServiceError
from repro.service.remote import ServiceExecutor
from repro.store import RemoteStore, StoreError, StoreUnavailable

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
TRANSPORT = os.path.join("repro", "utils", "http.py")

FAST = RetryPolicy(max_attempts=3, base_delay=0)
KEY = "ab" * 32


def _error(status, message="refused by the stub"):
    return status, {"error": {"type": "stub", "message": message}}


@pytest.fixture()
def stub():
    """Start a server that answers each request with the next scripted
    ``(status, body)``; returns its URL and the ``(method, path)`` it saw."""
    servers = []

    def start(script):
        answers = iter(script)
        seen = []

        class Handler(BaseHTTPRequestHandler):
            def _answer(self):
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                seen.append((self.command, self.path))
                status, body = next(answers)
                if not isinstance(body, bytes):
                    body = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if self.command != "HEAD":
                    self.wfile.write(body)

            do_GET = do_POST = do_PUT = do_HEAD = _answer

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        ).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", seen

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _refused_url() -> str:
    """A URL nothing listens on (bind, read the port, close)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


# -- ServiceExecutor -----------------------------------------------------------------
class TestServiceExecutorFaults:
    def test_404_and_409_on_a_run_map_to_run_errors(self, stub):
        url, seen = stub([_error(404), _error(409)])
        executor = ServiceExecutor(url, retry=FAST)
        with pytest.raises(RunNotFound):
            executor.status("r1")
        with pytest.raises(RunNotReady):
            executor.status("r1")
        assert seen == [("GET", "/runs/r1")] * 2

    def test_400_is_a_value_error_with_the_daemons_message(self, stub):
        url, seen = stub([_error(400, "unknown strategy 'x'")])
        with pytest.raises(ValueError, match="unknown strategy 'x'"):
            ServiceExecutor(url, retry=FAST).status("r1")
        assert len(seen) == 1

    def test_503_retries_then_is_a_service_error(self, stub):
        url, seen = stub([_error(503)] * 3)
        with pytest.raises(ServiceError) as excinfo:
            ServiceExecutor(url, retry=FAST).status("r1")
        assert excinfo.value.status == 503
        assert len(seen) == 3

    def test_submit_is_never_retried(self, stub):
        url, seen = stub([_error(503)] * 3)
        with pytest.raises(ServiceError):
            ServiceExecutor(url, retry=FAST).submit(RunSpec())
        assert seen == [("POST", "/runs")]

    def test_healthy_is_a_single_probe(self, stub):
        url, seen = stub([_error(503)] * 3)
        assert ServiceExecutor(url, retry=FAST).healthy() is False
        assert len(seen) == 1

    def test_refused_connection_is_a_service_error(self):
        with pytest.raises(ServiceError):
            ServiceExecutor(_refused_url(), retry=FAST).list_runs()


# -- RemoteStore ---------------------------------------------------------------------
class TestRemoteStoreFaults:
    def test_404_is_a_miss(self, stub):
        url, seen = stub([_error(404)] * 3)
        store = RemoteStore(url, retry=FAST)
        assert store.get(KEY) is None
        assert store.has(KEY) is False
        assert store.get_ref(KEY) is None
        assert len(seen) == 3

    def test_400_is_a_store_error(self, stub):
        url, seen = stub([_error(400)])
        with pytest.raises(StoreError) as excinfo:
            RemoteStore(url, retry=FAST).put_object(KEY, b"bytes")
        assert not isinstance(excinfo.value, StoreUnavailable)
        assert len(seen) == 1

    def test_503_retries_then_is_unavailable(self, stub):
        url, seen = stub([_error(503)] * 3)
        with pytest.raises(StoreUnavailable):
            RemoteStore(url, retry=FAST).stats()
        assert len(seen) == 3

    def test_refused_connection_is_unavailable(self):
        with pytest.raises(StoreUnavailable):
            RemoteStore(_refused_url(), retry=FAST).get(KEY)


# -- FleetClient ---------------------------------------------------------------------
class TestFleetClientFaults:
    def test_404_is_an_unknown_agent(self, stub):
        url, seen = stub([_error(404)] * 3)
        with pytest.raises(UnknownAgent):
            FleetClient(url, retry=FAST).heartbeat("a1", [])
        assert len(seen) == 1

    def test_heartbeat_retries_through_503(self, stub):
        url, seen = stub([_error(503), _error(503), (200, {"ok": True})])
        assert FleetClient(url, retry=FAST).heartbeat("a1", []) == {"ok": True}
        assert seen == [("POST", "/agents/heartbeat")] * 3

    def test_lease_is_never_retried(self, stub):
        from repro.utils.http import HttpStatusError

        url, seen = stub([_error(503)] * 3)
        with pytest.raises(HttpStatusError) as excinfo:
            FleetClient(url, retry=FAST).lease("a1")
        assert not isinstance(excinfo.value, UnknownAgent)
        assert excinfo.value.status == 503
        assert len(seen) == 1

    def test_refused_connection_is_an_os_error(self):
        with pytest.raises(OSError):
            FleetClient(_refused_url(), retry=FAST).heartbeat("a1", [])


# -- fetch_metrics (repro-search top) -------------------------------------------------
class TestFetchMetricsFaults:
    def test_503_is_retried_like_the_runs_listing(self, stub):
        url, seen = stub([_error(503), (200, b"# TYPE up gauge\nup 1\n")])
        samples = fetch_metrics(url)
        assert samples["up"][0]["value"] == 1.0
        assert seen == [("GET", "/metrics")] * 2

    def test_refused_connection_is_an_os_error(self):
        # repro-search top reports an OSError as "cannot reach".
        with pytest.raises(OSError):
            fetch_metrics(_refused_url())


# -- one transport --------------------------------------------------------------------
def _imports(path):
    """Every module name ``path`` imports, ``from`` imports as ``pkg.name``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


class TestOneTransport:
    def test_only_the_transport_module_speaks_http(self):
        root = os.path.join(SRC, "repro")
        speakers = sorted(
            os.path.relpath(path, SRC)
            for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
            if {"urllib.request", "http.client"} & set(_imports(path))
        )
        assert speakers == [TRANSPORT]

    def test_the_transport_module_is_a_leaf(self):
        names = list(_imports(os.path.join(SRC, TRANSPORT)))
        assert names
        assert not [name for name in names if name.split(".")[0] in ("repro", "")]

    def test_remote_store_imports_on_its_own(self):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        subprocess.run(
            [sys.executable, "-c", "import repro.store.remote"], env=env, check=True
        )
