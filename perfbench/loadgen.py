"""serve-http's load generator: a closed loop of keep-alive HTTP connections.

It runs in an interpreter of its own, so its client threads do not compete
with the daemon's handler threads for one interpreter lock::

    python3 perfbench/loadgen.py JOB_JSON HOST PORT SECONDS

``JOB_JSON`` names a file with the predict path, the connection count, the
``/healthz`` calls per connection and the requests (body, rows, expected
predictions).  Every connection first times its ``/healthz`` calls (the
calibration), then all of them POST requests in turn for ``SECONDS``.  The
last line of standard output is one JSON object: per-request records, the
calibration times, the rows answered correctly, the failures and the loop's
wall time.  It needs only the standard library.
"""

from __future__ import annotations

import http.client
import itertools
import json
import sys
import threading
import time
from typing import Any, List, Optional, Tuple

CALIBRATION_TIMEOUT_S = 60


def exchange(connection: http.client.HTTPConnection, method: str, path: str, body: Optional[bytes] = None):
    """One request: (status, reply body, seconds, connection to use next).

    A request that raises (a dropped connection, a malformed reply) has
    status None and its error as the body, and the next request goes out on
    a fresh connection.
    """
    headers = {"Content-Type": "application/json"} if body is not None else {}
    start = time.perf_counter()
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        status, payload = response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        connection.close()
        connection = http.client.HTTPConnection(connection.host, connection.port, timeout=connection.timeout)
        status, payload = None, repr(error).encode("utf-8")
    return status, payload, time.perf_counter() - start, connection


def _served(payload: bytes) -> Any:
    try:
        return json.loads(payload)["predictions"]
    except (ValueError, KeyError, TypeError):
        return None


def closed_loop(job: dict, host: str, port: int, seconds: float) -> dict:
    connections = job["connections"]
    requests: List[Tuple[bytes, int, Any]] = [
        (body.encode("utf-8"), rows, expected) for body, rows, expected in job["requests"]
    ]
    # Per request: connection, sequence number, wall-clock start, seconds.
    records: List[List[Tuple[int, int, float, float]]] = [[] for _ in range(connections)]
    healthz: List[List[float]] = [[] for _ in range(connections)]
    rows_ok = [0] * connections
    failures = [0] * connections
    errors: List[str] = []
    # Every connection calibrates first; the clock starts once all have.
    calibrated = threading.Barrier(connections + 1, timeout=CALIBRATION_TIMEOUT_S)
    go = threading.Event()
    deadline = [0.0]

    def fail(index: int, detail: str) -> None:
        failures[index] += 1
        if len(errors) < 5:
            errors.append(detail)

    def client(index: int) -> None:
        sequence = itertools.count(index * len(requests) // connections)
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for _ in range(job["healthz_per_connection"]):
                status, payload, took, connection = exchange(connection, "GET", "/healthz")
                healthz[index].append(took)
                if status != 200:
                    fail(index, f"/healthz answered {status}: {payload[:200]!r}")
            calibrated.wait()
            go.wait()
            while time.perf_counter() < deadline[0]:
                number = next(sequence)
                body, rows, expected = requests[number % len(requests)]
                started = time.time()
                status, payload, took, connection = exchange(connection, "POST", job["path"], body)
                records[index].append((index, number, started, took))
                if status == 200 and _served(payload) == expected:
                    rows_ok[index] += rows
                else:
                    fail(index, f"predict answered {status}: {payload[:200]!r}")
        except threading.BrokenBarrierError:
            pass  # a client failed before the loop; reported below
        except Exception as error:  # a load-generator bug must fail the run, not hang it
            fail(index, f"client {index} stopped: {error!r}")
            calibrated.abort()
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,), name=f"client-{index}") for index in range(connections)]
    for thread in threads:
        thread.start()
    try:
        calibrated.wait()
    except threading.BrokenBarrierError:
        for thread in threads:
            thread.join()
        raise RuntimeError("the load generator did not calibrate: " + "; ".join(errors))
    begin = time.perf_counter()
    deadline[0] = begin + seconds
    go.set()
    for thread in threads:
        thread.join()
    return {
        "records": [record for per in records for record in per],
        "healthz_s": [value for per in healthz for value in per],
        "rows_ok": sum(rows_ok),
        "failures": sum(failures),
        "errors": errors,
        "wall_s": time.perf_counter() - begin,
    }


if __name__ == "__main__":
    job_path, host_arg, port_arg, seconds_arg = sys.argv[1:]
    with open(job_path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    print(json.dumps(closed_loop(loaded, host_arg, int(port_arg), float(seconds_arg))))
