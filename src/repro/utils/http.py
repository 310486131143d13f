"""The one HTTP transport of the serve daemon's clients (stdlib only).

:class:`HttpClient` is a small JSON/bytes client run under :class:`RetryPolicy`;
the run service executor, the remote store, the fleet agent and
``repro-search top`` build on it and keep only their own error mapping.  It
imports nothing from ``repro``, so any package can import it without a cycle.

Distribution multiplies the ways a single HTTP request can fail -- connection
refused while a daemon restarts, a 503 while it drains, a socket timeout on a
stalled link -- and every caller that invents its own loop invents its own
bugs.  :class:`RetryPolicy` is the single shared answer, with three hard
rules:

* **Deterministic schedule.**  Exponential backoff with *no jitter*: attempt
  ``i`` sleeps ``min(base_delay * multiplier**i, max_delay)`` seconds.  A
  reproduction platform must be replayable end to end, and that includes its
  failure handling -- two runs of the same test against the same fault
  schedule retry at the same instants.
* **Bounded attempts.**  ``max_attempts`` caps the loop; the final failure
  re-raises the original exception untouched so callers keep their existing
  error mapping.
* **Idempotent operations only.**  Retrying a ``POST /runs`` after a dropped
  response could submit the run twice; retrying a ``GET /runs/<id>`` cannot.
  Callers declare each call site's idempotency and the policy refuses to
  retry the unsafe ones -- a non-idempotent call gets exactly one attempt.

What is retryable: connection-level failures (``URLError``, ``ConnectionError``,
timeouts) and the 5xx statuses in ``retry_statuses``.  A 4xx is never
retried -- the request itself is wrong and will be wrong again.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

DEFAULT_RETRY_STATUSES: Tuple[int, ...] = (500, 502, 503, 504)

_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jitter-free exponential backoff for idempotent HTTP calls."""

    max_attempts: int = 4
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 2.0
    retry_statuses: Tuple[int, ...] = DEFAULT_RETRY_STATUSES

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0 (backoff never shrinks)")

    def delays(self) -> Tuple[float, ...]:
        """The deterministic sleep schedule between attempts.

        ``max_attempts`` attempts have ``max_attempts - 1`` gaps; the
        schedule is a pure function of the policy, so tests can assert the
        exact instants a client retried at.
        """
        return tuple(
            min(self.base_delay * self.multiplier**index, self.max_delay)
            for index in range(self.max_attempts - 1)
        )

    def is_retryable(self, error: BaseException) -> bool:
        """True for transient transport/server faults; False for caller bugs.

        Order matters: ``HTTPError`` subclasses ``URLError``, so the status
        check must come first or every 404 would look like a dropped
        connection.
        """
        if isinstance(error, urllib.error.HTTPError):
            return error.code in self.retry_statuses
        if isinstance(error, urllib.error.URLError):
            return True
        return isinstance(error, (ConnectionError, TimeoutError, OSError))

    def call(
        self,
        attempt: Callable[[], Any],
        idempotent: bool = True,
        max_attempts: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``attempt`` under this policy; returns its value.

        ``idempotent=False`` disables retries entirely (one attempt, errors
        propagate) -- declaring idempotency at the call site keeps the
        decision next to the endpoint it describes.  ``max_attempts``
        overrides the policy's bound for probe-style calls (``healthy()``
        passes 1).  ``sleep`` is injectable so tests replay the schedule
        without waiting it out.
        """
        attempts = self.max_attempts if max_attempts is None else max_attempts
        if not idempotent:
            attempts = 1
        schedule = self.delays()
        for index in range(attempts):
            try:
                return attempt()
            except Exception as error:
                if index >= attempts - 1 or not self.is_retryable(error):
                    raise
                delay = schedule[index] if index < len(schedule) else self.max_delay
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable: the loop returns or raises")


class HttpStatusError(Exception):
    """The server answered with an error status; ``body`` is its answer."""

    def __init__(self, status: int, body: bytes):
        super().__init__(f"HTTP {status}")
        self.status = status
        self.body = body


class Unreachable(OSError):
    """No answer at all: refused, reset, timed out or dropped (after retries)."""


class HttpClient:
    """Requests against one base URL under one :class:`RetryPolicy`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry or RetryPolicy()

    def send(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """One attempt; raises urllib's own errors for the retry policy."""
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers or {}, method=method
        )
        with urllib.request.urlopen(
            request, timeout=self.timeout if timeout is None else timeout
        ) as response:
            return response.read()

    def request(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        idempotent: bool = True,
        max_attempts: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """The response body under the retry policy; what still fails after
        it raises :class:`HttpStatusError` or :class:`Unreachable`."""
        try:
            return self.retry.call(
                lambda: self.send(method, path, data, headers, timeout),
                idempotent=idempotent,
                max_attempts=max_attempts,
            )
        except urllib.error.HTTPError as error:
            raise HttpStatusError(error.code, error.read()) from None
        except OSError as error:  # URLError, ConnectionError, TimeoutError
            raise Unreachable(getattr(error, "reason", error)) from None

    def json(self, method: str, path: str, payload: Any = None, **options: Any) -> Any:
        """:meth:`request` with a JSON body (unless ``payload`` is None) and answer."""
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = None if data is None else _JSON_HEADERS
        return json.loads(self.request(method, path, data, headers, **options))
