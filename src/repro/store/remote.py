""":class:`RemoteStore`: the store protocol spoken to a serve daemon.

The wire format is deliberately thin -- object payloads travel as raw
``application/octet-stream`` bodies (no base64 inflation for multi-megabyte
weight blobs), everything else is JSON::

    GET  /store/<key>          object bytes (404 on miss)
    PUT  /store/<key>          store bytes under their declared key
    HEAD /store/<key>          existence probe
    POST /store/has            {"keys": [...]} -> {"present": {key: bool}}
    GET  /store/refs/<name>    {"name", "key"} (404 on miss)
    PUT  /store/refs/<name>    {"key": <content key>} -> {"ok"}
    GET  /store/stats          the daemon-side LocalStore counters

Every operation is idempotent -- content-addressed puts store the same bytes
under the same name, and the evaluation tier's refs are written with
deterministic values -- so all of them retry on the jitter-free
:class:`~repro.utils.http.RetryPolicy` of the shared
:class:`~repro.utils.http.HttpClient` transport.  Faults split cleanly: a
404 is a miss (None/False), a connection-level failure or a post-retry 5xx
raises :class:`~repro.store.core.StoreUnavailable` (the signal
:class:`~repro.store.tiered.TieredStore` degrades on), any other status is a
:class:`~repro.store.core.StoreError` caller bug.

Reads are verified here too: a payload that does not hash to its key --
corruption on the daemon's disk or in flight -- is reported as a miss, never
returned.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.store.core import (
    KEY_PATTERN,
    StoreError,
    StoreUnavailable,
    object_key,
)
from repro.utils.http import HttpClient, HttpStatusError, Unreachable

_OCTET_HEADERS = {"Content-Type": "application/octet-stream"}
_JSON_HEADERS = {"Content-Type": "application/json"}

# Sentinel distinguishing "the daemon answered 404" from a JSON null body.
_MISS = object()


class RemoteStore(HttpClient):
    """Client for the daemon's ``/store/*`` endpoints."""

    corrupt_reads = 0  # reads that failed hash verification (per instance)

    def _request(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """One raw round trip under the retry policy; ``_MISS`` on 404."""
        try:
            return self.request(method, path, data, headers)
        except HttpStatusError as error:
            if error.status == 404:
                return _MISS
            if error.status >= 500:
                raise StoreUnavailable(
                    f"store endpoint {method} {path} failed with HTTP "
                    f"{error.status} after retries"
                ) from None
            raise StoreError(
                f"store endpoint {method} {path} rejected the request: "
                f"HTTP {error.status}"
            ) from None
        except Unreachable as error:
            raise StoreUnavailable(
                f"store unreachable at {self.base_url}: {error}"
            ) from None

    # -- objects -------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """Fetch an object; None on miss or when the payload fails verification."""
        raw = self._request("GET", f"/store/{key}")
        if raw is _MISS:
            return None
        if object_key(raw) != key:
            self.corrupt_reads += 1
            return None
        return raw

    def put(self, data: bytes) -> str:
        """Store ``data`` remotely; returns its content key."""
        key = object_key(data)
        self.put_object(key, data)
        return key

    def put_object(self, key: str, data: bytes) -> str:
        self._request("PUT", f"/store/{key}", data=data, headers=_OCTET_HEADERS)
        return key

    def has(self, key: str) -> bool:
        return self._request("HEAD", f"/store/{key}") is not _MISS

    def has_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        """One batched existence probe for many keys."""
        wanted: List[str] = list(keys)
        if not wanted:
            return {}
        raw = self._request(
            "POST",
            "/store/has",
            data=json.dumps({"keys": wanted}).encode("utf-8"),
            headers=_JSON_HEADERS,
        )
        present = json.loads(raw.decode("utf-8")).get("present", {})
        return {key: bool(present.get(key, False)) for key in wanted}

    # -- refs ----------------------------------------------------------------------
    def get_ref(self, name: str) -> Optional[str]:
        raw = self._request("GET", f"/store/refs/{name}")
        if raw is _MISS:
            return None
        value = json.loads(raw.decode("utf-8")).get("key")
        if not isinstance(value, str) or not KEY_PATTERN.match(value):
            return None
        return value

    def set_ref(self, name: str, content_key: str) -> None:
        self._request(
            "PUT",
            f"/store/refs/{name}",
            data=json.dumps({"key": content_key}).encode("utf-8"),
            headers=_JSON_HEADERS,
        )

    # -- stats ---------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        raw = self._request("GET", "/store/stats")
        return json.loads(raw.decode("utf-8"))
