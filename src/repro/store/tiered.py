""":class:`TieredStore`: local-first reads, write-through publication, and
one-way degradation when the remote tier disappears.

The tier order is fixed: reads try the local store, then the remote one (a
remote hit is written back locally, so the *next* read is a disk read);
writes land locally first and are then published to the remote tier.  The
remote side is strictly an accelerator -- the first
:class:`~repro.store.core.StoreUnavailable` flips a permanent ``degraded``
flag, fires the ``on_degraded`` callback exactly once (the engine turns it
into a typed ``store-degraded`` event), and every later operation is served
local-only without touching the network again.  An unreachable daemon
therefore costs one failed round trip per process, never a failed run.

Either side may be absent: a local-only tier is a plain passthrough (how a
shared ``--store-root`` on one host behaves), a remote-only tier keeps the
degradation contract and keeps nothing on this host's disk.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.store.core import LocalStore, StoreUnavailable, object_key
from repro.store.remote import RemoteStore

# Receives a JSON-encodable payload describing the degradation.
DegradedCallback = Callable[[Dict[str, Any]], None]


class TieredStore:
    """Compose an optional :class:`LocalStore` and :class:`RemoteStore`."""

    def __init__(
        self,
        local: Optional[LocalStore] = None,
        remote: Optional[RemoteStore] = None,
        on_degraded: Optional[DegradedCallback] = None,
    ):
        if local is None and remote is None:
            raise ValueError("a tiered store needs a local or a remote side")
        self.local = local
        self.remote = remote
        self.on_degraded = on_degraded
        self.degraded = False

    # -- degradation ---------------------------------------------------------------
    def _call_remote(self, op: str, call: Callable[[], Any], default: Any) -> Any:
        """Run one remote operation; degrade (once, permanently) on transport loss."""
        if self.remote is None or self.degraded:
            return default
        try:
            return call()
        except StoreUnavailable as error:
            self._degrade(op, error)
            return default

    def _degrade(self, op: str, error: Exception) -> None:
        self.degraded = True
        callback = self.on_degraded
        if callback is not None:
            callback(
                {
                    "op": op,
                    "url": self.remote.base_url if self.remote else None,
                    "error": str(error),
                }
            )

    # -- objects -------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        if self.local is not None:
            data = self.local.get(key)
            if data is not None:
                return data
        data = self._call_remote("get", lambda: self.remote.get(key), None)
        if data is not None and self.local is not None:
            # Read-through population: the remote payload is already
            # verified, so the next lookup never leaves this host.
            self.local.put(data)
        return data

    def put(self, data: bytes) -> str:
        key = self.local.put(data) if self.local is not None else object_key(data)
        self._call_remote("put", lambda: self.remote.put_object(key, data), None)
        return key

    def has(self, key: str) -> bool:
        if self.local is not None and self.local.has(key):
            return True
        return bool(self._call_remote("has", lambda: self.remote.has(key), False))

    def has_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        wanted = list(keys)
        present = {key: False for key in wanted}
        if self.local is not None:
            present.update(self.local.has_many(wanted))
        missing = [key for key in wanted if not present[key]]
        if missing:
            remote = self._call_remote(
                "has", lambda: self.remote.has_many(missing), {}
            )
            present.update(remote)
        return present

    # -- refs ----------------------------------------------------------------------
    def get_ref(self, name: str) -> Optional[str]:
        if self.local is not None:
            value = self.local.get_ref(name)
            if value is not None:
                return value
        value = self._call_remote("get_ref", lambda: self.remote.get_ref(name), None)
        if value is not None and self.local is not None:
            self.local.set_ref(name, value)
        return value

    def set_ref(self, name: str, content_key: str) -> None:
        if self.local is not None:
            self.local.set_ref(name, content_key)
        self._call_remote(
            "set_ref", lambda: self.remote.set_ref(name, content_key), None
        )

    # -- plumbing ------------------------------------------------------------------
    def bind_metrics(self, registry) -> None:
        if self.local is not None:
            self.local.bind_metrics(registry)

    def stats(self) -> Dict[str, Any]:
        return {
            "degraded": self.degraded,
            "local": None if self.local is None else self.local.stats(),
            "remote_url": None if self.remote is None else self.remote.base_url,
        }
