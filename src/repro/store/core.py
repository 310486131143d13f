"""The content-addressed store core: :class:`LocalStore`.

Layout of one store root::

    <root>/
      objects/ab/cdef...            payload bytes, named by their SHA-256
      refs/12/34ab...               64-hex content key, named by a fingerprint

Objects are immutable by construction -- the name *is* the hash of the
bytes -- which buys three properties the rest of the platform leans on:

* **Dedupe is free.**  Writing equal content twice is a no-op; the zoo's
  weight blobs and the evaluation tier's result payloads share storage
  across runs, hosts and time.
* **Reads are verifiable.**  Every ``get`` re-hashes what it read; a torn
  or bit-rotted object is deleted and reported as a miss so the caller
  recomputes or refetches instead of consuming garbage.
* **Writes are atomic.**  Payloads land in a temp file in the final shard
  directory and are published with ``os.replace``, so a concurrent reader
  (another engine process on the same host, or the daemon's HTTP threads)
  never observes a partial object.

``refs/`` is the tiny mutable namespace on top: a ref maps a *cache
fingerprint* (context + child + fidelity) to the content key of its result
payload.  Keeping the mapping separate from the payload is what lets keyed
lookups coexist with hash-verified content addressing.

Eviction is LRU under an optional byte budget (``max_bytes``), skipping
pinned objects.  Recency is tracked with a monotonic counter, never file
mtimes or wall-clock -- on startup the scan order (sorted keys) seeds the
queue deterministically, so two processes that performed the same operations
evict the same objects.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs import metrics as obs_metrics

KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

OBJECTS_DIR = "objects"
REFS_DIR = "refs"


class StoreError(Exception):
    """A store operation failed for a non-transient reason (caller bug)."""


class StoreCorruptWrite(StoreError):
    """A keyed write's payload does not hash to its declared key."""


class StoreUnavailable(StoreError):
    """The remote store tier cannot be reached (transient transport fault)."""


def object_key(data: bytes) -> str:
    """The content key of a payload: its SHA-256 hex digest."""
    return hashlib.sha256(data).hexdigest()


def _check_key(key: str) -> str:
    if not KEY_PATTERN.match(key or ""):
        raise StoreError(f"not a store key (need 64 lowercase hex): {key!r}")
    return key


def _holds(path: str, data: bytes) -> bool:
    """True when the file at ``path`` holds exactly ``data``."""
    try:
        with open(path, "rb") as handle:
            return handle.read() == data
    except OSError:
        return False


class LocalStore:
    """One on-disk content-addressed store root (thread-safe)."""

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        on_corrupt: Optional[Callable[[str, str], None]] = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        # Called with (key, path) whenever a read fails hash verification.
        self.on_corrupt = on_corrupt
        self._objects_root = os.path.join(self.root, OBJECTS_DIR)
        self._refs_root = os.path.join(self.root, REFS_DIR)
        os.makedirs(self._objects_root, exist_ok=True)
        os.makedirs(self._refs_root, exist_ok=True)
        self._lock = threading.RLock()
        # key -> size, in least-recently-used-first order.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._bytes = 0
        self._pins: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "get_hit": 0,
            "get_miss": 0,
            "get_corrupt": 0,
            "put_new": 0,
            "put_dup": 0,
            "ref_hit": 0,
            "ref_miss": 0,
            "ref_write": 0,
            "evictions": 0,
        }
        self._scan()
        self.bind_metrics(obs_metrics.get_registry())

    # -- instrumentation -----------------------------------------------------------
    def bind_metrics(self, registry: "obs_metrics.MetricsRegistry") -> None:
        """Point the store's instrumentation at ``registry``."""
        self._m_gets = registry.counter(
            "repro_store_gets_total",
            "Store object reads by outcome",
            labelnames=("result",),
        )
        self._m_puts = registry.counter(
            "repro_store_puts_total",
            "Store object writes by outcome",
            labelnames=("result",),
        )
        self._m_refs = registry.counter(
            "repro_store_refs_total",
            "Store ref operations by outcome",
            labelnames=("result",),
        )
        self._m_evictions = registry.counter(
            "repro_store_evictions_total", "Objects evicted under the byte budget"
        )
        self._m_op_seconds = registry.histogram(
            "repro_store_op_seconds",
            "Store operation latency",
            labelnames=("op",),
        )
        self._m_bytes = registry.gauge(
            "repro_store_bytes", "Bytes held by the store's objects"
        )
        self._m_objects = registry.gauge(
            "repro_store_objects", "Objects held by the store"
        )
        with self._lock:
            self._m_bytes.set(self._bytes)
            self._m_objects.set(len(self._index))

    def _count(self, family: str, counter: str, result: str) -> None:
        self.counters[counter] += 1
        metric = getattr(self, f"_m_{family}", None)
        if metric is not None:
            metric.labels(result=result).inc()

    # -- paths ---------------------------------------------------------------------
    def object_relpath(self, key: str) -> str:
        """Store-root-relative path of an object (``objects/ab/cdef...``)."""
        _check_key(key)
        return os.path.join(OBJECTS_DIR, key[:2], key[2:])

    def object_path(self, key: str) -> str:
        """Absolute on-disk path of an object."""
        return os.path.join(self.root, self.object_relpath(key))

    def _ref_path(self, name: str) -> str:
        _check_key(name)
        return os.path.join(self._refs_root, name[:2], name[2:])

    def _scan(self) -> None:
        """Seed the index from disk, sorted by key (deterministic LRU seed)."""
        found: List[tuple] = []
        for shard in sorted(os.listdir(self._objects_root)):
            shard_dir = os.path.join(self._objects_root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for rest in sorted(os.listdir(shard_dir)):
                key = shard + rest
                if not KEY_PATTERN.match(key):
                    continue
                try:
                    size = os.path.getsize(os.path.join(shard_dir, rest))
                except OSError:
                    continue
                found.append((key, size))
        with self._lock:
            for key, size in found:
                self._index[key] = size
            self._bytes = sum(self._index.values())

    # -- objects -------------------------------------------------------------------
    def put(self, data: bytes) -> str:
        """Store ``data``; returns its content key (idempotent)."""
        return self.put_object(object_key(data), data, _verified=True)

    def put_object(self, key: str, data: bytes, _verified: bool = False) -> str:
        """Store ``data`` under its declared content ``key``.

        Raises :class:`StoreCorruptWrite` when the payload does not hash to
        ``key`` -- the guard that keeps a buggy (or corrupted-in-flight)
        remote write from poisoning the store.
        """
        _check_key(key)
        if not _verified and object_key(data) != key:
            raise StoreCorruptWrite(
                f"payload hashes to {object_key(data)[:12]}..., not the "
                f"declared key {key[:12]}..."
            )
        start = time.perf_counter()
        with self._lock:
            path = self.object_path(key)
            if _holds(path, data):
                self._touch(key, len(data))
                self._count("puts", "put_dup", "dup")
                self._observe_op("put", start)
                return key
            # Absent, torn or rotted: (re)write it, forgetting any stale size.
            self._drop(key)
            shard_dir = os.path.dirname(path)
            os.makedirs(shard_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.remove(tmp)
                raise
            self._index[key] = len(data)
            self._bytes += len(data)
            self._count("puts", "put_new", "new")
            self._evict_over_budget()
            self._note_size()
        self._observe_op("put", start)
        return key

    def get(self, key: str) -> Optional[bytes]:
        """Read an object, verifying its hash; None on miss *or* corruption.

        A payload that no longer hashes to its name is deleted before the
        miss is reported, so the caller's refetch (or recompute) lands in a
        clean slot -- torn local writes and bit rot self-heal.
        """
        _check_key(key)
        start = time.perf_counter()
        path = self.object_path(key)
        with self._lock:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except (FileNotFoundError, NotADirectoryError):
                self._drop(key)
                self._count("gets", "get_miss", "miss")
                self._observe_op("get", start)
                return None
            if object_key(data) != key:
                self._delete_object(key)
                self._count("gets", "get_corrupt", "corrupt")
                self._observe_op("get", start)
                if self.on_corrupt is not None:
                    self.on_corrupt(key, path)
                return None
            self._touch(key, len(data))
            self._count("gets", "get_hit", "hit")
        self._observe_op("get", start)
        return data

    def has(self, key: str) -> bool:
        """True when the object exists (no read, no verification)."""
        _check_key(key)
        with self._lock:
            return key in self._index or os.path.exists(self.object_path(key))

    def has_many(self, keys: Iterable[str]) -> Dict[str, bool]:
        """Batched :meth:`has` (the shape of the daemon's ``POST /store/has``)."""
        return {key: self.has(key) for key in keys}

    def size(self, key: str) -> Optional[int]:
        """Byte size of an object, or None when absent."""
        with self._lock:
            if key in self._index:
                return self._index[key]
            try:
                return os.path.getsize(self.object_path(key))
            except OSError:
                return None

    def delete(self, key: str) -> bool:
        """Remove an object outright; True when something was deleted."""
        _check_key(key)
        with self._lock:
            return self._delete_object(key)

    def keys(self) -> List[str]:
        """Every object key, sorted."""
        with self._lock:
            return sorted(self._index)

    # -- pinning / eviction --------------------------------------------------------
    def pin(self, key: str) -> None:
        """Protect an object from eviction (ref-counted)."""
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Release one :meth:`pin`; unknown/unpinned keys are a no-op."""
        with self._lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)
            self._evict_over_budget()
            self._note_size()

    def pinned(self, key: str) -> bool:
        with self._lock:
            return self._pins.get(key, 0) > 0

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used unpinned objects until under budget."""
        if self.max_bytes is None:
            return
        while self._bytes > self.max_bytes:
            victim = next(
                (key for key in self._index if self._pins.get(key, 0) == 0), None
            )
            if victim is None:  # everything left is pinned
                break
            self._delete_object(victim)
            self.counters["evictions"] += 1
            metric = getattr(self, "_m_evictions", None)
            if metric is not None:
                metric.inc()

    # -- refs ----------------------------------------------------------------------
    def set_ref(self, name: str, content_key: str) -> None:
        """Map fingerprint ``name`` to ``content_key`` (atomic overwrite)."""
        _check_key(content_key)
        path = self._ref_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(content_key + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        self._count("refs", "ref_write", "write")

    def get_ref(self, name: str) -> Optional[str]:
        """The content key ``name`` maps to, or None.

        A ref whose content is not a well-formed key (torn write, manual
        tampering) is deleted and reported as a miss -- same self-healing
        contract as corrupt objects.
        """
        path = self._ref_path(name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                value = handle.read().strip()
        except (FileNotFoundError, NotADirectoryError):
            self._count("refs", "ref_miss", "miss")
            return None
        if not KEY_PATTERN.match(value):
            try:
                os.remove(path)
            except OSError:
                pass
            self._count("refs", "ref_miss", "miss")
            return None
        self._count("refs", "ref_hit", "hit")
        return value

    # -- stats ---------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-encodable operation counters and occupancy (daemon ``/store/stats``)."""
        with self._lock:
            return {
                "root": self.root,
                "objects": len(self._index),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "pinned": sum(1 for count in self._pins.values() if count > 0),
                "gets": {
                    "hit": self.counters["get_hit"],
                    "miss": self.counters["get_miss"],
                    "corrupt": self.counters["get_corrupt"],
                },
                "puts": {
                    "new": self.counters["put_new"],
                    "dup": self.counters["put_dup"],
                },
                "refs": {
                    "hit": self.counters["ref_hit"],
                    "miss": self.counters["ref_miss"],
                    "write": self.counters["ref_write"],
                },
                "evictions": self.counters["evictions"],
            }

    # -- internals (call with the lock held) ----------------------------------------
    def _touch(self, key: str, size: int) -> None:
        """Mark ``key`` most-recently-used (admitting cross-process arrivals)."""
        if key not in self._index:
            self._index[key] = size
            self._bytes += size
        self._index.move_to_end(key)
        self._note_size()

    def _drop(self, key: str) -> None:
        """Forget an index entry whose file vanished underneath us."""
        size = self._index.pop(key, None)
        if size is not None:
            self._bytes -= size
            self._note_size()

    def _delete_object(self, key: str) -> bool:
        removed = False
        try:
            os.remove(self.object_path(key))
            removed = True
        except OSError:
            pass
        existed = key in self._index
        self._drop(key)
        return removed or existed

    def _note_size(self) -> None:
        bytes_metric = getattr(self, "_m_bytes", None)
        if bytes_metric is not None:
            bytes_metric.set(self._bytes)
            self._m_objects.set(len(self._index))

    def _observe_op(self, op: str, start: float) -> None:
        metric = getattr(self, "_m_op_seconds", None)
        if metric is not None:
            metric.labels(op=op).observe(time.perf_counter() - start)
