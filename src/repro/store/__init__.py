"""``repro.store``: a content-addressed artifact store with tiered sharing.

Every artifact the platform memoizes -- evaluation results, trained-weight
archives -- is addressed by the SHA-256 of its bytes, so equal content is
stored once and a read can always verify what it got.  The package has
three layers:

* :class:`LocalStore` -- one directory of sharded ``objects/ab/cdef...``
  files with atomic temp-file + ``os.replace`` writes, hash-verified reads
  (a corrupt object is deleted, never returned), a small named ``refs/``
  namespace mapping cache fingerprints to content keys, and ref-count-aware
  LRU eviction under a configurable byte budget.
* :class:`RemoteStore` -- the same operations spoken over a
  ``repro-search serve`` daemon's ``/store/*`` endpoints, with the shared
  deterministic jitter-free :class:`~repro.utils.http.RetryPolicy`.
  Transport faults raise :class:`StoreUnavailable`.
* :class:`TieredStore` -- local-first reads with read-through population
  from the remote tier and write-through publication to it.  The first
  unreachable remote call flips the tier into *degraded* (local-only) mode
  for the rest of the process: a dead daemon costs one failed round trip
  and a typed ``store-degraded`` event, never a failed run.
"""

from repro.store.core import (
    KEY_PATTERN,
    LocalStore,
    StoreCorruptWrite,
    StoreError,
    StoreUnavailable,
    object_key,
)
from repro.store.remote import RemoteStore
from repro.store.tiered import TieredStore

__all__ = [
    "KEY_PATTERN",
    "LocalStore",
    "RemoteStore",
    "TieredStore",
    "StoreError",
    "StoreCorruptWrite",
    "StoreUnavailable",
    "object_key",
]
