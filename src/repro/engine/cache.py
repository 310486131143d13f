"""Content-addressed evaluation cache.

The controller frequently re-samples architectures it has already proposed --
especially late in a search, when the policy has sharpened.  Re-training such
a child wastes the entire evaluation budget, so the engine memoizes
:class:`~repro.core.evaluator.EvaluationResult` objects under a canonical
fingerprint of the child's :class:`~repro.zoo.descriptors.ArchitectureDescriptor`
combined with an evaluation-context fingerprint (training and reward
configuration, device, dataset contents).  This generalises the paper's
"price before train" acceleration: pricing rejects children that would fail
the timing constraint, the cache rejects children that have already been
measured.

Two tiers, consulted in order:

1. an in-memory LRU,
2. an optional *shared* tier (:class:`SharedCacheTier`) over a
   :mod:`repro.store` artifact store, read-through/write-through.  A
   :class:`~repro.store.core.LocalStore` root keeps results across restarts
   and shares them between processes on one host; the daemon's store shares
   them across hosts, so concurrent engines never train the same
   ``(context, child, fidelity)`` twice.  Tier payloads are the canonical
   JSON of the result, stored content-addressed and looked up through a
   fingerprint-named ref, so a fetched result is bit-for-bit the one some
   other engine computed.  The store writes atomically, verifies every read
   against its hash and deletes a corrupt object, which then reads as a
   miss and is recomputed.  A key that missed is negatively cached and not
   asked for again until this process publishes it.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.evaluator import EvaluationResult
from repro.engine.serde import result_from_dict, result_to_dict
from repro.obs import metrics as obs_metrics
from repro.utils.fingerprint import canonical_json

# Everything a malformed cache payload can raise while being decoded and
# rebuilt into an EvaluationResult.
_CORRUPT_ENTRY_ERRORS = (ValueError, KeyError, TypeError)


class SharedCacheTier:
    """Read-through/write-through memoization over an artifact store.

    ``store`` is any object speaking the store protocol (``get``/``put``/
    ``get_ref``/``set_ref``) -- in practice a
    :class:`~repro.store.tiered.TieredStore`, so unreachability degrades
    inside the store layer and never surfaces here.  A result is stored as
    its canonical JSON bytes under their content key, with a ref named by
    the cache fingerprint pointing at it; both halves are hash-verified on
    the way back, so a fetched result is bit-for-bit the published one.
    """

    def __init__(self, store: Any):
        self.store = store
        self.hits = 0
        self.misses = 0
        self.suppressed = 0
        self.publishes = 0
        # Fingerprints known absent remotely: a shared-tier miss is not
        # retried until we publish the key ourselves (negative-lookup
        # suppression -- each miss costs at most one remote round trip).
        self._negative: Set[str] = set()
        self._tracer = None
        self.bind_metrics(obs_metrics.get_registry())

    def bind_metrics(self, registry: "obs_metrics.MetricsRegistry") -> None:
        self._m_lookups = registry.counter(
            "repro_store_tier_lookups_total",
            "Shared-tier lookups by result",
            labelnames=("result",),
        )
        self._m_seconds = registry.histogram(
            "repro_store_tier_seconds",
            "Shared-tier operation latency",
            labelnames=("op",),
        )
        self._m_publishes = registry.counter(
            "repro_store_tier_publishes_total", "Results published to the tier"
        )
        bind = getattr(self.store, "bind_metrics", None)
        if bind is not None:
            bind(registry)

    def bind_tracer(self, tracer: Any) -> None:
        """Record fetch/publish round trips as spans on a ``store`` timeline."""
        self._tracer = tracer

    @property
    def degraded(self) -> bool:
        return bool(getattr(self.store, "degraded", False))

    def fetch(self, key: str) -> Optional[EvaluationResult]:
        """The tier's result for ``key``, or None (miss/suppressed/corrupt)."""
        if key in self._negative:
            self.suppressed += 1
            self._m_lookups.labels(result="suppressed").inc()
            return None
        wall_start = time.time()  # repro-lint: disable=DET001 -- telemetry span timestamp; never enters results or cache keys
        start = time.perf_counter()
        content_key = self.store.get_ref(key)
        data = None if content_key is None else self.store.get(content_key)
        elapsed = time.perf_counter() - start
        self._m_seconds.labels(op="fetch").observe(elapsed)
        self._record_span("store:fetch", wall_start, elapsed)
        result: Optional[EvaluationResult] = None
        if data is not None:
            try:
                result = result_from_dict(json.loads(data.decode("utf-8")))
            except _CORRUPT_ENTRY_ERRORS:
                result = None
        if result is None:
            self._negative.add(key)
            self.misses += 1
            self._m_lookups.labels(result="miss").inc()
            return None
        self.hits += 1
        self._m_lookups.labels(result="hit").inc()
        return result

    def publish(self, key: str, result: EvaluationResult) -> None:
        """Write ``result`` through to the tier under fingerprint ``key``."""
        payload = canonical_json(result_to_dict(result)).encode("utf-8")
        wall_start = time.time()  # repro-lint: disable=DET001 -- telemetry span timestamp; never enters results or cache keys
        start = time.perf_counter()
        content_key = self.store.put(payload)
        self.store.set_ref(key, content_key)
        elapsed = time.perf_counter() - start
        self._m_seconds.labels(op="publish").observe(elapsed)
        self._record_span("store:publish", wall_start, elapsed)
        self._negative.discard(key)
        self.publishes += 1
        self._m_publishes.inc()

    def _record_span(self, name: str, wall_start: float, duration: float) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.record(name, start=wall_start, duration=duration, tid="store")


class EvaluationCache:
    """LRU cache mapping content fingerprints to evaluation results."""

    def __init__(self, capacity: int = 1024, tier: Optional[SharedCacheTier] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.tier = tier
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, EvaluationResult]" = OrderedDict()
        self.bind_metrics(obs_metrics.get_registry())

    def bind_metrics(self, registry: "obs_metrics.MetricsRegistry") -> None:
        """Point the cache's instrumentation at ``registry``.

        The engine rebinds a cache it owns to its per-run registry (which
        mirrors into the process-global one), so lookups show up in both the
        run's ``RunReport.metrics`` snapshot and the daemon's ``/metrics``.
        """
        self._m_lookups = registry.counter(
            "repro_cache_lookups_total",
            "Evaluation-cache lookups by result",
            labelnames=("result",),
        )
        self._m_lookup_seconds = registry.histogram(
            "repro_cache_lookup_seconds",
            "Evaluation-cache lookup latency (both outcomes)",
        )
        self._m_entries = registry.gauge(
            "repro_cache_entries", "In-memory evaluation-cache entries"
        )
        if self.tier is not None:
            self.tier.bind_metrics(registry)

    def bind_tracer(self, tracer: Any) -> None:
        if self.tier is not None:
            self.tier.bind_tracer(tracer)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- lookup / insert ---------------------------------------------------------
    def get(self, key: str) -> Optional[EvaluationResult]:
        """Return the memoized result for ``key``, or None on a miss."""
        start = time.perf_counter()
        entry = self._lookup(key)
        self._m_lookup_seconds.observe(time.perf_counter() - start)
        self._m_lookups.labels(result="hit" if entry is not None else "miss").inc()
        return entry

    def _lookup(self, key: str) -> Optional[EvaluationResult]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        if self.tier is not None:
            entry = self.tier.fetch(key)
            if entry is not None:
                # A shared-tier hit becomes an in-memory entry, so repeats
                # of this key never reach the store again.
                self._insert(key, entry)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def put(self, key: str, result: EvaluationResult) -> None:
        """Memoize ``result`` under ``key`` (and publish it to the tier)."""
        self._insert(key, result)
        if self.tier is not None:
            self.tier.publish(key, result)

    def _insert(self, key: str, result: EvaluationResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        self._m_entries.set(len(self._entries))

    # -- checkpointing ------------------------------------------------------------
    def snapshot(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The in-memory entries in LRU order (oldest first), JSON-encodable."""
        return [(key, result_to_dict(result)) for key, result in self._entries.items()]

    def restore(self, entries: List[Tuple[str, Dict[str, Any]]]) -> None:
        """Replace the in-memory entries with a :meth:`snapshot` payload."""
        self._entries.clear()
        for key, payload in entries:
            self._insert(str(key), result_from_dict(payload))
