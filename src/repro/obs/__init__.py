"""``repro.obs`` -- the observability layer: metrics, spans and profiling.

Three pieces, one rule (observability observes, it never steers):

* :mod:`repro.obs.metrics` -- process-local counters/gauges/histograms with
  Prometheus text exposition (the daemon's ``GET /metrics``) and
  JSON-encodable snapshots (``RunReport.metrics``).  Per-run registries
  mirror into the process-global one, so one instrumentation write serves
  both the per-run report and the fleet view.
* :mod:`repro.obs.tracing` -- nested spans over the episode lifecycle,
  emitted as ``span`` events on the existing typed event stream and
  persisted in ``telemetry.jsonl``.
* :mod:`repro.obs.trace_export` / :mod:`repro.obs.top` -- the consumers:
  Chrome ``trace_event`` export (``repro-search trace``) and the live
  terminal dashboard (``repro-search top``).

Instrumentation is default-on and cheap; :func:`set_enabled` is the global
kill switch the overhead benchmark (``benchmarks/bench_obs.py``) measures
against.  None of it touches ``cache_key()``, the context fingerprint or any
RNG stream -- an instrumented float64 run is bit-for-bit the seed run.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    get_registry,
    parse_prometheus_text,
    set_enabled,
    set_registry,
)
from repro.obs.tracing import Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "enabled",
    "get_registry",
    "parse_prometheus_text",
    "set_enabled",
    "set_registry",
]
