"""``repro-search top``: a live terminal view over a daemon's fleet.

One scrape cycle reads two endpoints of a ``repro-search serve`` daemon --
``GET /metrics`` (Prometheus text, parsed back into samples) and
``GET /runs`` (the registry's status rows) -- and renders them as a compact
dashboard: runs by state, worker-slot occupancy and queue depth, engine
throughput, cache hit rate, pool utilisation and per-run progress rows.
Pure functions do the formatting, so tests can drive :func:`render` on a
canned scrape without a terminal or a daemon.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import parse_prometheus_text
from repro.utils.http import HttpClient

Samples = Dict[str, List[Dict[str, Any]]]

_CLEAR = "\x1b[2J\x1b[H"


def fetch_metrics(url: str, timeout: float = 10.0) -> Samples:
    """Scrape and parse ``<url>/metrics``."""
    raw = HttpClient(url, timeout).request("GET", "/metrics")
    return parse_prometheus_text(raw.decode("utf-8"))


def sample_value(
    samples: Samples, name: str, labels: Optional[Dict[str, str]] = None
) -> Optional[float]:
    """The first sample of ``name`` whose labels include ``labels``."""
    wanted = labels or {}
    for sample in samples.get(name, ()):  # insertion order = exposition order
        if all(sample["labels"].get(k) == v for k, v in wanted.items()):
            return sample["value"]
    return None


def histogram_quantile(
    samples: Samples, name: str, q: float, labels: Optional[Dict[str, str]] = None
) -> Optional[float]:
    """Approximate quantile of an exposed histogram (bucket upper bound)."""
    wanted = labels or {}
    buckets = [
        (float(s["labels"]["le"].replace("+Inf", "inf")), s["value"])
        for s in samples.get(f"{name}_bucket", ())
        if all(s["labels"].get(k) == v for k, v in wanted.items())
    ]
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total == 0:
        return None
    target = q * total
    for bound, cumulative in buckets:
        if cumulative >= target:
            return bound
    return buckets[-1][0]


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return ">60s"
    if value < 1.0:
        return f"{value * 1000:.0f}ms"
    return f"{value:.1f}s"


def _fmt_count(value: Optional[float]) -> str:
    return "-" if value is None else str(int(value))


def _state_counts(runs: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for status in runs:
        counts[status.get("state", "?")] = counts.get(status.get("state", "?"), 0) + 1
    return counts


def _run_row(status: Dict[str, Any]) -> str:
    best = status.get("best_reward")
    done = status.get("episodes_done")
    return (
        f"  {status.get('run_id', '?'):32s} {status.get('state', '?'):9s} "
        f"{status.get('strategy') or '?':10s} "
        f"episodes={'-' if done is None else done}/{status.get('episodes', '-')} "
        f"best={'-' if best is None else format(best, '+.4f')}"
    )


def render(metrics: Samples, runs: List[Dict[str, Any]], url: str) -> str:
    """One dashboard frame as a multi-line string."""
    now = time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [f"repro-search top -- {url}  ({now})"]

    states = _state_counts(runs)
    state_text = ", ".join(
        f"{states[state]} {state}"
        for state in ("running", "queued", "finished", "failed", "cancelled")
        if states.get(state)
    )
    busy = sample_value(metrics, "repro_service_slots_busy")
    slots = sample_value(metrics, "repro_service_worker_slots")
    depth = sample_value(metrics, "repro_service_queue_depth")
    lines.append(
        f"fleet: {len(runs)} runs ({state_text or 'none'}) | "
        f"slots {_fmt_count(busy)}/{_fmt_count(slots)} busy | "
        f"queue depth {_fmt_count(depth)}"
    )

    eps = sample_value(metrics, "repro_engine_episodes_per_second")
    trained = sample_value(
        metrics, "repro_engine_episodes_total", {"result": "trained"}
    )
    cached = sample_value(metrics, "repro_engine_episodes_total", {"result": "cached"})
    rejected = sample_value(
        metrics, "repro_engine_episodes_total", {"result": "rejected"}
    )
    episodes = sum(value or 0 for value in (trained, cached, rejected))
    lines.append(
        f"engine: {'-' if eps is None else format(eps, '.2f')} episodes/s | "
        f"wave p50 {_fmt_seconds(histogram_quantile(metrics, 'repro_engine_wave_seconds', 0.5))} "
        f"p90 {_fmt_seconds(histogram_quantile(metrics, 'repro_engine_wave_seconds', 0.9))} | "
        f"episodes {int(episodes)} "
        f"(trained {_fmt_count(trained)}, cached {_fmt_count(cached)}, "
        f"rejected {_fmt_count(rejected)})"
    )

    hits = sample_value(metrics, "repro_cache_lookups_total", {"result": "hit"}) or 0
    misses = (
        sample_value(metrics, "repro_cache_lookups_total", {"result": "miss"}) or 0
    )
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "-"
    lines.append(
        f"cache: hit rate {rate} ({int(hits)} hits / {int(misses)} misses) | "
        f"lookup p50 {_fmt_seconds(histogram_quantile(metrics, 'repro_cache_lookup_seconds', 0.5))}"
    )

    in_flight = sample_value(metrics, "repro_pool_in_flight")
    tasks = sample_value(metrics, "repro_pool_tasks_total")
    lines.append(
        f"pool: in-flight {_fmt_count(in_flight)} | tasks {_fmt_count(tasks)} | "
        f"task p50 {_fmt_seconds(histogram_quantile(metrics, 'repro_pool_task_seconds', 0.5))} | "
        f"queue wait p50 {_fmt_seconds(histogram_quantile(metrics, 'repro_pool_queue_wait_seconds', 0.5))}"
    )

    epochs = sample_value(metrics, "repro_trainer_epochs_total")
    samples_per_second = sample_value(metrics, "repro_trainer_samples_per_second")
    lines.append(
        f"trainer: epochs {_fmt_count(epochs)} | epoch p50 "
        f"{_fmt_seconds(histogram_quantile(metrics, 'repro_trainer_epoch_seconds', 0.5))} | "
        f"last {'-' if samples_per_second is None else format(samples_per_second, '.0f')} samples/s"
    )

    # The serving row only appears once a model has answered a predict.
    served = sum(
        sample["value"] for sample in metrics.get("repro_serving_requests_total", ())
    )
    if served:
        batches = sum(
            s["value"] for s in metrics.get("repro_serving_batches_total", ())
        )
        rejected = sum(
            s["value"] for s in metrics.get("repro_serving_rejected_total", ())
        )
        lines.append(
            f"serving: requests {int(served)} | batches {int(batches)} "
            f"({served / max(batches, 1):.1f} req/batch) | rejected {int(rejected)} | "
            f"request p50 {_fmt_seconds(histogram_quantile(metrics, 'repro_serving_request_seconds', 0.5))} "
            f"p99 {_fmt_seconds(histogram_quantile(metrics, 'repro_serving_request_seconds', 0.99))}"
        )

    lines.append("-" * 78)
    if runs:
        lines.extend(_run_row(status) for status in runs[-20:])
    else:
        lines.append("  (no runs)")
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    stream=None,
    clear: bool = True,
) -> int:
    """Scrape-and-render loop; ``iterations=None`` runs until interrupted."""
    from repro.service.remote import ServiceExecutor

    stream = stream or sys.stdout
    executor = ServiceExecutor(url)
    count = 0
    while True:
        metrics = fetch_metrics(url)
        runs = executor.list_runs()
        frame = render(metrics, runs, url)
        prefix = _CLEAR if (clear and iterations != 1) else ""
        print(f"{prefix}{frame}", file=stream, flush=True)
        count += 1
        if iterations is not None and count >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
