"""Tests for the observability layer: metric registries, Prometheus
exposition, span tracing, Chrome trace export, the daemon's /metrics
endpoint and the observes-never-steers invariant."""

from __future__ import annotations

import json
import os
import threading
import urllib.request

import pytest

from repro.api.run import run
from repro.api.spec import (
    DatasetSpec,
    DesignSpecConfig,
    RunSpec,
    SearchParams,
)
from repro.engine.engine import EngineConfig
from repro.engine.events import METRICS_UPDATED, SPAN, EngineEvent
from repro.obs import metrics as obs
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.tracing import Tracer
from repro.obs.trace_export import chrome_trace, export_chrome_trace
from repro.obs.top import histogram_quantile, render, sample_value
from repro.service.cli import ProgressPrinter


def _tiny_spec(episodes: int = 2, **search_kwargs) -> RunSpec:
    return RunSpec(
        strategy="fahana",
        dataset=DatasetSpec(
            image_size=10,
            samples_per_class=8,
            minority_fraction=0.5,
            seed=123,
            split_seed=0,
        ),
        design=DesignSpecConfig(timing_constraint_ms=1e6),
        search=SearchParams(
            episodes=episodes,
            child_epochs=1,
            child_batch_size=8,
            pretrain_epochs=0,
            max_searchable=2,
            width_multiplier=0.25,
            seed=0,
            **search_kwargs,
        ),
    )


# -- registry semantics ---------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "help", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        child = hist.labels()
        buckets = child.buckets()
        assert buckets == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
        assert child.count == 5
        assert child.sum == pytest.approx(56.05)
        assert child.quantile(0.5) == 1.0

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 0.5))

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("mixed")
        with pytest.raises(ValueError):
            registry.gauge("mixed")

    def test_labeled_children_are_distinct_series(self):
        registry = MetricsRegistry()
        family = registry.counter("lookups_total", "h", labelnames=("result",))
        family.labels(result="hit").inc(3)
        family.labels(result="miss").inc()
        values = {
            labels["result"]: child.value for labels, child in family.samples()
        }
        assert values == {"hit": 3.0, "miss": 1.0}

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("contended_total")
        child = counter.labels()

        def spin():
            for _ in range(1000):
                child.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0

    def test_parent_mirroring_writes_through(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("c_total").inc(2)
        child.histogram("h", buckets=(1.0,)).observe(0.5)
        assert parent.counter("c_total").value == 2.0
        assert parent.histogram("h", buckets=(1.0,)).labels().count == 1
        # Writes are mirrored, not shared: a sibling run keeps its own view.
        sibling = MetricsRegistry(parent=parent)
        sibling.counter("c_total").inc()
        assert child.counter("c_total").value == 2.0
        assert parent.counter("c_total").value == 3.0

    def test_disabled_writes_are_dropped(self):
        registry = MetricsRegistry()
        counter = registry.counter("kill_total")
        previous = obs.set_enabled(False)
        try:
            counter.inc()
            registry.histogram("kill_h").observe(1.0)
        finally:
            obs.set_enabled(previous)
        assert counter.value == 0.0
        counter.inc()
        assert counter.value == 1.0

    def test_callback_gauges_replace_and_never_raise(self):
        registry = MetricsRegistry()
        registry.register_callback("cb", "old", lambda: 1.0)
        registry.register_callback("cb", "new", lambda: 2.0)
        registry.register_callback("boom", "raises", lambda: 1 / 0)
        snapshot = registry.snapshot()
        assert snapshot["cb"]["samples"] == [{"labels": {}, "value": 2.0}]
        assert "boom" not in snapshot
        registry.unregister_callback("cb")
        assert "cb" not in registry.snapshot()

    def test_snapshot_is_json_encodable(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "h", labelnames=("k",)).labels(k="v").inc()
        registry.histogram("b").observe(0.2)
        json.dumps(registry.snapshot())


# -- exposition format ----------------------------------------------------------------
class TestPrometheusExposition:
    def test_golden_exposition(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_demo_total", "Demo counter", labelnames=("result",)
        ).labels(result="hit").inc(3)
        registry.gauge("repro_demo_gauge", "Demo gauge").set(1.5)
        hist = registry.histogram("repro_demo_seconds", "Demo hist", buckets=(0.5, 1.0))
        hist.observe(0.2)
        hist.observe(2.0)
        assert registry.render_prometheus() == (
            "# HELP repro_demo_total Demo counter\n"
            "# TYPE repro_demo_total counter\n"
            'repro_demo_total{result="hit"} 3\n'
            "# HELP repro_demo_gauge Demo gauge\n"
            "# TYPE repro_demo_gauge gauge\n"
            "repro_demo_gauge 1.5\n"
            "# HELP repro_demo_seconds Demo hist\n"
            "# TYPE repro_demo_seconds histogram\n"
            'repro_demo_seconds_bucket{le="0.5"} 1\n'
            'repro_demo_seconds_bucket{le="1"} 1\n'
            'repro_demo_seconds_bucket{le="+Inf"} 2\n'
            "repro_demo_seconds_sum 2.2\n"
            "repro_demo_seconds_count 2\n"
        )

    def test_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("rt_total", "h", labelnames=("k",)).labels(k='a"b\\c').inc(7)
        registry.histogram("rt_seconds", buckets=(1.0,)).observe(0.5)
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert sample_value(parsed, "rt_total", {"k": 'a"b\\c'}) == 7.0
        assert sample_value(parsed, "rt_seconds_count") == 1.0
        assert sample_value(parsed, "rt_seconds_bucket", {"le": "+Inf"}) == 1.0


# -- span tracing ---------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_ordering(self):
        emitted = []
        tracer = Tracer(lambda payload, episode: emitted.append((payload, episode)))
        with tracer.span("outer", episode=3):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        # Children complete (and emit) before their parent.
        names = [payload["name"] for payload, _ in emitted]
        assert names == ["inner", "inner2", "outer"]
        by_name = {payload["name"]: payload for payload, _ in emitted}
        outer = by_name["outer"]
        assert outer["parent_id"] == 0
        assert by_name["inner"]["parent_id"] == outer["span_id"]
        assert by_name["inner2"]["parent_id"] == outer["span_id"]
        assert emitted[2][1] == 3  # episode rides the event, not the payload
        assert outer["dur"] >= by_name["inner"]["dur"]

    def test_record_nests_under_open_span(self):
        emitted = []
        tracer = Tracer(lambda payload, episode: emitted.append(payload))
        with tracer.span("stage") as stage_id:
            tracer.record("train", start=123.0, duration=0.25, tid="worker-1")
        recorded = emitted[0]
        assert recorded["parent_id"] == stage_id
        assert recorded["tid"] == "worker-1"
        assert recorded["ts"] == 123.0
        assert recorded["dur"] == 0.25

    def test_disabled_tracer_emits_nothing(self):
        emitted = []
        tracer = Tracer(lambda payload, episode: emitted.append(payload))
        previous = obs.set_enabled(False)
        try:
            with tracer.span("quiet") as span_id:
                assert span_id == 0
            assert tracer.record("r", start=0.0, duration=0.0) == 0
        finally:
            obs.set_enabled(previous)
        assert emitted == []


# -- chrome trace export --------------------------------------------------------------
class TestTraceExport:
    def _span_event(self, name, ts, dur, tid="engine", parent=0, episode=None):
        return EngineEvent(
            kind=SPAN,
            episode=episode,
            payload={
                "name": name, "cat": "engine", "ts": ts, "dur": dur,
                "tid": tid, "span_id": 1, "parent_id": parent,
            },
        )

    def test_chrome_trace_structure(self):
        events = [
            self._span_event("wave", 100.0, 0.5, episode=0),
            self._span_event("train", 100.1, 0.3, tid="worker-1", parent=1),
        ]
        document = chrome_trace(events)
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metadata} == {"engine", "worker-1"}
        wave, train = spans
        assert wave["ts"] == 0.0  # normalized to the earliest span
        assert train["ts"] == pytest.approx(100000.0)  # +0.1 s in us
        assert train["dur"] == pytest.approx(300000.0)
        assert train["args"]["parent_span"] == 1
        assert wave["args"]["episode"] == 0

    def test_export_round_trip_from_live_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run(_tiny_spec(), engine=EngineConfig(run_dir=run_dir))
        summary = export_chrome_trace(run_dir)
        assert summary["spans"] > 0
        with open(summary["path"]) as handle:
            document = json.load(handle)
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        # The engine phases and the worker-measured training spans are there.
        assert {"wave", "sample", "evaluate", "observe", "train"} <= names
        assert all(
            e["ts"] >= 0.0 for e in document["traceEvents"] if e["ph"] == "X"
        )

    def test_export_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            export_chrome_trace(str(tmp_path))
        telemetry = tmp_path / "telemetry.jsonl"
        telemetry.write_text('{"kind": "run-started", "timestamp": 1.0}\n')
        with pytest.raises(ValueError):
            export_chrome_trace(str(tmp_path))


# -- instrumented runs ----------------------------------------------------------------
class TestRunInstrumentation:
    def test_report_metrics_snapshot(self, tmp_path):
        report = run(
            _tiny_spec(),
            engine=EngineConfig(run_dir=str(tmp_path / "run"), use_cache=True),
        )
        metrics = report.metrics
        episodes = sum(
            sample["value"]
            for sample in metrics["repro_engine_episodes_total"]["samples"]
        )
        assert episodes == 2
        assert metrics["repro_engine_waves_total"]["samples"][0]["value"] >= 1
        wave_hist = metrics["repro_engine_wave_seconds"]["samples"][0]
        assert wave_hist["count"] >= 1
        assert metrics["repro_cache_lookups_total"]["samples"]
        assert metrics["repro_pool_tasks_total"]["samples"][0]["value"] == 2
        json.dumps(report.to_dict())

    def test_metrics_updated_event_and_progress_line(self, tmp_path):
        report = run(
            _tiny_spec(),
            engine=EngineConfig(run_dir=str(tmp_path / "run"), use_cache=True),
        )
        updates = [
            json.loads(line)
            for line in open(report.telemetry_path)
            if json.loads(line)["kind"] == METRICS_UPDATED
        ]
        assert updates and updates[-1]["episodes_done"] == 2
        assert updates[-1]["episodes_per_second"] > 0
        assert updates[-1]["cache_hit_rate"] is not None
        line = ProgressPrinter().line(EngineEvent.from_dict(updates[-1]))
        assert "2 episodes" in line and "ep/s" in line and "cache hit rate" in line

    def test_per_run_registries_are_isolated(self, tmp_path):
        first = run(_tiny_spec(), engine=EngineConfig(use_cache=True))
        second = run(_tiny_spec(), engine=EngineConfig(use_cache=True))

        def episode_count(report):
            return sum(
                s["value"]
                for s in report.metrics["repro_engine_episodes_total"]["samples"]
            )

        assert episode_count(first) == 2
        assert episode_count(second) == 2  # not 4: snapshots are per run

    def test_instrumentation_does_not_steer(self, tmp_path):
        """Float64 runs are bit-for-bit identical with observability off."""
        baseline = run(_tiny_spec(episodes=3))
        previous = obs.set_enabled(False)
        try:
            dark = run(_tiny_spec(episodes=3))
        finally:
            obs.set_enabled(previous)
        assert [r.reward for r in baseline.history.records] == [
            r.reward for r in dark.history.records
        ]
        assert [r.accuracy for r in baseline.history.records] == [
            r.accuracy for r in dark.history.records
        ]
        assert baseline.spec.cache_key() == dark.spec.cache_key()
        # The disabled run recorded nothing.
        assert all(
            not sample.get("value") and not sample.get("count")
            for payload in dark.metrics.values()
            for sample in payload["samples"]
        )


# -- the daemon endpoint and the top dashboard ---------------------------------------
class TestMetricsEndpoint:
    def test_daemon_serves_prometheus_text(self, tmp_path):
        from repro.service.client import RunClient
        from repro.service.daemon import RunService

        # A fresh process-global registry: /metrics is the process fleet
        # view, and other tests' runs have already mirrored into the old one.
        previous = obs.set_registry(MetricsRegistry())
        service = RunService(str(tmp_path / "runs"), port=0).start()
        try:
            handle = RunClient.connect(service.url).submit(_tiny_spec())
            handle.result(timeout=120)
            with urllib.request.urlopen(f"{service.url}/metrics") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode("utf-8")
            parsed = parse_prometheus_text(text)
            assert sample_value(parsed, "repro_service_worker_slots") == 1.0
            assert (
                sample_value(parsed, "repro_service_runs", {"state": "finished"})
                == 1.0
            )
            episodes = sum(
                s["value"] for s in parsed.get("repro_engine_episodes_total", [])
            )
            assert episodes == 2.0
            assert sample_value(parsed, "repro_engine_waves_total") >= 1.0
        finally:
            service.shutdown()
            obs.set_registry(previous)

    def test_top_renders_canned_scrape(self):
        registry = MetricsRegistry()
        registry.gauge("repro_service_worker_slots").set(2)
        registry.gauge("repro_service_slots_busy").set(1)
        registry.gauge("repro_service_queue_depth").set(3)
        registry.counter(
            "repro_engine_episodes_total", labelnames=("result",)
        ).labels(result="trained").inc(5)
        registry.histogram("repro_engine_wave_seconds").observe(0.3)
        metrics = parse_prometheus_text(registry.render_prometheus())
        runs = [
            {
                "run_id": "r1", "state": "running", "strategy": "fahana",
                "episodes_done": 5, "episodes": 10, "best_reward": 0.5,
            }
        ]
        frame = render(metrics, runs, "http://localhost:1")
        assert "slots 1/2 busy" in frame
        assert "queue depth 3" in frame
        assert "trained 5" in frame
        assert "r1" in frame and "running" in frame
        assert (
            histogram_quantile(metrics, "repro_engine_wave_seconds", 0.5) == 0.5
        )
