"""Tests for the run lifecycle API: RunClient/RunHandle, the local executor,
typed event streams, the HTTP daemon, cancellation/resume and the
regularized-evolution strategy satellite."""

from __future__ import annotations

import gc
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
import weakref

import pytest

import repro
from repro.api import DatasetSpec, DesignSpecConfig, RunSpec, SearchParams
from repro.api.cli import main as cli_main
from repro.engine import EngineConfig
from repro.engine.events import (
    CONSUMER_ERROR,
    EPISODE_FINISHED,
    RUN_CANCELLED,
    RUN_FINISHED,
    RUN_STARTED,
    EngineEvent,
    EventBus,
)
from repro.engine.checkpoint import has_checkpoint
from repro.obs import metrics as obs_metrics
from repro.service import (
    EventLog,
    LocalExecutor,
    RunCancelled,
    RunClient,
    RunNotFound,
    tail_telemetry,
)

SMOKE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "examples", "specs", "smoke.json"
)


def _tiny_spec(strategy: str = "fahana", episodes: int = 2, **search_kwargs) -> RunSpec:
    """A spec sized so one run takes well under a second."""
    return RunSpec(
        strategy=strategy,
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


def _comparable(report_dict: dict, include_stats: bool = True) -> dict:
    """A report's to_dict with run-local and wall-clock fields removed.

    What remains -- cache keys, rewards, descriptors, per-episode provenance
    -- must be bit-for-bit identical between a direct run and any
    service-managed execution of the same spec.  ``include_stats=False``
    additionally drops the per-engine-instance counters (a resumed engine
    counts only its own segment's evaluations), leaving exactly the
    computed results.
    """
    excluded = {
        "run_dir",
        "telemetry_path",
        "checkpoint_path",
        "spec_path",
        "checkpoints_written",
        "metrics",  # wall-clock histograms; run-local by design
        "resumed_from",
    }
    if not include_stats:
        excluded |= {
            "evaluations_run",
            "evaluations_by_fidelity",
            "cache_hits",
            "cache_hit_rate",
        }
    payload = {
        key: value for key, value in report_dict.items() if key not in excluded
    }
    payload["spec"] = {
        key: value for key, value in payload["spec"].items() if key != "engine"
    }
    history = dict(payload["history"])
    history.pop("total_seconds", None)
    history["records"] = [
        {
            key: value
            for key, value in record.items()
            if key not in ("elapsed_seconds", "worker")
        }
        for record in history["records"]
    ]
    payload["history"] = history
    return payload


# -- the one Event schema across transports ------------------------------------------
class TestEventSchema:
    def test_to_dict_from_dict_roundtrip(self):
        event = EngineEvent(
            kind="episode-finished", episode=7, payload={"reward": 0.5, "worker": "w0"}
        )
        rebuilt = EngineEvent.from_dict(event.to_dict())
        assert rebuilt == event

    def test_from_dict_rejects_non_events(self):
        with pytest.raises(ValueError, match="not a serialized engine event"):
            EngineEvent.from_dict({"reward": 1.0})

    def test_terminal_kinds(self):
        assert EngineEvent(kind=RUN_FINISHED).is_terminal
        assert EngineEvent(kind=RUN_CANCELLED).is_terminal
        assert not EngineEvent(kind=EPISODE_FINISHED).is_terminal

    def test_event_log_replays_from_any_index(self):
        log = EventLog()
        events = [EngineEvent(kind="k", episode=i) for i in range(5)]
        for event in events:
            log.append(event)
        log.close()
        assert log.snapshot() == events
        assert list(log.iter(since=3)) == events[3:]
        assert list(log.iter(since=0, follow=True)) == events  # closed: drains

    def test_event_log_rejects_append_after_close(self):
        log = EventLog()
        log.close()
        with pytest.raises(ValueError, match="closed"):
            log.append(EngineEvent(kind="k"))

    def test_tail_telemetry_reads_jsonl_back_as_events(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        events = [
            EngineEvent(kind=RUN_STARTED, payload={"episodes": 2}),
            EngineEvent(kind=EPISODE_FINISHED, episode=0, payload={"reward": 0.25}),
            EngineEvent(kind=RUN_FINISHED, payload={"episodes": 2}),
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")  # corrupt lines are skipped
            for event in events:
                handle.write(json.dumps(event.to_dict()) + "\n")
        tailed = list(tail_telemetry(path))
        assert tailed == events
        assert list(tail_telemetry(path, since=2)) == events[2:]
        # follow mode stops at the terminal event instead of polling forever
        assert list(tail_telemetry(path, follow=True, timeout=5.0)) == events

    def test_tail_telemetry_follows_past_stale_terminal_of_resumed_run(
        self, tmp_path
    ):
        # A cancelled-then-resumed run appends a second segment after the
        # first segment's terminal event; only the *latest* terminal ends a
        # follow.
        path = str(tmp_path / "telemetry.jsonl")
        segments = [
            EngineEvent(kind=RUN_STARTED, payload={"episodes": 4}),
            EngineEvent(kind=RUN_CANCELLED, payload={"episodes_done": 1}),
            EngineEvent(kind=RUN_FINISHED, payload={"cancelled": True}),
            EngineEvent(kind=RUN_STARTED, payload={"start_episode": 1}),
            EngineEvent(kind=EPISODE_FINISHED, episode=1, payload={"reward": 0.5}),
            EngineEvent(kind=RUN_FINISHED, payload={"cancelled": False}),
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for event in segments:
                handle.write(json.dumps(event.to_dict()) + "\n")
        assert list(tail_telemetry(path, follow=True, timeout=5.0)) == segments


# -- satellite: EventBus subscriber isolation ----------------------------------------
class TestEventBusIsolation:
    def test_raising_consumer_does_not_propagate(self):
        bus = EventBus()
        seen = []

        def bad_consumer(event):
            raise RuntimeError("boom")

        bus.subscribe(bad_consumer)
        bus.subscribe(seen.append)
        for index in range(3):
            bus.emit(EngineEvent(kind="k", episode=index))  # must not raise
        kinds = [event.kind for event in seen]
        # Delivery continued, and the failure was announced exactly once.
        assert kinds.count("k") == 3
        assert kinds.count(CONSUMER_ERROR) == 1
        error_event = next(e for e in seen if e.kind == CONSUMER_ERROR)
        assert "RuntimeError: boom" in error_event.payload["error"]
        assert error_event.payload["failed_kind"] == "k"

    def test_consumer_failing_on_consumer_error_does_not_recurse(self):
        bus = EventBus()

        def always_raises(event):
            raise RuntimeError("always")

        bus.subscribe(always_raises)
        bus.emit(EngineEvent(kind="k"))  # one level of announcement, no loop

    def test_engine_run_survives_raising_subscriber(self, tmp_path):
        def bad_consumer(event):
            raise RuntimeError("subscriber bug")

        report = repro.run(_tiny_spec(), event_callback=bad_consumer)
        assert len(report.history) == 2  # the loop completed regardless


# -- the local executor lifecycle ----------------------------------------------------
@pytest.fixture()
def fresh_metrics():
    """A fresh process-global metrics registry for the test's duration."""
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield obs_metrics.get_registry()
    obs_metrics.set_registry(previous)


class TestLocalLifecycle:
    def test_submit_status_events_result_parity_with_direct_run(self, tmp_path):
        direct = repro.run(SMOKE_SPEC)
        client = RunClient.local(runs_root=str(tmp_path / "runs"))
        handle = client.submit(SMOKE_SPEC)
        report = handle.result(timeout=120)

        status = handle.status()
        assert status["state"] == "finished"
        assert status["episodes_done"] == len(report.history)
        assert status["spec_cache_key"] == direct.spec.cache_key()

        kinds = [event.kind for event in handle.events()]
        assert kinds[0] == RUN_STARTED
        assert kinds[-1] == RUN_FINISHED
        assert kinds.count(EPISODE_FINISHED) == len(report.history)

        assert _comparable(report.to_dict()) == _comparable(direct.to_dict())
        # The registry archived everything needed to re-launch the run.
        run_dir = status["run_dir"]
        for artifact in ("run_spec.json", "status.json", "telemetry.jsonl",
                         "report.json", "checkpoint.jsonl"):
            assert os.path.exists(os.path.join(run_dir, artifact)), artifact

    def test_repro_run_emits_every_event_on_the_callers_thread(self):
        seen = []
        report = repro.run(
            _tiny_spec(),
            event_callback=lambda event: seen.append(
                (event.kind, threading.get_ident())
            ),
        )
        kinds = [kind for kind, _ in seen]
        assert kinds[0] == RUN_STARTED
        assert kinds[-1] == RUN_FINISHED
        assert kinds.count(EPISODE_FINISHED) == len(report.history) == 2
        assert {ident for _, ident in seen} == {threading.get_ident()}

    def test_repro_run_leaves_nothing_holding_the_engine(self):
        report = repro.run(_tiny_spec())
        engine = weakref.ref(report.engine)
        del report
        gc.collect()
        assert engine() is None

    def test_repro_run_leaves_an_executors_gauges_alone(
        self, tmp_path, fresh_metrics
    ):
        gauges = (
            "repro_service_worker_slots",
            "repro_service_slots_busy",
            "repro_service_queue_depth",
            "repro_service_runs",
        )

        def read():
            snapshot = fresh_metrics.snapshot()
            return {
                name: snapshot.get(name, {"samples": []})["samples"]
                for name in gauges
            }

        executor = LocalExecutor(str(tmp_path / "runs"), max_workers=2)
        before = read()
        repro.run(_tiny_spec())
        assert read() == before
        assert before["repro_service_worker_slots"] == [
            {"labels": {}, "value": float(executor.max_workers)}
        ]

    def test_runs_root_is_required(self, tmp_path):
        with pytest.raises(TypeError):
            LocalExecutor()
        with pytest.raises(TypeError):
            RunClient.local()
        with pytest.raises(ValueError, match="positive"):
            LocalExecutor(str(tmp_path / "runs"), max_workers=0)

    def test_single_worker_slot_runs_fifo(self, tmp_path):
        client = RunClient.local(runs_root=str(tmp_path / "runs"), max_workers=1)
        first = client.submit(_tiny_spec(episodes=2))
        second = client.submit(_tiny_spec(episodes=2))
        # One slot: the second submission must wait for the first.
        assert second.status()["state"] == "queued"
        first_report = first.result(timeout=120)
        second_report = second.result(timeout=120)
        assert len(first_report.history) == 2
        assert len(second_report.history) == 2
        first_status, second_status = first.status(), second.status()
        assert second_status["started_at"] >= first_status["finished_at"]

    def test_cancel_while_queued_is_immediate_and_not_resumable(self, tmp_path):
        client = RunClient.local(runs_root=str(tmp_path / "runs"), max_workers=1)
        blocker = client.submit(_tiny_spec(episodes=2))
        queued = client.submit(_tiny_spec(episodes=2))
        status = queued.cancel()
        assert status["state"] == "cancelled"
        with pytest.raises(RunCancelled):
            queued.result(timeout=10)
        # Never started: there is no checkpoint, so resume refuses loudly.
        with pytest.raises(ValueError, match="no checkpoint"):
            client.resume(queued.run_id)
        blocker.result(timeout=120)  # the slot itself was unaffected

    def test_cancel_mid_run_then_resume_matches_uninterrupted_run(self, tmp_path):
        spec = _tiny_spec(episodes=8)
        baseline = repro.run(spec)

        client = RunClient.local(runs_root=str(tmp_path / "runs"))
        handle = client.submit(spec)
        for event in handle.events(follow=True):
            if event.kind == EPISODE_FINISHED:
                handle.cancel()  # honoured at the next wave boundary
                break
        with pytest.raises(RunCancelled):
            handle.result(timeout=120)

        status = handle.status()
        assert status["state"] == "cancelled"
        assert status["cancel_requested"] is True
        assert 0 < status["episodes_done"] < 8
        assert has_checkpoint(status["run_dir"])
        # The telemetry stream records the cancellation.
        tailed_kinds = [e.kind for e in handle.events()]
        assert RUN_CANCELLED in tailed_kinds

        resumed = client.resume(handle.run_id)
        report = resumed.result(timeout=120)
        assert resumed.status()["state"] == "finished"
        assert report.resumed_from == status["episodes_done"]
        assert len(report.history) == 8
        # Continuity is bit-for-bit: cancel+resume computes exactly what one
        # straight run computes (engine-instance counters aside).
        assert _comparable(report.to_dict(), include_stats=False) == _comparable(
            baseline.to_dict(), include_stats=False
        )

    def test_unknown_run_id_raises_run_not_found(self, tmp_path):
        client = RunClient.local(runs_root=str(tmp_path / "runs"))
        with pytest.raises(RunNotFound):
            client.handle("no-such-run")
        with pytest.raises(RunNotFound):
            client.executor.cancel("no-such-run")
        with pytest.raises(RunNotFound):
            list(client.executor.events("no-such-run"))

    def test_registry_rejects_injected_datasets(self, tmp_path, tiny_splits):
        client = RunClient.local(runs_root=str(tmp_path / "runs"))
        with pytest.raises(ValueError, match="fully described by their spec"):
            client.submit(
                _tiny_spec(),
                train_dataset=tiny_splits.train,
                validation_dataset=tiny_splits.validation,
            )

    def test_registry_rejects_submit_resume_option(self, tmp_path):
        client = RunClient.local(runs_root=str(tmp_path / "runs"))
        with pytest.raises(ValueError, match="resume by id"):
            client.submit(_tiny_spec(), resume=True)

    def test_recovery_requeues_queued_and_fails_stale_running(self, tmp_path):
        from repro.service.registry import RunRegistry

        runs_root = str(tmp_path / "runs")
        # Simulate a daemon that died: one run still queued (spec archived,
        # never started) and one marked running whose engine is gone.
        registry = RunRegistry(runs_root)
        queued = registry.create(_tiny_spec())
        stale = registry.create(_tiny_spec())
        registry.update_status(stale["run_id"], state="running")

        recovered = LocalExecutor(runs_root=runs_root, recover=True)
        assert registry.load_status(stale["run_id"])["state"] == "failed"
        assert "interrupted" in registry.load_status(stale["run_id"])["error"]
        # The queued run was adopted and executes to completion.
        report = recovered.result(queued["run_id"], timeout=120)
        assert len(report.history) == 2
        assert registry.load_status(queued["run_id"])["state"] == "finished"

    def test_recovery_is_off_by_default(self, tmp_path):
        runs_root = str(tmp_path / "runs")
        from repro.service.registry import RunRegistry

        registry = RunRegistry(runs_root)
        running = registry.create(_tiny_spec())
        registry.update_status(running["run_id"], state="running")
        # A side-car executor on a shared root must not hijack live runs.
        LocalExecutor(runs_root=runs_root)
        assert registry.load_status(running["run_id"])["state"] == "running"


# -- the HTTP daemon -----------------------------------------------------------------
@pytest.fixture()
def run_service(tmp_path):
    from repro.service.daemon import RunService

    service = RunService(str(tmp_path / "runs"), port=0).start()
    yield service
    service.shutdown()


class TestDaemon:
    def test_http_submit_events_report_parity(self, run_service):
        direct = repro.run(SMOKE_SPEC)
        client = RunClient.connect(run_service.url)
        handle = client.submit(SMOKE_SPEC)

        kinds = [event.kind for event in handle.events(follow=True)]
        assert kinds[0] == RUN_STARTED
        assert kinds[-1] == RUN_FINISHED

        report = handle.result(timeout=120)  # the to_dict payload over HTTP
        assert report["spec_cache_key"] == direct.spec.cache_key()
        assert _comparable(report) == _comparable(direct.to_dict())
        assert handle.status()["state"] == "finished"
        assert any(run["run_id"] == handle.run_id for run in client.list_runs())

    def test_keep_alive_exchanges_do_not_stall(self, run_service):
        # A response sent as two segments (headers, then body) waits ~40 ms
        # per exchange for the keep-alive client's delayed acknowledgement.
        key = run_service.store.put(b"stored object bytes")
        connection = http.client.HTTPConnection(
            run_service.host, run_service.port, timeout=10
        )
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.load(response)["ok"] is True
            assert time.perf_counter() - started < 0.4
            # A HEAD answer carries no body, or the next response on the
            # same connection would be read from the wrong offset.
            connection.request("HEAD", f"/store/{key}")
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == b""
            connection.request("GET", f"/store/{key}")
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == b"stored object bytes"
        finally:
            connection.close()

    def test_invalid_json_body_is_structured_400(self, run_service):
        request = urllib.request.Request(
            run_service.url + "/runs",
            data=b"{definitely not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert body["error"]["type"] == "invalid-json"

    def test_invalid_spec_is_structured_400(self, run_service):
        client = RunClient.connect(run_service.url)
        with pytest.raises(ValueError, match="unknown strategy"):
            client.submit({"strategy": "quantum-annealing"})

    def test_unknown_run_id_is_404(self, run_service):
        client = RunClient.connect(run_service.url)
        with pytest.raises(RunNotFound):
            client.handle("no-such-run")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(run_service.url + "/runs/no-such-run/report")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["type"] == "unknown-run"

    def test_unknown_endpoint_is_404(self, run_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(run_service.url + "/frobnicate")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["type"] == "unknown-endpoint"

    def test_service_rejects_in_process_options(self, run_service):
        client = RunClient.connect(run_service.url)
        with pytest.raises(ValueError, match="not serializable"):
            client.submit(_tiny_spec(), engine=EngineConfig())

    def test_events_cursor_on_a_finished_run(self, run_service):
        handle = RunClient.connect(run_service.url).submit(_tiny_spec())
        handle.result(timeout=120)

        def page(since):
            with urllib.request.urlopen(
                f"{run_service.url}/runs/{handle.run_id}/events?since={since}"
            ) as response:
                return json.load(response)

        total = page(0)["next"]
        tail = page(total - 2)
        assert len(tail["events"]) == 2
        assert tail["next"] == total and tail["done"] is True
        # A negative cursor is refused rather than answered with a `next`
        # that would send a follower back to the start of the stream.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            page(-2)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"]["type"] == "invalid-query"


# -- the daemon's wire contract: every route and its near-misses --------------------
_HEX = "ab" * 32  # a well-formed store key with no object behind it

_ROUTES = [
    # (method, path, body) -> (status, error.type); a dict body is sent as JSON.
    ("GET", "/healthz", None, 200, None),
    ("GET", "/metrics", None, 200, None),
    ("POST", "/runs", {"strategy": "quantum-annealing"}, 400, "invalid-spec"),
    ("GET", "/runs", None, 200, None),
    ("GET", "/runs/x", None, 404, "unknown-run"),
    ("GET", "/runs/x/report", None, 404, "unknown-run"),
    ("GET", "/runs/x/events?since=0", None, 404, "unknown-run"),
    ("GET", "/runs/x/events?since=two", None, 400, "invalid-query"),
    ("GET", "/runs/x/events?since=-2", None, 400, "invalid-query"),
    ("POST", "/runs/x/cancel", {}, 404, "unknown-run"),
    ("POST", "/runs/x/resume", {}, 404, "unknown-run"),
    ("GET", "/models", None, 200, None),
    ("POST", "/models/promote", {"run_id": "x"}, 404, "unknown-run"),
    ("POST", "/models/x/predict", {"inputs": [[0.0]]}, 404, "unknown-model"),
    ("GET", "/agents", None, 200, None),
    ("POST", "/agents/register", {"name": "route-probe"}, 201, None),
    (
        "POST",
        "/agents/heartbeat",
        {"agent_id": "ghost", "active_tasks": []},
        404,
        "unknown-agent",
    ),
    ("POST", "/agents/lease", {"agent_id": "ghost"}, 404, "unknown-agent"),
    (
        "POST",
        "/agents/complete",
        {"agent_id": "ghost", "task_id": "t", "result": ""},
        200,
        None,
    ),
    ("GET", f"/store/{_HEX}", None, 404, "unknown-object"),
    ("PUT", f"/store/{_HEX}", b"not those bytes", 400, "invalid-store-request"),
    ("HEAD", f"/store/{_HEX}", None, 404, None),
    ("POST", "/store/has", {"keys": [_HEX]}, 200, None),
    ("GET", f"/store/refs/{_HEX}", None, 404, "unknown-ref"),
    ("PUT", f"/store/refs/{_HEX}", {"key": _HEX}, 200, None),
    ("GET", "/store/stats", None, 200, None),
    # near-misses
    ("GET", "/runs/", None, 200, None),
    ("GET", "//runs", None, 200, None),
    ("GET", "/runs/gh%2Fost", None, 404, "unknown-run"),
    ("GET", "/runs/x/report/extra", None, 404, "unknown-endpoint"),
    ("GET", "/runs/x/cancel", None, 404, "unknown-endpoint"),
    ("POST", "/runs/x", {}, 404, "unknown-endpoint"),
    ("GET", "/models/x", None, 404, "unknown-endpoint"),
    ("POST", "/agents/frob", {}, 404, "unknown-endpoint"),
    ("HEAD", "/healthz", None, 404, None),
    ("PUT", "/store/stats", b"x", 400, "invalid-store-key"),
    ("GET", "/store/has", None, 400, "invalid-store-key"),
    ("GET", "/store/refs", None, 400, "invalid-store-key"),
    ("POST", f"/store/refs/{_HEX}", {"key": _HEX}, 404, "unknown-endpoint"),
]


@pytest.fixture(scope="class")
def idle_service(tmp_path_factory):
    from repro.service.daemon import RunService

    root = tmp_path_factory.mktemp("routes")
    service = RunService(
        str(root / "runs"), port=0, zoo_root=str(root / "zoo")
    ).start()
    yield service
    service.shutdown()


class TestDaemonRoutes:
    @pytest.mark.parametrize(
        "method,path,body,status,kind",
        _ROUTES,
        ids=[f"{method} {path}" for method, path, *_rest in _ROUTES],
    )
    def test_route(self, idle_service, method, path, body, status, kind):
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        connection = http.client.HTTPConnection(
            idle_service.host, idle_service.port, timeout=10
        )
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        assert response.status == status
        if method == "HEAD":
            assert raw == b""
        if kind is not None:
            assert json.loads(raw)["error"]["type"] == kind

    def test_unrouted_body_does_not_desynchronise_keep_alive(self, idle_service):
        connection = http.client.HTTPConnection(
            idle_service.host, idle_service.port, timeout=10
        )
        try:
            connection.request(
                "POST",
                "/agents/frob",
                body=json.dumps({"agent_id": "ghost"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # The unread body must not be parsed as the next request line.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.load(response)["ok"] is True
        finally:
            connection.close()


# -- satellite: the regularized-evolution strategy -----------------------------------
class TestRegularizedEvolution:
    def test_registered_with_description(self):
        from repro.api import get_strategy

        info = get_strategy("regularized_evolution")
        assert "evolution" in info.description

    def test_population_ages_out_oldest(self):
        from repro.api.strategies import _EvolutionPopulation

        population = _EvolutionPopulation(capacity=3, tournament_size=2)
        for index in range(5):
            population.record([[index]], reward=float(index))
        assert len(population.members) == 3
        assert [m[1] for m in population.members] == [2.0, 3.0, 4.0]

    def test_tournament_returns_copy_of_best_drawn(self, rng):
        from repro.api.strategies import _EvolutionPopulation

        population = _EvolutionPopulation(capacity=4, tournament_size=4)
        for index in range(4):
            population.record([[index, index]], reward=float(index))
        parent = population.tournament_parent(rng)
        assert parent == [[3, 3]]  # tournament covers the whole population
        parent[0][0] = 99  # mutating the child must not reach the population
        assert population.members[-1][0] == [[3, 3]]

    def test_runs_through_facade_and_is_deterministic(self):
        spec = _tiny_spec(strategy="regularized_evolution", episodes=6)
        first = repro.run(spec)
        second = repro.run(spec)
        assert len(first.history) == 6
        assert _comparable(first.to_dict()) == _comparable(second.to_dict())
        # After the uniform warm-up, children are mutations: the sampled
        # descriptors stay within the space and rewards are all scored.
        assert all(record.reward is not None for record in first.history.records)


# -- satellite: offline tail ---------------------------------------------------------
class TestOfflineTail:
    def test_tail_cli_works_on_any_run_dir(self, tmp_path, capsys):
        run_dir = str(tmp_path / "plain-run")
        repro.run(_tiny_spec(), engine=EngineConfig(run_dir=run_dir))
        assert cli_main(["tail", run_dir]) == 0
        output = capsys.readouterr().out
        assert "run started: 2 episodes" in output
        assert "[ep    0]" in output and "best=" in output
        assert "run finished: 2 episodes recorded" in output

    def test_tail_cli_resolves_run_ids_against_runs_root(self, tmp_path, capsys):
        runs_root = str(tmp_path / "runs")
        client = RunClient.local(runs_root=runs_root)
        handle = client.submit(_tiny_spec())
        handle.result(timeout=120)
        code = cli_main(["tail", handle.run_id, "--runs-root", runs_root])
        assert code == 0
        assert "run finished" in capsys.readouterr().out

    def test_tail_cli_errors_cleanly_without_telemetry(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["tail", str(empty)]) == 2
        assert "no telemetry stream" in capsys.readouterr().err
