"""Tests for the serving layer: zoo promotion, micro-batching, daemon endpoints.

The promotion contract under test is the strong one from the module docs:
promoting the same finished run twice writes **byte-identical** zoo entries,
and a served prediction bitwise-matches a direct ``Trainer.predict`` on the
promoted model -- the micro-batcher changes throughput, never results.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import DatasetSpec, DesignSpecConfig, RunSpec, SearchParams
from repro.api.cli import main as cli_main
from repro.nn.layers.conv import Conv2d, DepthwiseConv2d
from repro.nn.trainer import Trainer, TrainingConfig
from repro.obs import metrics as obs_metrics
from repro.service import RunClient
from repro.service.errors import RunNotFound, RunNotReady
from repro.service.remote import ServiceExecutor
from repro.serving import MicroBatcher, ModelNotFound, ModelServer, QueueFull
from repro.serving.registry import ZooRegistry, latency_class


def _tiny_spec(episodes: int = 2) -> RunSpec:
    """The service suite's sub-second spec (10x10 images, 2 episodes)."""
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
        ),
    )


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One finished tiny run, shared by every promotion in this module."""
    runs_root = str(tmp_path_factory.mktemp("serving-runs"))
    client = RunClient.local(runs_root=runs_root, max_workers=1)
    handle = client.submit(_tiny_spec())
    handle.result(timeout=120)
    return runs_root, handle.run_id


@pytest.fixture(scope="module")
def promoted(finished_run, tmp_path_factory):
    """The shared run promoted once, as (zoo, entry)."""
    runs_root, run_id = finished_run
    zoo = ZooRegistry(str(tmp_path_factory.mktemp("zoo")))
    entry = zoo.promote_run(runs_root, run_id, name="tiny")
    return zoo, entry


def _tree_digests(root: str) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    digests = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
    return digests


# -- promotion: the model zoo --------------------------------------------------------
class TestPromotion:
    def test_promote_twice_is_byte_identical(self, finished_run, tmp_path):
        runs_root, run_id = finished_run
        first = ZooRegistry(str(tmp_path / "zoo-a"))
        second = ZooRegistry(str(tmp_path / "zoo-b"))
        entry_a = first.promote_run(runs_root, run_id, name="twin")
        entry_b = second.promote_run(runs_root, run_id, name="twin")
        assert entry_a.version == entry_b.version
        digests_a = _tree_digests(first.root)
        assert digests_a == _tree_digests(second.root)
        assert digests_a  # the walk found the manifests and the blob

    def test_repromotion_dedupes_the_weights_blob(self, promoted, finished_run):
        zoo, entry = promoted
        runs_root, run_id = finished_run
        again = zoo.promote_run(runs_root, run_id, name="tiny")
        assert again.version == entry.version
        # The blobs dir is a content-addressed store: one object, no dup.
        assert zoo.store.keys() == [entry.manifest["weights_object"]]
        assert zoo.store.counters["put_dup"] >= 1

    def test_manifest_records_lineage_and_serving_shape(self, promoted):
        zoo, entry = promoted
        manifest = entry.manifest
        assert manifest["input_shape"] == [3, 10, 10]
        assert manifest["latency_class"] == latency_class(
            manifest["reference_latency_ms"]
        )
        assert manifest["version"].startswith("v")
        # weights_blob names the store object, relative to the zoo root.
        key = manifest["weights_object"]
        assert manifest["weights_blob"] == os.path.join(
            "_blobs", "objects", key[:2], key[2:]
        )
        assert os.path.isfile(os.path.join(zoo.root, manifest["weights_blob"]))

    def test_legacy_flat_blob_manifest_still_loads(self, promoted):
        zoo, entry = promoted
        # Rewrite the manifest to the pre-store form: flat blob path, no
        # weights_object -- and move the archive to the legacy location.
        key = entry.manifest["weights_object"]
        legacy_blob = zoo.blob_path(entry.manifest["weights_hash"])
        os.makedirs(os.path.dirname(legacy_blob), exist_ok=True)
        data = zoo.store.get(key)
        with open(legacy_blob, "wb") as handle:
            handle.write(data)
        zoo.store.delete(key)
        manifest_path = os.path.join(entry.path, "MANIFEST.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        del manifest["weights_object"]
        manifest["weights_blob"] = os.path.join(
            "_blobs", f"{manifest['weights_hash']}.npz"
        )
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        model, _descriptor, loaded = zoo.load_model(entry.name)
        assert loaded.version == entry.version
        assert model.num_parameters() > 0

    def test_episode_pin_selects_that_record(self, finished_run, tmp_path):
        from repro.service.registry import RunRegistry

        runs_root, run_id = finished_run
        report = RunRegistry(runs_root).load_report(run_id)
        first_episode = report["history"]["records"][0]["episode"]
        zoo = ZooRegistry(str(tmp_path / "zoo"))
        entry = zoo.promote_run(
            runs_root, run_id, name="pinned", episode=first_episode
        )
        assert entry.manifest["episode"] == first_episode
        with pytest.raises(ValueError, match="no episode 99"):
            zoo.promote_run(runs_root, run_id, name="pinned", episode=99)

    def test_unfinished_run_is_not_ready(self, tmp_path):
        from repro.service.registry import RunRegistry

        registry = RunRegistry(str(tmp_path / "runs"))
        created = registry.create(_tiny_spec())
        zoo = ZooRegistry(str(tmp_path / "zoo"))
        with pytest.raises(RunNotReady):
            zoo.promote_run(registry, created["run_id"])

    def test_unknown_run_raises_run_not_found(self, tmp_path):
        zoo = ZooRegistry(str(tmp_path / "zoo"))
        with pytest.raises(RunNotFound):
            zoo.promote_run(str(tmp_path / "runs"), "no-such-run")

    def test_reserved_name_is_rejected(self, finished_run, tmp_path):
        runs_root, run_id = finished_run
        zoo = ZooRegistry(str(tmp_path / "zoo"))
        with pytest.raises(ValueError, match="reserved"):
            zoo.promote_run(runs_root, run_id, name="promote")


class TestZooRegistry:
    def test_get_follows_the_latest_pointer(self, promoted):
        zoo, entry = promoted
        assert zoo.get("tiny").version == entry.version
        assert zoo.get("tiny", entry.version).path == entry.path

    def test_unknown_model_raises_model_not_found(self, promoted):
        zoo, entry = promoted
        with pytest.raises(ModelNotFound, match="no-such-model"):
            zoo.get("no-such-model")
        with pytest.raises(ModelNotFound, match="vdeadbeef"):
            zoo.get("tiny", "vdeadbeef")

    def test_list_entries_and_summary_rows(self, promoted):
        zoo, entry = promoted
        entries = zoo.list_entries()
        assert [(e.name, e.version) for e in entries] == [("tiny", entry.version)]
        assert "tiny" in entries[0].summary_row
        assert entry.manifest["latency_class"] in entries[0].summary_row

    def test_load_model_is_deterministic(self, promoted):
        zoo, _entry = promoted
        model_a, descriptor, _ = zoo.load_model("tiny")
        model_b, _, _ = zoo.load_model("tiny")
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(4, 3, 10, 10))
        trainer = Trainer(TrainingConfig(batch_size=4))
        assert np.array_equal(
            trainer.predict(model_a, batch), trainer.predict(model_b, batch)
        )
        assert descriptor.cache_key() == _entry.manifest["descriptor_cache_key"]

    def test_concurrent_latest_pointer_writes(self, tmp_path):
        zoo = ZooRegistry(str(tmp_path / "zoo"))
        os.makedirs(os.path.join(zoo.root, "tiny"))
        versions = [f"v-{index}" for index in range(4)]  # more writers than cores
        errors = []

        def promote_many(version):
            try:
                for _ in range(100):
                    zoo.set_latest("tiny", version)
            except Exception as error:  # collected: a thread cannot fail the test
                errors.append(error)

        threads = [
            threading.Thread(target=promote_many, args=(version,))
            for version in versions
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert os.listdir(os.path.join(zoo.root, "tiny")) == ["latest"]
        with open(os.path.join(zoo.root, "tiny", "latest"), encoding="utf-8") as handle:
            assert handle.read().strip() in versions


# -- the micro-batcher ---------------------------------------------------------------
def _echo_first_column(batch: np.ndarray) -> np.ndarray:
    """Identify each row by its first element -- exposes any misalignment."""
    return np.asarray(batch).reshape(batch.shape[0], -1)[:, 0].copy()


class TestMicroBatcher:
    def test_deadline_flushes_a_partial_batch(self):
        sizes = []
        batcher = MicroBatcher(
            lambda b: (sizes.append(b.shape[0]), _echo_first_column(b))[1],
            max_batch_size=64,
            max_delay_ms=5.0,
            max_queue=128,
        )
        try:
            start = time.monotonic()
            result = batcher.predict(np.full((1, 4), 42.0))
            elapsed = time.monotonic() - start
            assert result.tolist() == [42.0]
            assert sizes == [1]  # the deadline fired well below max_batch_size
            assert elapsed < 2.0
            assert batcher.stats()["batches_total"] == 1
        finally:
            batcher.close()

    def test_full_batch_flushes_before_the_deadline(self):
        sizes = []
        batcher = MicroBatcher(
            lambda b: (sizes.append(b.shape[0]), _echo_first_column(b))[1],
            max_batch_size=8,
            max_delay_ms=10_000.0,  # the deadline alone would take 10s
            max_queue=64,
        )
        try:
            start = time.monotonic()
            threads = [
                threading.Thread(
                    target=batcher.predict, args=(np.full((2, 4), float(i)),)
                )
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert time.monotonic() - start < 5.0  # max_batch_size fired early
            assert sum(sizes) == 8
            stats = batcher.stats()
            assert stats["requests_total"] == 4
            assert stats["largest_batch"] == 8
        finally:
            batcher.close()

    def test_window_opens_when_the_batch_in_flight_finishes(self):
        """A request queued behind a running batch is not flushed alone the
        moment that batch ends: its window opens then, so a request arriving
        shortly after joins it (a closed loop of clients stays one batch)."""
        sizes = []
        release = threading.Event()
        in_flight = threading.Event()

        def held_first_batch(batch):
            sizes.append(batch.shape[0])
            if len(sizes) == 1:
                in_flight.set()
                release.wait(timeout=30)
            return _echo_first_column(batch)

        batcher = MicroBatcher(
            held_first_batch, max_batch_size=64, max_delay_ms=300.0, max_queue=128
        )
        results = {}

        def submit(marker: float) -> None:
            results[marker] = batcher.predict(np.full((1, 4), marker)).tolist()

        threads = [threading.Thread(target=submit, args=(float(i),)) for i in range(3)]
        try:
            threads[0].start()
            assert in_flight.wait(timeout=10)
            threads[1].start()  # queued behind the running batch
            deadline = time.monotonic() + 10
            while batcher.stats()["queued_rows"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.45)  # past its own arrival + max_delay_ms
            release.set()
            time.sleep(0.05)  # inside the window the finished batch opened
            threads[2].start()
            for thread in threads:
                thread.join(timeout=30)
            assert sizes == [1, 2]
            assert results == {0.0: [0.0], 1.0: [1.0], 2.0: [2.0]}
        finally:
            release.set()
            batcher.close()

    def test_bounded_queue_raises_queue_full(self):
        release = threading.Event()
        in_flight = threading.Event()

        def blocked_predict(batch):
            in_flight.set()
            release.wait(timeout=30)
            return _echo_first_column(batch)

        batcher = MicroBatcher(
            blocked_predict, max_batch_size=4, max_delay_ms=0.0, max_queue=4
        )
        threads = [
            threading.Thread(target=batcher.predict, args=(np.zeros((4, 2)),))
            for _ in range(2)
        ]
        try:
            threads[0].start()
            assert in_flight.wait(timeout=10)  # first request occupies the model
            threads[1].start()
            deadline = time.monotonic() + 10
            while batcher.stats()["queued_rows"] < 4:  # second fills the queue
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(QueueFull, match="full"):
                batcher.predict(np.zeros((1, 2)))
            assert batcher.stats()["rejected_total"] == 1
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
            batcher.close()

    def test_hammered_results_stay_row_aligned(self):
        batcher = MicroBatcher(
            _echo_first_column, max_batch_size=8, max_delay_ms=2.0, max_queue=256
        )
        results: dict = {}

        def submit(index: int) -> None:
            rows = 1 + index % 3
            marker = float(index)
            results[index] = batcher.predict(np.full((rows, 4), marker))

        try:
            threads = [
                threading.Thread(target=submit, args=(index,)) for index in range(24)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for index in range(24):
                rows = 1 + index % 3
                assert results[index].tolist() == [float(index)] * rows
            stats = batcher.stats()
            assert stats["requests_total"] == 24
            assert stats["batches_total"] < 24  # coalescing actually happened
        finally:
            batcher.close()

    def test_shape_validation_rejects_bad_requests_alone(self):
        batcher = MicroBatcher(
            _echo_first_column,
            max_batch_size=4,
            max_delay_ms=1.0,
            input_shape=(3, 10, 10),
        )
        try:
            with pytest.raises(ValueError, match="model expects"):
                batcher.predict(np.zeros((1, 4)))
            with pytest.raises(ValueError, match="batch of shape"):
                batcher.predict(np.zeros(10))
            assert batcher.predict(np.zeros((0, 3, 10, 10))).shape == (0,)
        finally:
            batcher.close()

    def test_predict_fn_failure_reaches_every_caller(self):
        def exploding(batch):
            raise RuntimeError("model on fire")

        batcher = MicroBatcher(exploding, max_batch_size=4, max_delay_ms=1.0)
        try:
            with pytest.raises(RuntimeError, match="model on fire"):
                batcher.predict(np.zeros((2, 2)))
        finally:
            batcher.close()

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher(_echo_first_column, max_batch_size=4)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.predict(np.zeros((1, 2)))

    def test_queue_smaller_than_batch_is_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(_echo_first_column, max_batch_size=8, max_queue=4)


# -- served predictions --------------------------------------------------------------
class TestServingParity:
    def test_served_matches_direct_trainer_predict(self, promoted):
        zoo, entry = promoted
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(12, 3, 10, 10))

        server = ModelServer(zoo.root, max_batch_size=32, max_delay_ms=2.0)
        try:
            served = server.predict("tiny", inputs)
        finally:
            server.close()

        model, _descriptor, _ = zoo.load_model("tiny")
        model.astype("float32")  # the server's serving dtype
        direct = Trainer(
            TrainingConfig(batch_size=32, inference_batch_size=32)
        ).predict(model, inputs, batch_size=inputs.shape[0])
        assert np.array_equal(served, direct)

    def test_served_model_is_loaded_in_eval_mode(self, promoted):
        # Loaded once in eval mode, so Trainer.predict has no mode to toggle
        # (two walks of the module tree) on every served batch.
        zoo, _entry = promoted
        server = ModelServer(zoo.root, max_batch_size=8, max_delay_ms=1.0)
        try:
            server.predict("tiny", np.zeros((2, 3, 10, 10)))
            model = server._get_served("tiny").model
        finally:
            server.close()
        assert model.training is False
        assert not any(module.training for module in model.modules())

    def test_instrumentation_toggle_leaves_predictions_bit_identical(self, promoted):
        zoo, _entry = promoted
        rng = np.random.default_rng(13)
        inputs = rng.normal(size=(6, 3, 10, 10))
        outputs = {}
        for enabled in (False, True):
            previous = obs_metrics.set_enabled(enabled)
            server = ModelServer(zoo.root, max_batch_size=8, max_delay_ms=1.0)
            try:
                outputs[enabled] = server.predict("tiny", inputs)
            finally:
                server.close()
                obs_metrics.set_enabled(previous)
        assert np.array_equal(outputs[False], outputs[True])

    def test_serving_metrics_observe_requests_and_batches(self, promoted):
        zoo, _entry = promoted
        registry = obs_metrics.MetricsRegistry()
        previous_registry = obs_metrics.set_registry(registry)
        previous_enabled = obs_metrics.set_enabled(True)
        server = ModelServer(zoo.root, max_batch_size=8, max_delay_ms=1.0)
        try:
            server.predict("tiny", np.zeros((2, 3, 10, 10)))
            rendered = registry.render_prometheus()
        finally:
            server.close()
            obs_metrics.set_enabled(previous_enabled)
            obs_metrics.set_registry(previous_registry)
        assert 'repro_serving_requests_total{model="tiny"} 1' in rendered
        assert 'repro_serving_batches_total{model="tiny"} 1' in rendered

    def test_unknown_model_raises_model_not_found(self, promoted):
        zoo, _entry = promoted
        server = ModelServer(zoo.root)
        try:
            with pytest.raises(ModelNotFound):
                server.predict("nope", np.zeros((1, 3, 10, 10)))
        finally:
            server.close()


# -- satellite: inference workspaces survive across batches --------------------------
class TestInferenceWorkspaceReuse:
    def test_same_shape_batches_reuse_conv_workspaces(self, promoted):
        zoo, _entry = promoted
        model, _descriptor, _ = zoo.load_model("tiny")
        trainer = Trainer(TrainingConfig(batch_size=8, inference_batch_size=8))
        batch = np.random.default_rng(3).normal(size=(8, 3, 10, 10))

        trainer.predict(model, batch)  # allocates the inference workspaces
        # Pointwise (1x1) convolutions unfold via an identity reshape and
        # never stage patches; only the spatial kernels own workspaces.
        convs = [
            module
            for module in model.modules()
            if isinstance(module, (Conv2d, DepthwiseConv2d))
            and module._inference_workspace is not None
        ]
        assert convs
        workspaces = [id(conv._inference_workspace) for conv in convs]

        tracemalloc.start()
        before, _peak = tracemalloc.get_traced_memory()
        for _ in range(3):
            trainer.predict(model, batch)
        after, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # Identity: repeated same-shape inference touches the same buffers.
        assert [id(conv._inference_workspace) for conv in convs] == workspaces
        # Allocation: steady-state growth stays far below one workspace's
        # footprint (the patch matrices are the dominant inference buffers).
        workspace_bytes = sum(conv._inference_workspace.nbytes for conv in convs)
        assert after - before < max(workspace_bytes // 2, 64 * 1024)

    def test_shape_change_reallocates_then_resettles(self, promoted):
        zoo, _entry = promoted
        model, _descriptor, _ = zoo.load_model("tiny")
        trainer = Trainer(TrainingConfig(batch_size=8, inference_batch_size=8))
        rng = np.random.default_rng(4)
        trainer.predict(model, rng.normal(size=(8, 3, 10, 10)))
        convs = [
            module
            for module in model.modules()
            if isinstance(module, (Conv2d, DepthwiseConv2d))
            and module._inference_workspace is not None
        ]
        assert convs
        first = [id(conv._inference_workspace) for conv in convs]
        trainer.predict(model, rng.normal(size=(4, 3, 10, 10)))  # smaller batch
        second = [id(conv._inference_workspace) for conv in convs]
        assert first != second
        trainer.predict(model, rng.normal(size=(4, 3, 10, 10)))
        assert [id(conv._inference_workspace) for conv in convs] == second


# -- the daemon's serving endpoints --------------------------------------------------
def _post_json(url: str, payload: dict, timeout: float = 120.0) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _raw_http(host: str, port: int, data: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, return whatever the server answers until it closes."""
    chunks = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
    return b"".join(chunks)


@pytest.fixture(scope="module")
def serving_daemon(finished_run, promoted, tmp_path_factory):
    from repro.service.daemon import RunService

    runs_root, run_id = finished_run
    zoo, _entry = promoted
    service = RunService(
        runs_root,
        port=0,
        zoo_root=zoo.root,
        max_batch_size=8,
        flush_ms=2.0,
        request_timeout=2.0,
    ).start()
    yield service, run_id
    service.shutdown()


class TestDaemonServing:
    def test_get_models_lists_the_zoo(self, serving_daemon):
        service, _run_id = serving_daemon
        with urllib.request.urlopen(service.url + "/models", timeout=30) as response:
            models = json.load(response)["models"]
        assert any(model["name"] == "tiny" for model in models)

    def test_promote_endpoint_creates_an_entry(self, serving_daemon):
        service, run_id = serving_daemon
        body = _post_json(
            service.url + "/models/promote",
            {"run_id": run_id, "name": "tiny-http"},
        )
        assert body["model"]["name"] == "tiny-http"
        assert body["model"]["source_run_id"] == run_id
        with urllib.request.urlopen(service.url + "/models", timeout=30) as response:
            names = {model["name"] for model in json.load(response)["models"]}
        assert "tiny-http" in names

    def test_predict_endpoint_matches_in_process_serving(
        self, serving_daemon, promoted
    ):
        service, _run_id = serving_daemon
        zoo, _entry = promoted
        inputs = np.random.default_rng(5).normal(size=(3, 3, 10, 10))
        body = _post_json(
            service.url + "/models/tiny/predict", {"inputs": inputs.tolist()}
        )
        server = ModelServer(zoo.root, max_batch_size=8, max_delay_ms=2.0)
        try:
            expected = server.predict("tiny", inputs)
        finally:
            server.close()
        assert body["count"] == 3
        assert body["predictions"] == [int(value) for value in expected]
        served = ServiceExecutor(service.url).predict("tiny", inputs)
        assert served == [int(value) for value in expected]

    def test_unknown_model_is_structured_404(self, serving_daemon):
        service, _run_id = serving_daemon
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(service.url + "/models/ghost/predict", {"inputs": [[0.0]]})
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["type"] == "unknown-model"

    def test_promote_of_unready_run_is_409(self, serving_daemon):
        service, _run_id = serving_daemon
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(service.url + "/models/promote", {"run_id": "no-such-run"})
        assert excinfo.value.code == 404

    def test_backpressure_surfaces_as_429(self, serving_daemon, monkeypatch):
        service, _run_id = serving_daemon

        def full(name, inputs):
            raise QueueFull(name, 8, 8)

        monkeypatch.setattr(service.model_server, "predict", full)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(service.url + "/models/tiny/predict", {"inputs": [[0.0]]})
        assert excinfo.value.code == 429
        assert json.load(excinfo.value)["error"]["type"] == "backpressure"

    def test_missing_content_length_is_411(self, serving_daemon):
        service, _run_id = serving_daemon
        response = _raw_http(
            service.host,
            service.port,
            b"POST /runs HTTP/1.1\r\nHost: test\r\n\r\n",
        )
        assert b"411" in response.split(b"\r\n", 1)[0]
        assert b"length-required" in response

    def test_oversized_body_is_rejected_at_the_headers(self, serving_daemon):
        service, _run_id = serving_daemon
        declared = service.server.max_body_bytes + 1
        # No body bytes follow the headers: a 413 here proves the server
        # answered from Content-Length alone instead of draining the wire.
        response = _raw_http(
            service.host,
            service.port,
            (
                f"POST /runs HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {declared}\r\n\r\n"
            ).encode("ascii"),
        )
        assert b"413" in response.split(b"\r\n", 1)[0]
        assert b"payload-too-large" in response

    def test_stalled_body_times_out_with_408(self, serving_daemon):
        service, _run_id = serving_daemon
        response = _raw_http(
            service.host,
            service.port,
            b"POST /runs HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{\"par",  # stall mid-body
            timeout=30.0,
        )
        assert b"408" in response.split(b"\r\n", 1)[0]
        assert b"request-timeout" in response

    def test_version_less_request_line_gets_status_and_headers(self, serving_daemon):
        # The daemon writes each response through the stdlib's header buffer,
        # which an HTTP/0.9 request line (no version) would never start.
        service, _run_id = serving_daemon
        response = _raw_http(service.host, service.port, b"GET /healthz\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0].startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert json.loads(body)["ok"] is True


# -- the CLI surface -----------------------------------------------------------------
class TestServingCli:
    def test_promote_then_list_shows_zoo_entries(
        self, finished_run, tmp_path, capsys
    ):
        runs_root, run_id = finished_run
        zoo_root = str(tmp_path / "zoo")
        assert (
            cli_main(
                [
                    "promote",
                    run_id,
                    "--runs-root",
                    runs_root,
                    "--zoo-root",
                    zoo_root,
                    "--name",
                    "cli-model",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "promoted" in out and "cli-model:" in out

        assert (
            cli_main(
                ["list", "--runs-root", runs_root, "--zoo-root", zoo_root]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zoo (1 deployable model" in out
        assert "cli-model:" in out

    def test_promote_unknown_run_exits_nonzero(self, tmp_path, capsys):
        rc = cli_main(
            [
                "promote",
                "missing-run",
                "--runs-root",
                str(tmp_path / "runs"),
                "--zoo-root",
                str(tmp_path / "zoo"),
            ]
        )
        assert rc != 0
        assert "missing-run" in capsys.readouterr().err
