"""Benchmark: the content-addressed artifact store and the shared cache tier.

Two measurements:

* **per-op latency** -- PUT/GET round trips over 4 KiB payloads against a
  :class:`~repro.store.core.LocalStore` (filesystem) and a
  :class:`~repro.store.remote.RemoteStore` talking to a live
  ``RunService`` daemon over HTTP.  Reported as mean milliseconds per
  operation, the unit a capacity plan needs.
* **cold vs warm search** -- one ``bench``-scale search run twice against
  the same daemon's shared evaluation-cache tier (``store_url``).  The cold
  run trains every child and publishes its results; the warm run is a fresh
  engine (empty local caches) that must serve every episode from the tier
  without training anything.  Asserts the headline guarantee: warm wall
  time at least 2x faster than cold, zero evaluations run, and the same
  rewards.

Results go to ``BENCH_store.json`` (override with ``BENCH_STORE_JSON``);
``BENCH_STORE_QUICK=1`` shrinks the op counts for CI.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from conftest import run_once

import repro
from repro.engine import EngineConfig
from repro.experiments.common import prepare_data, search_spec
from repro.service.daemon import RunService
from repro.store import LocalStore, RemoteStore

QUICK = os.environ.get("BENCH_STORE_QUICK", "") not in ("", "0")
OBJECT_OPS = 64 if QUICK else 256
OBJECT_BYTES = 4096
# Both searches pay the same set-up (backbone pre-training and the freezing
# analysis); enough episodes make the training that a warm run skips
# dominate the cold run, so the 2x bound below measures the tier, not noise.
EPISODES = 8


def _payloads(count):
    # Distinct deterministic payloads: os.urandom would make keys (and any
    # dedupe accidents) run-dependent.
    return [
        (f"object-{index:06d}-".encode("ascii") * (OBJECT_BYTES // 14 + 1))[
            :OBJECT_BYTES
        ]
        for index in range(count)
    ]


def _timed_ops(store, payloads):
    start = time.perf_counter()
    keys = [store.put(data) for data in payloads]
    put_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for key in keys:
        assert store.get(key) is not None
    get_seconds = time.perf_counter() - start
    return {
        "ops": len(payloads),
        "object_bytes": OBJECT_BYTES,
        "put_ms_per_op": put_seconds / len(payloads) * 1e3,
        "get_ms_per_op": get_seconds / len(payloads) * 1e3,
    }


def _scenario_op_latency(service, root):
    local = _timed_ops(LocalStore(os.path.join(root, "local-bench")), _payloads(OBJECT_OPS))
    remote = _timed_ops(RemoteStore(service.url), _payloads(OBJECT_OPS))
    return {"local": local, "remote": remote}


def _timed_search(spec, splits, url):
    start = time.perf_counter()
    report = repro.run(
        spec,
        engine=EngineConfig(use_cache=True, store_url=url),
        train_dataset=splits.train,
        validation_dataset=splits.validation,
    )
    return report, time.perf_counter() - start


def _scenario_cold_vs_warm(service, preset):
    splits = prepare_data(preset, seed=0).splits
    spec = search_spec(
        preset, "fahana", episodes=EPISODES, seed=0, timing_constraint_ms=1e6
    )
    cold_report, cold_seconds = _timed_search(spec, splits, service.url)
    assert cold_report.evaluations_run > 0, "the cold run trained nothing"
    warm_report, warm_seconds = _timed_search(spec, splits, service.url)
    assert warm_report.evaluations_run == 0, (
        "the warm run re-trained despite the shared tier"
    )
    assert (
        warm_report.history.reward_trajectory()
        == cold_report.history.reward_trajectory()
    ), "remote-hit rewards differ from the locally computed ones"
    assert warm_seconds * 2 <= cold_seconds, (
        f"warm run ({warm_seconds:.2f}s) is not >=2x faster than cold "
        f"({cold_seconds:.2f}s)"
    )
    return {
        "episodes": EPISODES,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_evaluations": cold_report.evaluations_run,
        "warm_evaluations": warm_report.evaluations_run,
        "store_stats": service.store.stats(),
    }


def test_bench_store(benchmark, bench_preset):
    def harness():
        with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
            service = RunService(os.path.join(root, "runs"), port=0).start()
            try:
                return {
                    "op_latency": _scenario_op_latency(service, root),
                    "shared_tier": _scenario_cold_vs_warm(service, bench_preset),
                }
            finally:
                service.shutdown()

    scenarios = run_once(benchmark, harness)

    payload = {"quick": QUICK, "scenarios": scenarios}
    output_path = os.environ.get("BENCH_STORE_JSON", "BENCH_store.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    ops = scenarios["op_latency"]
    tier = scenarios["shared_tier"]
    print(
        f"\nstore bench: local put/get "
        f"{ops['local']['put_ms_per_op']:.3f}/{ops['local']['get_ms_per_op']:.3f} "
        f"ms/op, remote put/get "
        f"{ops['remote']['put_ms_per_op']:.3f}/{ops['remote']['get_ms_per_op']:.3f} "
        f"ms/op ({OBJECT_OPS} x {OBJECT_BYTES} B); shared tier cold "
        f"{tier['cold_seconds']:.2f}s -> warm {tier['warm_seconds']:.2f}s "
        f"({tier['speedup']:.1f}x); results in {output_path}"
    )
