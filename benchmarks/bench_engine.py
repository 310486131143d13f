"""Benchmark: the search engine versus the sequential seed loop.

Runs one declarative :class:`~repro.api.spec.RunSpec` (at the ``bench``
scale) through ``repro.run`` under different engine configurations:

* the sequential reference loop (serial backend, cache off) -- the seed
  repository's original execution model,
* the thread backend evaluating a whole policy batch concurrently,
* a warm-cache replay, where every episode is served from the
  content-addressed evaluation cache through a store that a cold run filled,
* the process backend, which ships the evaluator to each worker once,
  with and without per-worker BLAS thread pinning
  (``EngineConfig.blas_threads_per_worker``): N worker processes x M BLAS
  threads oversubscribe the cores, so the initializer pins each worker to
  one BLAS thread by default and the delta is reported here,
* a staged multi-fidelity run (proxy stage at reduced epochs/data, top half
  of each wave promoted to full training), reporting how many full-fidelity
  trainings the successive-halving schedule saves at the same episode budget.

Asserts the engine's headline guarantees: backend-independent rewards,
training-free cache replays, and >= 2x fewer full-fidelity trainings under
the multi-fidelity schedule.  Results are written to ``BENCH_engine.json``
(override the location with the ``BENCH_ENGINE_JSON`` environment variable)
so CI can archive the perf trajectory.
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

EPISODES = 4

MULTI_FIDELITY_EVALUATION = {
    "fidelities": [
        {"name": "proxy", "epochs": 1, "data_fraction": 0.5, "promote_fraction": 0.5},
        {"name": "full"},
    ]
}


def _spec(preset) -> "repro.RunSpec":
    # The loose timing constraint keeps every sampled child trainable: at the
    # bench scale the 1500 ms default rejects the whole wave at the latency
    # gate, which would leave nothing for the backends (or the fidelity
    # ladder) to actually evaluate.
    spec = search_spec(
        preset, "fahana", episodes=EPISODES, seed=0, timing_constraint_ms=1e6
    )
    # One policy batch spans the whole run, so every backend evaluates the
    # same sampled children and parallelism is observable.
    return spec.with_overrides(values={"search.policy_batch": EPISODES})


def _timed_run(spec, splits, engine: EngineConfig):
    start = time.perf_counter()
    report = repro.run(
        spec,
        engine=engine,
        train_dataset=splits.train,
        validation_dataset=splits.validation,
    )
    return report, time.perf_counter() - start


def test_bench_engine(benchmark, bench_preset):
    splits = prepare_data(bench_preset, seed=0).splits
    spec = _spec(bench_preset)

    def harness():
        serial, serial_seconds = _timed_run(spec, splits, EngineConfig())
        threaded, thread_seconds = _timed_run(
            spec, splits, EngineConfig(backend="thread", num_workers=2)
        )
        with tempfile.TemporaryDirectory() as store_root:
            store = EngineConfig(store_root=store_root)
            _timed_run(spec, splits, store)
            warm, warm_seconds = _timed_run(spec, splits, store)
        process, process_seconds = _timed_run(
            spec, splits, EngineConfig(backend="process", num_workers=2)
        )
        unpinned, unpinned_seconds = _timed_run(
            spec,
            splits,
            EngineConfig(
                backend="process", num_workers=2, blas_threads_per_worker=None
            ),
        )
        staged_spec = repro.RunSpec.from_dict(
            {**spec.to_dict(), "evaluation": MULTI_FIDELITY_EVALUATION}
        )
        staged, staged_seconds = _timed_run(staged_spec, splits, EngineConfig())
        return {
            "serial": serial,
            "threaded": threaded,
            "warm": warm,
            "process": process,
            "unpinned": unpinned,
            "staged": staged,
            "serial_seconds": serial_seconds,
            "thread_seconds": thread_seconds,
            "warm_seconds": warm_seconds,
            "process_seconds": process_seconds,
            "unpinned_seconds": unpinned_seconds,
            "staged_seconds": staged_seconds,
        }

    outcome = run_once(benchmark, harness)

    # Backend independence: identical rewards regardless of execution backend.
    reference = outcome["serial"].history.reward_trajectory()
    assert outcome["threaded"].history.reward_trajectory() == reference
    assert outcome["process"].history.reward_trajectory() == reference
    # BLAS pinning changes scheduling, never results.
    assert outcome["unpinned"].history.reward_trajectory() == reference
    # A warm cache replays the search without a single training run.
    assert outcome["warm"].evaluations_run == 0
    assert all(record.cache_hit for record in outcome["warm"].history.records)
    # The multi-fidelity schedule completes the same episode budget with at
    # least 2x fewer full-fidelity trainings (top half of each wave promoted).
    serial_full = outcome["serial"].evaluations_by_fidelity.get("full", 0)
    staged_full = outcome["staged"].evaluations_by_fidelity.get("full", 0)
    assert len(outcome["staged"].history) == EPISODES
    assert serial_full > 0 and staged_full * 2 <= serial_full

    payload = {
        "episodes": EPISODES,
        "seconds": {
            "serial": outcome["serial_seconds"],
            "thread": outcome["thread_seconds"],
            "warm_cache": outcome["warm_seconds"],
            "process": outcome["process_seconds"],
            "process_blas_unpinned": outcome["unpinned_seconds"],
            "multi_fidelity": outcome["staged_seconds"],
        },
        "blas_pinning_savings_seconds": outcome["unpinned_seconds"]
        - outcome["process_seconds"],
        "thread_speedup": outcome["serial_seconds"]
        / max(outcome["thread_seconds"], 1e-9),
        "warm_cache_hit_rate": outcome["warm"].cache_hit_rate,
        "full_trainings": {"single_stage": serial_full, "multi_fidelity": staged_full},
        "trainings_by_fidelity": dict(outcome["staged"].evaluations_by_fidelity),
        "full_training_savings": 1.0 - staged_full / max(serial_full, 1),
    }
    output_path = os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(
        f"\nengine bench ({EPISODES} episodes): "
        f"serial {outcome['serial_seconds']:.2f}s, "
        f"thread {outcome['thread_seconds']:.2f}s "
        f"(speedup x{outcome['serial_seconds'] / max(outcome['thread_seconds'], 1e-9):.2f}), "
        f"warm cache {outcome['warm_seconds']:.2f}s "
        f"(hit rate {outcome['warm'].cache_hit_rate:.0%})"
    )
    print(
        f"process backend: BLAS pinned (1 thread/worker) "
        f"{outcome['process_seconds']:.2f}s vs "
        f"unpinned {outcome['unpinned_seconds']:.2f}s "
        f"(pinning saves "
        f"{outcome['unpinned_seconds'] - outcome['process_seconds']:+.2f}s)"
    )
    print(
        f"multi-fidelity: {staged_full} full trainings vs {serial_full} "
        f"single-stage ({payload['full_training_savings']:.0%} fewer) in "
        f"{outcome['staged_seconds']:.2f}s; results in {output_path}"
    )
