"""Resume floor: a run resumed from any of its checkpoints ends bit for bit
where the uninterrupted run ends.

Each search runs once without a run directory (the reference) and once with
``checkpoint_every`` set, copying the run directory at every
``checkpoint-written`` event.  Every copy is then resumed by a fresh engine
and run to the end.  The checkpointing run and every resumed run must end
with the reference's records (without their wall-clock
``elapsed_seconds``), controller weights, Adam moments and step, reward
baseline, both RNG states and in-memory cache (keys, LRU order and values,
without the wall-clock ``train_seconds``).

Only the engine's public surface is used (``events``, ``SearchEngine.resume``),
so the floor holds whatever the checkpoint's on-disk format is.
"""

from __future__ import annotations

import shutil
from typing import Any, Dict

import pytest

from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.policy import PolicyGradientConfig
from repro.core.search_space import SearchSpace
from repro.engine import EngineConfig, SearchEngine
from repro.engine.events import CHECKPOINT_WRITTEN
from repro.engine.serde import record_to_dict
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig

# Sixteen children of small blocks: a search of a few dozen episodes
# re-samples some, so cache hits, evictions and LRU order all occur.
SMALL_SPACE = SearchSpace(
    stride2_types=("MB", "CB"),
    stride1_types=("DB", "SKIP"),
    kernel_choices=(3,),
    ch_mid_choices=(32,),
    ch_out_choices=(16, 32),
)

# (timing constraint, episodes, seed, engine settings).  The gated search's
# constraint falls among its children's latencies (about 200 to 300 ms), so
# the gate rejects some and the others train; its cache holds fewer entries
# than the search has distinct children.  Every child of the other trains.
SEARCHES = {
    "gated": (
        250.0,
        32,
        1,
        dict(use_cache=True, cache_capacity=3, batch_episodes=2, checkpoint_every=4),
    ),
    "trained": (1e6, 12, 0, dict(use_cache=True, batch_episodes=2, checkpoint_every=2)),
}


def _search(tiny_splits, tiny_backbone, timing_constraint_ms, episodes, seed):
    config = FaHaNaConfig(
        episodes=episodes,
        seed=seed,
        search_space=SMALL_SPACE,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
            max_searchable=2,
        ),
        policy=PolicyGradientConfig(batch_episodes=2),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
    )
    spec = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=timing_constraint_ms),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, spec, config)


def _final_state(engine: SearchEngine, history) -> Dict[str, Any]:
    """Everything a resumed run must reproduce, with arrays as raw bytes."""
    search = engine.search
    policy = search.policy_trainer.state_dict()
    records = []
    for record in history.records:
        payload = record_to_dict(record)
        del payload["elapsed_seconds"]
        records.append(payload)
    cache = []
    for key, entry in engine.cache.snapshot():
        entry = dict(entry)
        del entry["train_seconds"]
        cache.append((key, entry))
    return {
        "records": records,
        "weights": [
            (param.name, param.data.dtype.str, param.data.shape, param.data.tobytes())
            for param in search.controller.parameters()
        ],
        "adam_m": [m.tobytes() for m in policy["optimizer"]["m"]],
        "adam_v": [v.tobytes() for v in policy["optimizer"]["v"]],
        "adam_step": policy["optimizer"]["step"],
        "baseline": policy["baseline"],
        "sample_rng": search._sample_rng.bit_generator.state,
        "child_rng": search._child_rng.bit_generator.state,
        "cache": cache,
    }


def _assert_same(state: Dict[str, Any], reference: Dict[str, Any], label: str) -> None:
    assert state.keys() == reference.keys()
    for name in reference:
        assert state[name] == reference[name], f"{label}: {name} differs"


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_resume_from_every_checkpoint_matches_a_straight_run(
    name, tiny_splits, tiny_backbone, tmp_path
):
    timing_constraint_ms, episodes, seed, settings = SEARCHES[name]

    def search():
        return _search(tiny_splits, tiny_backbone, timing_constraint_ms, episodes, seed)

    reference_engine = SearchEngine(search(), EngineConfig(**settings))
    reference_history = reference_engine.run().history
    reference = _final_state(reference_engine, reference_history)

    run_dir = tmp_path / "run"
    copies = []

    def copy_run_dir(event) -> None:
        copy = tmp_path / f"copy-{len(copies)}"
        shutil.copytree(run_dir, copy)
        copies.append((event.payload["next_episode"], str(copy)))

    engine = SearchEngine(search(), EngineConfig(run_dir=str(run_dir), **settings))
    engine.events.subscribe(copy_run_dir, kinds=[CHECKPOINT_WRITTEN])
    history = engine.run().history
    _assert_same(_final_state(engine, history), reference, "checkpointing run")

    # Every periodic checkpoint plus the final one, each at a wave boundary.
    every = settings["checkpoint_every"]
    assert [next_episode for next_episode, _ in copies] == list(
        range(every, episodes + 1, every)
    ) + [episodes]
    records = reference_history.records
    if name == "gated":
        distinct = {record.descriptor.cache_key() for record in records}
        assert len(distinct) > settings["cache_capacity"]
        assert any(record.cache_hit for record in records)
        assert any(record.trained for record in records)
        assert not all(record.trained for record in records)
    else:
        assert all(record.trained for record in records)

    for next_episode, copy in copies:
        resumed = SearchEngine.resume(search(), EngineConfig(run_dir=copy, **settings))
        assert resumed._next_episode == next_episode
        resumed_history = resumed.run().history
        _assert_same(
            _final_state(resumed, resumed_history),
            reference,
            f"resumed at episode {next_episode}",
        )
