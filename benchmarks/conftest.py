"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at the
``bench`` scale (a reduced budget sized so the full suite completes on a
laptop CPU in minutes).  Pass ``--benchmark-only`` to pytest to run them; the
same harness functions accept the ``small`` / ``full`` presets for the
higher-fidelity runs recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.common import clear_caches
from repro.experiments.presets import CI

# The benchmark preset: slightly smaller than CI so that harnesses which train
# many networks (Table 3 trains twelve) stay fast.
BENCH = dataclasses.replace(
    CI,
    name="bench",
    image_size=12,
    samples_per_class=10,
    minority_fraction=0.4,
    width_multiplier=0.2,
    train_epochs=2,
    batch_size=8,
    search_episodes=3,
    child_epochs=1,
    pretrain_epochs=1,
    max_searchable=3,
)


@pytest.fixture(scope="session")
def bench_preset():
    """The reduced-scale preset used by every benchmark."""
    return BENCH


@pytest.fixture(scope="session", autouse=True)
def _clear_experiment_caches():
    """Keep benchmark runs independent of any earlier in-process state."""
    clear_caches()
    yield
    clear_caches()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
