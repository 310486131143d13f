"""The ``repro.run`` facade: one entry point from spec to report.

``run(spec)`` resolves the spec (path, dict or :class:`RunSpec`), builds the
dataset, looks the strategy up in the registry, drives the search on a
:class:`~repro.engine.engine.SearchEngine` and returns a :class:`RunReport`
bundling the search result, the engine's execution statistics, the artifact
paths and the resolved spec.  With a run directory configured, the resolved
spec is archived next to the checkpoint (``run_spec.json``) so a run can be
re-launched -- locally or on a remote worker -- from its own artifacts.

``run()`` executes in the calling thread: a profiler around it sees the
search itself, a ``KeyboardInterrupt`` stops it where it is, and the report
(with its live engine) is the caller's alone.  The run service's
:class:`~repro.service.local.LocalExecutor` worker threads call the same
function, so a service-managed run and a direct one produce bit-for-bit
identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Union

from repro.api.registry import get_strategy
from repro.api.spec import RunSpec
from repro.core.fahana import FaHaNaResult
from repro.data.dataset import GroupedDataset
from repro.engine.checkpoint import CHECKPOINT_JOURNAL
from repro.engine.engine import EngineConfig, SearchEngine, StopToken
from repro.engine.events import EngineEvent
from repro.engine.serde import history_to_dict
from repro.hardware.constraints import DesignSpec

RUN_SPEC_JSON = "run_spec.json"

SpecLike = Union[RunSpec, str, Dict[str, Any]]


@dataclass
class RunReport:
    """Unified outcome of one ``repro.run`` invocation."""

    spec: RunSpec
    strategy: str
    result: FaHaNaResult
    evaluations_run: int
    cache_hits: int
    cache_hit_rate: Optional[float]
    checkpoints_written: int
    # Trainings per fidelity stage and whether reward-plateau detection
    # stopped the run before its episode budget.
    evaluations_by_fidelity: Dict[str, int] = field(default_factory=dict)
    # Final snapshot of the engine's per-run metrics registry (see
    # repro.obs.metrics): counters/gauges/histograms keyed by metric name.
    metrics: Dict[str, Any] = field(default_factory=dict)
    early_stopped: bool = False
    # True when a cooperative stop request ended the run at a wave boundary
    # (the run directory then holds a checkpoint to resume from).
    cancelled: bool = False
    resumed_from: Optional[int] = None
    run_dir: Optional[str] = None
    telemetry_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    spec_path: Optional[str] = None
    # The live engine, for in-process inspection (cache contents, event bus);
    # deliberately excluded from to_dict().
    engine: Optional[SearchEngine] = field(default=None, repr=False, compare=False)

    @property
    def history(self):
        return self.result.history

    @property
    def best(self):
        return self.result.best

    def summary(self) -> str:
        """The search summary plus one engine-statistics line."""
        lines = [self.result.summary()]
        stats = (
            f"engine: strategy={self.strategy}, "
            f"{self.evaluations_run} evaluations run, "
            f"{self.cache_hits} cache hits"
        )
        if self.cache_hit_rate is not None:
            stats += f" (hit rate {self.cache_hit_rate:.1%})"
        stats += f", {self.checkpoints_written} checkpoints"
        if len(self.evaluations_by_fidelity) > 1:
            per_stage = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.evaluations_by_fidelity.items())
            )
            stats += f"; trainings by fidelity: {per_stage}"
        if self.early_stopped:
            stats += "; stopped early (reward plateau)"
        if self.cancelled:
            stats += "; cancelled (resumable from the run-dir checkpoint)"
        lines.append(stats)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:  # repro-lint: disable=SER001 -- one-way by design: reports embed a live result/engine and are read as plain dicts
        """JSON-encodable form (spec, stats, paths and the full history)."""
        return {
            "spec": self.spec.to_dict(),
            "spec_cache_key": self.spec.cache_key(),
            "strategy": self.strategy,
            "evaluations_run": self.evaluations_run,
            "evaluations_by_fidelity": dict(self.evaluations_by_fidelity),
            "early_stopped": self.early_stopped,
            "cancelled": self.cancelled,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "checkpoints_written": self.checkpoints_written,
            "metrics": self.metrics,
            "resumed_from": self.resumed_from,
            "run_dir": self.run_dir,
            "telemetry_path": self.telemetry_path,
            "checkpoint_path": self.checkpoint_path,
            "spec_path": self.spec_path,
            "history": history_to_dict(self.result.history),
        }


def _resolve_spec(spec: SpecLike) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec.validate()
    if isinstance(spec, str) or isinstance(spec, os.PathLike):
        return RunSpec.from_file(os.fspath(spec))
    if isinstance(spec, dict):
        return RunSpec.from_dict(spec)
    raise TypeError(
        f"run() expects a RunSpec, a spec-file path or a dict, "
        f"got {type(spec).__name__}"
    )


def _resolve_engine_config(
    spec: RunSpec, explicit: Optional[EngineConfig]
) -> EngineConfig:
    """The explicit override, else the spec's engine section, else defaults.

    Passing both an explicit engine *and* a spec engine section is a
    conflict, so it raises instead of guessing which one wins.
    """
    if explicit is not None and spec.engine is not None:
        raise ValueError(
            "engine configured twice: the spec's 'engine' section is set and "
            "an explicit EngineConfig was passed to run(); drop one of them"
        )
    return explicit or spec.engine or EngineConfig()


def run(
    spec: SpecLike,
    *,
    engine: Optional[EngineConfig] = None,
    resume: bool = False,
    train_dataset: Optional[GroupedDataset] = None,
    validation_dataset: Optional[GroupedDataset] = None,
    design_spec: Optional[DesignSpec] = None,
    stop_token: Optional[StopToken] = None,
    event_callback: Optional[Callable[[EngineEvent], None]] = None,
) -> RunReport:
    """Execute the run a spec describes in this thread; return its report.

    This is the one execution path behind ``repro.run``, ``repro-search
    run`` and the run service.  ``spec`` may be a :class:`RunSpec`, a path
    to a spec JSON file or a plain dict.  ``train_dataset``/
    ``validation_dataset`` inject pre-built (e.g. normalised) splits in
    place of the spec's dataset section -- both must be given together;
    ``design_spec`` likewise overrides the design section with an
    already-materialised :class:`DesignSpec`.  When either is injected the
    spec no longer fully describes the run, so no ``run_spec.json`` is
    archived in the run directory (``spec_path`` stays None).  ``engine``
    overrides the spec's engine section (setting both is an error);
    ``resume=True`` continues from the checkpoint in the engine's run
    directory.

    ``stop_token`` is checked at wave boundaries: once requested, the engine
    writes its checkpoint and returns a partial report with
    ``cancelled=True``.  ``event_callback`` subscribes to the engine's event
    bus before the run starts, so a caller sees the full live stream.
    """
    resolved = _resolve_spec(spec)
    if (train_dataset is None) != (validation_dataset is None):
        raise ValueError(
            "train_dataset and validation_dataset must be provided together"
        )
    engine_config = _resolve_engine_config(resolved, engine)

    # With injected datasets or design the spec no longer fully describes
    # the run, so the run directory must not archive it as re-launchable.
    spec_describes_run = train_dataset is None and design_spec is None
    if train_dataset is None:
        splits = resolved.dataset.build()
        train_dataset, validation_dataset = splits.train, splits.validation
    design = design_spec if design_spec is not None else resolved.design.build()

    strategy = get_strategy(resolved.strategy)
    search = strategy.factory(resolved, train_dataset, validation_dataset, design)

    search_engine = SearchEngine(search, engine_config, stop_token=stop_token)
    if event_callback is not None:
        search_engine.events.subscribe(event_callback)
    resumed_from: Optional[int] = None
    if resume:
        resumed_from = search_engine.restore()
    result = search_engine.run(resolved.search.episodes)

    # The archived spec records the *effective* engine configuration.
    resolved = replace(resolved, engine=engine_config)

    run_dir = engine_config.run_dir
    spec_path = None
    telemetry_path = None
    checkpoint_path = None
    if run_dir is not None:
        if spec_describes_run:
            spec_path = resolved.to_file(os.path.join(run_dir, RUN_SPEC_JSON))
        checkpoint_path = os.path.join(run_dir, CHECKPOINT_JOURNAL)
        if engine_config.telemetry:
            telemetry_path = os.path.join(run_dir, "telemetry.jsonl")

    cache = search_engine.cache
    return RunReport(
        spec=resolved,
        strategy=resolved.strategy,
        result=result,
        evaluations_run=search_engine.evaluations_run,
        evaluations_by_fidelity=dict(search_engine.evaluations_by_fidelity),
        metrics=search_engine.metrics.snapshot(),
        early_stopped=search_engine.early_stopped,
        cancelled=search_engine.cancelled,
        cache_hits=search_engine.cache_hits,
        cache_hit_rate=cache.hit_rate if cache is not None else None,
        checkpoints_written=search_engine.checkpoints_written,
        resumed_from=resumed_from,
        run_dir=run_dir,
        telemetry_path=telemetry_path,
        checkpoint_path=checkpoint_path,
        spec_path=spec_path,
        engine=search_engine,
    )
