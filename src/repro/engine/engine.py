"""The search engine: the execution layer between controller and evaluator.

:class:`SearchEngine` drives a :class:`~repro.core.fahana.FaHaNaSearch`
(or its MONAS subclass) through the same protocol as the original
sequential loop -- sample, produce, evaluate, observe -- but adds the three
scaling features the seed loop lacked:

1. **Batched parallel evaluation.**  Episodes are sampled up front in waves
   of ``batch_episodes`` children and evaluated concurrently on a pluggable
   worker pool.  Controller sampling draws from the sample-RNG stream in
   strict episode order, and each episode takes its one child-RNG draw --
   its child's weight-init seed -- at sampling, whether or not the child is
   ever built.  Rewards are fed back to the policy trainer in episode order,
   so a run is bit-for-bit reproducible regardless of backend -- provided
   the wave size does not exceed ``PolicyGradientConfig.batch_episodes``
   (within one policy batch the controller's parameters are constant, which
   is exactly what makes the evaluations independent).

2. **Content-addressed memoization.**  Every run climbs its pipeline's
   fidelity ladder (a plain run is a one-rung ladder).  With a cache
   configured, each child is fingerprinted per rung (descriptor
   ``cache_key()`` + evaluation context + rung budget) before any model is
   built; repeats return the memoized result without training.  A cache
   miss is priced against the gates from its descriptor, so a rejected
   child is never built, and any other child is built the first time a
   rung trains it.

3. **Checkpoint/resume.**  With a ``run_dir`` configured, the engine
   snapshots controller weights, optimiser/baseline state, both RNG streams,
   the cache and the search history at batch boundaries, and can restore a
   search mid-flight via :meth:`SearchEngine.resume`.

Every observable step is announced on an event bus (JSONL telemetry when a
run directory is configured).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import math

from repro.core.controller import ControllerSample
from repro.core.evaluator import ChildEvaluator, EvaluationResult
from repro.core.fahana import FaHaNaResult, FaHaNaSearch
from repro.core.pipeline import (
    FidelityConfig,
    PricingReport,
    snapshot_weights,
)
from repro.core.producer import ChildArchitecture
from repro.core.results import EpisodeRecord, SearchHistory
from repro.engine import checkpoint as checkpoint_io
from repro.engine.cache import EvaluationCache, SharedCacheTier
from repro.engine.events import (
    BATCH_FINISHED,
    CACHE_HIT,
    CHECKPOINT_WRITTEN,
    EARLY_STOPPED,
    EPISODE_FINISHED,
    GATE_REJECTED,
    METRICS_UPDATED,
    RUN_CANCELLED,
    RUN_FINISHED,
    RUN_STARTED,
    SPAN,
    STAGE_FINISHED,
    STORE_DEGRADED,
    WAVE_PROMOTED,
    WAVE_RESIZED,
    EngineEvent,
    EventBus,
    JsonlTelemetry,
)
from repro.engine import workers as workers_module
from repro.engine.workers import WorkerPool, create_pool, ensure_backend
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer
from repro.store import LocalStore, RemoteStore, TieredStore
from repro.utils.fingerprint import (
    array_fingerprint,
    combine_fingerprints,
    content_fingerprint,
)
from repro.zoo.descriptors import ArchitectureDescriptor


class StopToken:
    """Cooperative cancellation signal checked by the engine loop.

    ``request()`` flags the token in-process; a token constructed with a
    ``path`` is additionally set by the mere existence of that file, which is
    how another process (``repro-search cancel`` on a shared runs root)
    reaches a run it does not hold a thread handle to.  The engine honours a
    set token at the next wave boundary where no policy-gradient episodes are
    pending, writes its usual checkpoint and stops -- so a cancelled run is
    always resumable.
    """

    def __init__(self, path: Optional[str] = None):
        self._event = threading.Event()
        self.path = path

    def request(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    def is_set(self) -> bool:
        """True once cancellation was requested (in-process or via the file)."""
        if self._event.is_set():
            return True
        if self.path is not None and os.path.exists(self.path):
            self._event.set()
            return True
        return False


@dataclass
class EngineConfig:
    """Execution knobs of the engine (orthogonal to the search's own config)."""

    backend: str = "serial"
    num_workers: int = 2
    # Episodes sampled and evaluated per wave; None uses the policy trainer's
    # batch size, which preserves exact sequential-loop semantics.
    batch_episodes: Optional[int] = None
    use_cache: bool = False
    # A live cache object (in-process only; never serialized).  It keeps the
    # tier it was built with, so it cannot be combined with a store below.
    cache: Optional[EvaluationCache] = None
    cache_capacity: int = 1024
    # Shared artifact store (repro.store), the cache's only on-disk tier.
    # Either implies caching: a local store root keeps results across
    # restarts and is shared by every run pointed at it on this host, a
    # store URL adds the daemon's cross-host tier.  Both set builds the full
    # local-first/remote-fallback tiering.
    store_root: Optional[str] = None
    store_url: Optional[str] = None
    run_dir: Optional[str] = None
    # Write a checkpoint whenever at least this many episodes completed since
    # the last one (0 = only the final checkpoint, when run_dir is set).
    checkpoint_every: int = 0
    telemetry: bool = True
    # Process backend only: ship the evaluator to each worker process once at
    # pool startup (executor initializer) instead of re-pickling it per task.
    share_evaluator: bool = True
    # Process backend only: BLAS/OpenMP threads *per worker process* (the
    # pool initializer pins OMP_NUM_THREADS/OPENBLAS_NUM_THREADS and the
    # OpenBLAS runtime).  N workers x M BLAS threads quickly oversubscribes
    # the cores; 1 is the right setting whenever num_workers is sized to the
    # machine.  None leaves the workers' BLAS threading untouched.
    blas_threads_per_worker: Optional[int] = 1

    def __post_init__(self) -> None:
        ensure_backend(self.backend)  # ValueError on unknown names
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.batch_episodes is not None and self.batch_episodes <= 0:
            raise ValueError("batch_episodes must be positive when given")
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.blas_threads_per_worker is not None and self.blas_threads_per_worker <= 0:
            raise ValueError("blas_threads_per_worker must be positive when given")
        if self.cache is not None and (
            self.store_root is not None or self.store_url is not None
        ):
            raise ValueError(
                "a live cache cannot be combined with store_root or store_url; "
                "give the store settings alone and the engine builds the cache"
            )

    @property
    def caches(self) -> bool:
        """Whether a run memoizes evaluations: a live cache, ``use_cache`` or
        a store each give it an :class:`EvaluationCache`."""
        return self.cache is not None or self.use_cache or any(
            path is not None for path in (self.store_root, self.store_url)
        )


# -- module-level default (installed by harnesses, e.g. the benchmark suite) -------
_default_engine_config: Optional[EngineConfig] = None


def set_default_engine_config(
    config: Optional[EngineConfig],
) -> Optional[EngineConfig]:
    """Install a process-wide default engine config; returns the previous one."""
    global _default_engine_config
    previous = _default_engine_config
    _default_engine_config = config  # repro-lint: disable=THR001 -- configured from the driving thread before workers start; single-name rebind is atomic under the GIL
    return previous


def get_default_engine_config() -> Optional[EngineConfig]:
    """The currently installed process-wide default (None when unset)."""
    return _default_engine_config


def resolve_engine_config(explicit: Optional[EngineConfig] = None) -> EngineConfig:
    """Pick the engine config: explicit > process default > plain serial."""
    if explicit is not None:
        return explicit
    if _default_engine_config is not None:
        return _default_engine_config
    return EngineConfig()


@dataclass
class _EpisodeJob:
    """One episode of a wave, from sample to evaluation.

    Every rung the child reaches overwrites ``evaluation``, ``cache_hit`` and
    ``worker``; the last rung's values are the episode's outcome.
    """

    episode: int
    sample: ControllerSample
    descriptor: ArchitectureDescriptor
    # The episode's one child-RNG draw: its child's weight-init seed.
    seed: int
    cache_key: Optional[str] = None
    # The gates' verdict, taken at the child's first cache miss.  ``child``
    # is built the first time a rung trains it, so it stays None for children
    # that never train (cache hits, gate rejections, intra-wave repeats).
    pricing: Optional[PricingReport] = None
    child: Optional[ChildArchitecture] = None
    initial_weights: Optional[Dict[str, Any]] = None
    evaluation: Optional[EvaluationResult] = None
    cache_hit: bool = False
    worker: str = ""
    elapsed_seconds: float = 0.0
    stages: List[str] = field(default_factory=list)


def _train_payload(
    payload: Tuple[
        Optional[ChildEvaluator],
        ChildArchitecture,
        str,
        Optional[PricingReport],
        Optional[Dict[str, Any]],
    ],
) -> Tuple[EvaluationResult, float, float]:
    """Worker task: train and score one child at one rung of the ladder.

    The engine priced the child from its descriptor, then built it from the
    seed drawn at sampling when a rung first trained it; ``pricing`` travels
    with the task, so the worker never prices again.  ``evaluator`` is None
    when the pool shipped it to the worker process once at startup
    (``EngineConfig.share_evaluator``); it is then read back from the
    worker's shared slot instead of travelling with every task.

    ``initial_weights`` is the snapshot a multi-rung ladder takes when it
    builds the child; restoring it makes every rung train from the same
    initial weights regardless of backend (in-process pools mutate the
    parent's model, the process pool trains a pickled copy).  Returns
    ``(result, elapsed_seconds, wall_start)`` -- the wall-clock start lets
    the engine record the training as a tracer span on the worker's own
    timeline, which is what makes a trace show the wave's real parallelism.
    """
    evaluator, child, fidelity_name, pricing, initial_weights = payload
    if evaluator is None:
        evaluator = workers_module.process_shared()
    pipeline = evaluator.pipeline
    fidelity = pipeline.fidelity(fidelity_name)
    wall_start = time.time()  # repro-lint: disable=DET001 -- telemetry wall-clock timestamp surfaced in events; never enters results or cache keys
    start = time.perf_counter()
    result = pipeline.train_and_score(
        child, fidelity, pricing=pricing, restore_from=initial_weights
    )
    return result, time.perf_counter() - start, wall_start


class SearchEngine:
    """Executes a FaHaNa/MONAS search with batching, caching and checkpoints."""

    def __init__(
        self,
        search: FaHaNaSearch,
        config: Optional[EngineConfig] = None,
        stop_token: Optional[StopToken] = None,
    ):
        self.search = search
        self.config = config or EngineConfig()
        self.events = EventBus()
        self.stop_token = stop_token or StopToken()
        self.cancelled = False
        self.cache = self._build_cache()
        # Computed on first use: hashing the datasets and backbone weights is
        # O(bytes) work the default no-cache/no-checkpoint path never needs.
        self._context_key: Optional[str] = None
        self.evaluations_run = 0
        self.evaluations_by_fidelity: Dict[str, int] = {}
        self.checkpoints_written = 0
        self.early_stopped = False
        # Reward-plateau tracking (seeded from a restored history on resume).
        self._best_reward = float("-inf")
        self._best_episode = -1
        self._restored_history: Optional[SearchHistory] = None
        self._restored_seconds = 0.0
        self._next_episode = 0
        # What the run directory's checkpoint journal holds (see run()).
        self._journal = checkpoint_io.JournalCursor()
        self._telemetry: Optional[JsonlTelemetry] = None
        if self.config.run_dir is not None:
            os.makedirs(self.config.run_dir, exist_ok=True)
            if self.config.telemetry:
                self._telemetry = JsonlTelemetry(
                    os.path.join(self.config.run_dir, "telemetry.jsonl")
                )
                self.events.subscribe(self._telemetry)
        # Per-run metric registry mirroring into the process-global one: each
        # instrumentation write lands in both, so the run's RunReport.metrics
        # snapshot and the daemon's fleet-wide /metrics share one write path.
        # Observability observes, it never steers: nothing below touches
        # cache_key(), the context fingerprint or either RNG stream.
        self.metrics = obs_metrics.MetricsRegistry(parent=obs_metrics.get_registry())
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics)
        self.tracer = Tracer(self._emit_span)
        if self.cache is not None:
            self.cache.bind_tracer(self.tracer)
        self._m_waves = self.metrics.counter(
            "repro_engine_waves_total", "Waves completed"
        )
        self._m_wave_seconds = self.metrics.histogram(
            "repro_engine_wave_seconds", "Wall time per wave (sample to observe)"
        )
        self._m_episodes = self.metrics.counter(
            "repro_engine_episodes_total",
            "Episodes finished, by outcome",
            labelnames=("result",),
        )
        self._m_eps = self.metrics.gauge(
            "repro_engine_episodes_per_second",
            "Episodes completed per wall second (current run)",
        )
        self._m_best = self.metrics.gauge(
            "repro_engine_best_reward", "Best Eq.1 reward observed so far"
        )
        self._m_promotions = self.metrics.counter(
            "repro_engine_promotions_total",
            "Children promoted to a higher fidelity stage",
        )
        self._m_evaluations = self.metrics.counter(
            "repro_engine_evaluations_total",
            "Worker evaluations run, by fidelity",
            labelnames=("fidelity",),
        )

    # -- construction helpers -----------------------------------------------------
    def _build_cache(self) -> Optional[EvaluationCache]:
        config = self.config
        if config.cache is not None:
            return config.cache
        if config.caches:
            return EvaluationCache(
                capacity=config.cache_capacity, tier=self._build_store_tier()
            )
        return None

    def _build_store_tier(self) -> Optional[SharedCacheTier]:
        """The shared memoization tier, when a store is configured.

        ``store_root`` alone shares results across runs/processes on one
        host through the filesystem; ``store_url`` adds (or is) the daemon's
        cross-host tier.  Remote faults degrade inside the tiered store --
        the engine only hears about it once, as a ``store-degraded`` event.
        """
        config = self.config
        if config.store_root is None and config.store_url is None:
            return None
        local = (
            LocalStore(config.store_root) if config.store_root is not None else None
        )
        remote = (
            RemoteStore(config.store_url) if config.store_url is not None else None
        )
        store = TieredStore(
            local=local, remote=remote, on_degraded=self._on_store_degraded
        )
        return SharedCacheTier(store)

    def _on_store_degraded(self, info: Dict[str, Any]) -> None:
        self._emit(STORE_DEGRADED, payload=info)

    @property
    def context_key(self) -> str:
        """The evaluation-context fingerprint (computed lazily, then cached)."""
        if self._context_key is None:
            self._context_key = self._compute_context_key()
        return self._context_key

    def _compute_context_key(self) -> str:
        """Fingerprint of everything besides the descriptor that shapes a result.

        Fairness metrics depend on the demographic group arrays, and a
        trained child's accuracy depends on the frozen-prefix weights copied
        from the pre-trained backbone, so both are part of the context: runs
        that differ only in group assignment or backbone pre-training must
        not share cache entries.
        """
        search = self.search
        evaluator = search.evaluator
        # Read from the live pipeline (what actually runs), not the config
        # object -- the two could otherwise drift if a search subclass swaps
        # configurations after construction.
        pipeline = evaluator.pipeline
        backbone_model = search.producer.backbone_model
        backbone_weights = (
            None
            if backbone_model is None
            else {
                name: array_fingerprint(value)
                for name, value in sorted(backbone_model.state_dict().items())
            }
        )
        # Default-valued precision knobs are dropped from the payload so the
        # fingerprints of every pre-existing run (and on-disk cache entry)
        # survive the knobs' introduction; a non-default precision genuinely
        # changes trained results and re-keys the context.  (The float64
        # kernel rewrite itself keeps fingerprints: rewards derive from
        # discrete prediction counts, which the rewrite preserves -- the
        # conv contractions' last-ulp loss drift at large shapes is bounded
        # and tracked by benchmarks/bench_nn.py.)
        training_context = asdict(pipeline.training)
        for knob in ("precision", "inference_batch_size"):
            if training_context.get(knob) is None:
                training_context.pop(knob, None)
        return content_fingerprint(
            {
                "training": training_context,
                "reward": asdict(pipeline.reward),
                "bypass_invalid": pipeline.bypass_invalid,
                "device": evaluator.latency_estimator.device.name,
                "resolution": evaluator.latency_estimator.resolution,
                "width_multiplier": search.config.producer.width_multiplier,
                "split_block": search.producer.split_block,
                "backbone_weights": backbone_weights,
                # Gate limits invalidate cached results when they change (a
                # rejected child under a tight budget may train under a loose
                # one); the fidelity ladder deliberately does not -- each
                # stage's budget is part of the per-fidelity cache key, so
                # full-fidelity results are shared across schedules.
                "max_parameters": pipeline.settings.max_parameters,
                "max_storage_mb": pipeline.settings.max_storage_mb,
                "num_classes": search.train_dataset.num_classes,
                "train_data": array_fingerprint(search.train_dataset.images),
                "train_labels": array_fingerprint(search.train_dataset.labels),
                "train_groups": array_fingerprint(search.train_dataset.groups),
                "validation_data": array_fingerprint(search.validation_dataset.images),
                "validation_labels": array_fingerprint(
                    search.validation_dataset.labels
                ),
                "validation_groups": array_fingerprint(
                    search.validation_dataset.groups
                ),
                "group_names": list(search.validation_dataset.group_names),
            }
        )

    def child_cache_key(
        self,
        descriptor: ArchitectureDescriptor,
        fidelity: Optional[FidelityConfig] = None,
    ) -> str:
        """Cache key of one child under this engine's evaluation context.

        Keys are fidelity-aware: a proxy result (reduced epochs or data) and
        a full-fidelity result of the same child never collide.  Full-budget
        stages keep the historical two-part key, so full results are shared
        between staged and single-stage runs of the same configuration.
        """
        base = combine_fingerprints(descriptor.cache_key(), self.context_key)
        if fidelity is None or fidelity.is_full:
            return base
        return combine_fingerprints(base, fidelity.fingerprint())

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    # -- checkpoint / resume ------------------------------------------------------
    def restore(self, run_dir: Optional[str] = None) -> int:
        """Load a checkpoint and position the engine to continue from it.

        Returns the next episode index.  Must be called before :meth:`run` on
        a freshly constructed search configured identically to the one that
        wrote the checkpoint.
        """
        directory = run_dir or self.config.run_dir
        if directory is None:
            raise ValueError("restore needs a run directory (config.run_dir or arg)")
        checkpoint = checkpoint_io.load_checkpoint(directory)
        next_episode, history = checkpoint_io.restore_checkpoint(
            checkpoint,
            context_key=self.context_key,
            controller=self.search.controller,
            policy_trainer=self.search.policy_trainer,
            sample_rng=self.search._sample_rng,
            child_rng=self.search._child_rng,
            cache=self.cache,
        )
        self._restored_history = history
        self._restored_seconds = history.total_seconds
        self._next_episode = next_episode
        return next_episode

    @classmethod
    def resume(
        cls, search: FaHaNaSearch, config: Optional[EngineConfig] = None
    ) -> "SearchEngine":
        """Construct an engine and restore the checkpoint in its run directory."""
        engine = cls(search, config)
        engine.restore()
        return engine

    def _write_checkpoint(self, history: SearchHistory, elapsed: float) -> None:
        assert self.config.run_dir is not None
        history.total_seconds = self._restored_seconds + elapsed
        path = checkpoint_io.save_checkpoint(
            self.config.run_dir,
            next_episode=self._next_episode,
            context_key=self.context_key,
            controller=self.search.controller,
            policy_trainer=self.search.policy_trainer,
            sample_rng=self.search._sample_rng,
            child_rng=self.search._child_rng,
            history=history,
            cache=self.cache,
            cursor=self._journal,
        )
        self.checkpoints_written += 1
        self._emit(
            CHECKPOINT_WRITTEN,
            payload={"path": path, "next_episode": self._next_episode},
        )

    # -- engine-level scheduling ---------------------------------------------------
    @property
    def pipeline(self):
        """The evaluator's staged evaluation pipeline."""
        return self.search.evaluator.pipeline

    @property
    def staged(self) -> bool:
        """True when the pipeline has proxy fidelities (promotion applies)."""
        return self.pipeline.settings.staged

    def _note_reward(self, episode: int, reward: float) -> None:
        """Track the best reward for plateau detection."""
        delta = getattr(self.search.config, "plateau_delta", 0.0)
        if reward > self._best_reward + delta or self._best_episode < 0:
            self._best_reward = max(self._best_reward, reward)
            self._best_episode = episode

    def _plateaued(self) -> bool:
        """True once the best reward stalled for ``plateau_patience`` episodes."""
        patience = getattr(self.search.config, "plateau_patience", None)
        if patience is None or self._next_episode == 0:
            return False
        return self._next_episode - 1 - self._best_episode >= patience

    def _update_wave_size(self, jobs: List[_EpisodeJob], base: int, cap: int) -> None:
        """Adapt the wave size to the cost of the wave that just finished.

        Waves double while at least half their episodes were free -- cheap
        episodes may as well batch up -- and halve back toward the configured
        size once every episode paid for a training run.  "Free" always
        includes gate rejections; cache hits count as free only on
        single-fidelity runs, where wave size cannot change results.  On
        staged runs the wave size shapes promotion cohorts, so the rule must
        read evaluation *outcomes* (identical between a cold run and a warm
        cache replay), never cache state.
        """
        staged = self.staged
        trained = sum(
            1
            for job in jobs
            if job.evaluation.trained and (staged or not job.cache_hit)
        )
        wave = len(jobs)
        previous = self._wave_size
        if trained * 2 <= wave:
            self._wave_size = min(self._wave_size * 2, cap)
        elif trained == wave:
            self._wave_size = max(base, self._wave_size // 2)
        if self._wave_size != previous:
            self._emit(
                WAVE_RESIZED,
                payload={
                    "wave_size": self._wave_size,
                    "previous": previous,
                    "trained": trained,
                },
            )

    # -- the search loop ----------------------------------------------------------
    def run(self, episodes: Optional[int] = None) -> FaHaNaResult:
        """Run (or continue) the search up to ``episodes`` total episodes."""
        search = self.search
        num_episodes = episodes or search.config.episodes
        policy_batch = search.config.policy.batch_episodes
        wave_size = self.config.batch_episodes or policy_batch
        if wave_size > policy_batch:
            # A wave samples all its children before any reward is observed;
            # beyond the policy batch the sequential loop would already have
            # updated the controller, so the runs would silently diverge.
            raise ValueError(
                f"engine batch_episodes ({wave_size}) must not exceed the "
                f"policy-gradient batch_episodes ({policy_batch}); raise "
                "PolicyGradientConfig.batch_episodes to evaluate larger waves"
            )
        adaptive = getattr(search.config, "adaptive_wave", False)
        self._wave_size = wave_size
        staged = self.staged
        if (
            staged
            and wave_size == 1
            and any(f.promote_fraction < 1.0 for f in self.pipeline.fidelities[:-1])
        ):
            # A one-child wave promotes its only valid child every time, so
            # each episode would pay for proxy AND full training -- strictly
            # worse than the single-stage pipeline it is meant to beat.
            raise ValueError(
                "a multi-fidelity ladder needs waves of at least 2 episodes "
                "to promote a strict subset; raise search.policy_batch (and "
                "optionally engine.batch_episodes), or set every "
                "promote_fraction to 1.0 if training all children at every "
                "fidelity is intended"
            )

        if self._restored_history is not None:
            history = self._restored_history
            for record in history.records:
                self._note_reward(record.episode, record.reward)
        else:
            history = SearchHistory(
                space_size=search.producer.space_size(),
                full_space_size=search.producer.full_space_size(),
                frozen_blocks=search.producer.split_block,
                searchable_blocks=len(search.producer.positions),
            )
        self._emit(
            RUN_STARTED,
            payload={
                "backend": self.config.backend,
                "episodes": num_episodes,
                "start_episode": self._next_episode,
                "wave_size": wave_size,
                "cache": self.cache is not None,
                "staged": staged,
                "fidelities": [f.name for f in self.pipeline.fidelities],
            },
        )

        start = time.perf_counter()
        start_episode = self._next_episode
        episodes_since_checkpoint = 0
        # A run's first checkpoint writes the journal anew, dropping any torn
        # tail a killed run left; later ones append what changed.
        self._journal = checkpoint_io.JournalCursor()
        shared = (
            search.evaluator
            if self.config.backend == "process" and self.config.share_evaluator
            else None
        )
        pool = create_pool(
            self.config.backend,
            self.config.num_workers,
            shared=shared,
            blas_threads=self.config.blas_threads_per_worker,
            metrics=self.metrics,
            events=self.events.emit,
        )
        try:
            while self._next_episode < num_episodes:
                if (
                    self.stop_token.is_set()
                    and search.policy_trainer.pending_episodes == 0
                ):
                    # A boundary with no pending episodes is exactly a
                    # checkpointable state; with pending episodes the loop
                    # runs further waves (at most one policy batch) first.
                    self.cancelled = True
                    self._emit(
                        RUN_CANCELLED,
                        payload={
                            "episodes_done": self._next_episode,
                            "episodes": num_episodes,
                        },
                    )
                    break
                if self._plateaued():
                    self.early_stopped = True
                    self._emit(
                        EARLY_STOPPED,
                        payload={
                            "episodes_done": self._next_episode,
                            "best_episode": self._best_episode,
                            "best_reward": self._best_reward,
                            "patience": search.config.plateau_patience,
                        },
                    )
                    break
                wave = min(self._wave_size, num_episodes - self._next_episode)
                if adaptive:
                    # Adaptive waves stay aligned to policy-batch boundaries so
                    # resizing never changes when the controller updates.
                    boundary = policy_batch - (self._next_episode % policy_batch)
                    wave = min(wave, boundary)
                wave_start = time.perf_counter()
                with self.tracer.span(
                    "wave", episode=self._next_episode, wave=wave
                ):
                    with self.tracer.span("sample", episode=self._next_episode):
                        jobs = self._sample_wave(wave)
                    with self.tracer.span("evaluate", episode=self._next_episode):
                        self._evaluate_wave(jobs, pool)
                    with self.tracer.span("observe", episode=self._next_episode):
                        for job in jobs:
                            self._observe(job, history)
                self._next_episode += wave
                episodes_since_checkpoint += wave
                self._note_wave_metrics(
                    wave_seconds=time.perf_counter() - wave_start,
                    elapsed=time.perf_counter() - start,
                    start_episode=start_episode,
                )
                self._emit(
                    BATCH_FINISHED,
                    payload={
                        "episodes_done": self._next_episode,
                        "wave": wave,
                        "backend": pool.name,
                    },
                )
                if adaptive:
                    self._update_wave_size(jobs, base=wave_size, cap=policy_batch)
                if (
                    self.config.run_dir is not None
                    and self.config.checkpoint_every > 0
                    and episodes_since_checkpoint >= self.config.checkpoint_every
                    and search.policy_trainer.pending_episodes == 0
                ):
                    with self.tracer.span("checkpoint"):
                        self._write_checkpoint(history, time.perf_counter() - start)
                    episodes_since_checkpoint = 0
        finally:
            pool.close()

        search.policy_trainer.apply_update()
        history.total_seconds = self._restored_seconds + time.perf_counter() - start
        if self.config.run_dir is not None:
            self._write_checkpoint(history, time.perf_counter() - start)
        self._emit(
            RUN_FINISHED,
            payload={
                "episodes": len(history),
                "evaluations_run": self.evaluations_run,
                "evaluations_by_fidelity": dict(self.evaluations_by_fidelity),
                "cache_hits": self.cache_hits,
                "early_stopped": self.early_stopped,
                "cancelled": self.cancelled,
                "total_seconds": history.total_seconds,
            },
        )
        if self._telemetry is not None:
            # Release the line-buffered handle; it reopens on any later event.
            self._telemetry.close()
        return FaHaNaResult(
            history=history,
            best=history.best_record(),
            fairest=history.fairest_record(),
            smallest=history.smallest_record(),
            freezing_analysis=search.producer.analysis,
        )

    # -- wave phases --------------------------------------------------------------
    def _sample_wave(self, wave: int) -> List[_EpisodeJob]:
        """Sample and describe ``wave`` children in strict episode order.

        Each episode also takes its one child-RNG draw here, the seed its
        child is built from if a rung ever trains it.  Drawing for every
        episode, built or not, keeps the stream -- and with it every later
        child's initial weights -- aligned with a run that builds every child.
        """
        search = self.search
        jobs: List[_EpisodeJob] = []
        for offset in range(wave):
            sample = search.controller.sample(rng=search._sample_rng)
            jobs.append(
                _EpisodeJob(
                    episode=self._next_episode + offset,
                    sample=sample,
                    descriptor=search.producer.describe_child(sample.decisions),
                    seed=int(search._child_rng.integers(0, 2**31 - 1)),
                )
            )
        return jobs

    def _evaluate_wave(self, jobs: List[_EpisodeJob], pool: WorkerPool) -> None:
        """Drive one wave up the pipeline's fidelity ladder.

        A plain run has one rung.  After each rung but the last, the top
        ``promote_fraction`` of the wave's valid children is promoted to the
        next; children that stop early keep their last rung's result as the
        episode's reward -- the staged generalisation of the paper's "price
        before train" refusal.  Cache lookups are per (child, rung), so
        replays skip the training without changing any promotion decision.
        """
        fidelities = self.pipeline.fidelities
        survivors = jobs
        for index, fidelity in enumerate(fidelities):
            if not survivors:
                break
            with self.tracer.span(f"stage:{fidelity.name}", children=len(survivors)):
                self._run_stage(survivors, fidelity, index, pool)
                if index == len(fidelities) - 1:
                    break
                with self.tracer.span("promotion"):
                    ranked = sorted(
                        survivors, key=lambda job: (-job.evaluation.reward, job.episode)
                    )
                    eligible = [job for job in ranked if job.evaluation.is_valid]
                    # The quota is a fraction of the wave's *valid* children:
                    # invalid results (gate rejections included) can never
                    # win, so they neither advance nor pad the promotion
                    # budget of the children that can.
                    quota = (
                        max(1, math.ceil(len(eligible) * fidelity.promote_fraction))
                        if eligible
                        else 0
                    )
                    promoted = eligible[:quota]
            self._m_promotions.inc(len(promoted))
            self._emit(
                WAVE_PROMOTED,
                payload={
                    "stage": fidelity.name,
                    "next_stage": fidelities[index + 1].name,
                    "promoted": [job.episode for job in promoted],
                    "stopped": len(survivors) - len(promoted),
                },
            )
            survivors = promoted

    def _run_stage(
        self,
        jobs: List[_EpisodeJob],
        fidelity: FidelityConfig,
        index: int,
        pool: WorkerPool,
    ) -> None:
        """Evaluate one rung of the ladder for ``jobs``, in episode order.

        Each child is looked up under its (child, rung) cache key.  A miss is
        priced from its descriptor unless an earlier rung priced it; a child
        a gate rejects takes its rejection result without a model or a
        worker, and any other miss is built the first time a rung trains it,
        then trains on the pool.  Rejections and trainings alike count toward
        ``evaluations_run`` and are cached.  When caching is on, duplicate
        children *within* the wave are evaluated once per rung: a repeat
        shares its first occurrence's result, exactly as it would have hit
        the cache with wave size 1.  (With caching off every child is
        evaluated, matching the sequential loop.)
        """
        pipeline = self.pipeline
        cache = self.cache
        first: Dict[str, _EpisodeJob] = {}
        unique: List[_EpisodeJob] = []
        repeats: List[_EpisodeJob] = []
        for job in jobs:
            if cache is not None:
                job.cache_key = self.child_cache_key(job.descriptor, fidelity)
                cached = cache.get(job.cache_key)
                if cached is not None:
                    self._serve_cached(job, cached, fidelity)
                    continue
                if first.setdefault(job.cache_key, job) is not job:
                    repeats.append(job)
                    continue
            unique.append(job)

        training: List[_EpisodeJob] = []
        # Promotion re-trains later rungs from the child's initial weights,
        # which in-process training at an earlier rung would otherwise have
        # mutated.  Process workers train a pickled copy, so the parent's
        # model keeps its initial weights and shipping a snapshot would
        # double every promoted task's payload for no effect.
        snapshot = len(pipeline.fidelities) > 1 and self.config.backend != "process"
        for job in unique:
            job.cache_hit = False
            if job.pricing is None:
                job.pricing = pipeline.price(job.descriptor)
            if job.pricing.passed or not pipeline.bypass_invalid:
                if job.child is None:
                    job.child = self.search.producer.produce(
                        job.sample.decisions, seed=job.seed
                    )
                    if snapshot:
                        job.initial_weights = snapshot_weights(job.child.model)
                training.append(job)
                continue
            failures = [outcome.gate for outcome in job.pricing.failures()]
            job.evaluation = pipeline.rejection_result(job.pricing)
            job.worker = "gate"
            job.stages.extend(f"gate:{gate}" for gate in failures)
            self._emit(
                GATE_REJECTED,
                episode=job.episode,
                payload={"gates": failures, "latency_ms": job.pricing.latency_ms},
            )
        if training:
            # Pools that shipped the evaluator at startup get payloads
            # without it; the worker reads it from its shared slot.
            evaluator = None if pool.uses_shared else self.search.evaluator
            payloads = [
                (
                    evaluator,
                    job.child,
                    fidelity.name,
                    job.pricing,
                    job.initial_weights if index > 0 else None,
                )
                for job in training
            ]
            results = pool.map_ordered(_train_payload, payloads)
            for job, ((evaluation, elapsed, started), worker) in zip(training, results):
                job.evaluation = evaluation
                job.worker = worker
                job.elapsed_seconds += elapsed
                job.stages.append(fidelity.name)
                self.tracer.record(
                    "train",
                    start=started,
                    duration=elapsed,
                    tid=worker,
                    episode=job.episode,
                    fidelity=fidelity.name,
                )
        for job in unique:
            self.evaluations_run += 1
            self._m_evaluations.labels(fidelity=fidelity.name).inc()
            if job.evaluation.trained:
                self.evaluations_by_fidelity[fidelity.name] = (
                    self.evaluations_by_fidelity.get(fidelity.name, 0) + 1
                )
            if cache is not None:
                cache.put(job.cache_key, job.evaluation)
        for job in repeats:
            self._serve_cached(job, first[job.cache_key].evaluation, fidelity)
        self._emit(
            STAGE_FINISHED,
            payload={
                "stage": fidelity.name,
                "children": len(jobs),
                "evaluated": len(unique),
                "cached": len(jobs) - len(unique),
            },
        )

    def _serve_cached(
        self, job: _EpisodeJob, evaluation: EvaluationResult, fidelity: FidelityConfig
    ) -> None:
        """Give ``job`` a cached (or intra-wave shared) result at this rung."""
        job.evaluation = evaluation
        job.cache_hit = True
        job.worker = "cache"
        job.stages.append(fidelity.name)
        self._emit(
            CACHE_HIT,
            episode=job.episode,
            payload={
                "key": job.cache_key,
                "stage": fidelity.name,
                "reward": evaluation.reward,
            },
        )

    def _observe(self, job: _EpisodeJob, history: SearchHistory) -> None:
        """Feed one episode's reward back and record it (episode order)."""
        assert job.evaluation is not None
        evaluation = job.evaluation
        self.search.policy_trainer.observe(job.sample, evaluation.reward)
        self._note_reward(job.episode, evaluation.reward)
        if obs_metrics.enabled():
            result = (
                "cached"
                if job.cache_hit
                else ("trained" if evaluation.trained else "rejected")
            )
            self._m_episodes.labels(result=result).inc()
            self._m_best.set(self._best_reward)
        history.append(
            EpisodeRecord(
                episode=job.episode,
                descriptor=job.descriptor,
                decisions=[spec.describe() for spec in job.descriptor.blocks],
                reward=evaluation.reward,
                accuracy=evaluation.accuracy,
                unfairness=evaluation.unfairness,
                latency_ms=evaluation.latency_ms,
                storage_mb=evaluation.storage_mb,
                num_parameters=evaluation.num_parameters,
                trained=evaluation.trained,
                group_accuracy=evaluation.group_accuracy,
                elapsed_seconds=job.elapsed_seconds,
                cache_hit=job.cache_hit,
                worker=job.worker,
                fidelity=evaluation.fidelity,
                stages=list(job.stages),
            )
        )
        self._emit(
            EPISODE_FINISHED,
            episode=job.episode,
            payload={
                "reward": evaluation.reward,
                "accuracy": evaluation.accuracy,
                "unfairness": evaluation.unfairness,
                "trained": evaluation.trained,
                "cache_hit": job.cache_hit,
                "worker": job.worker,
                "fidelity": evaluation.fidelity,
                "stages": list(job.stages),
            },
        )

    # -- events / observability ---------------------------------------------------
    def _emit(
        self,
        kind: str,
        episode: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.events.emit(EngineEvent(kind=kind, episode=episode, payload=payload or {}))

    def _emit_span(self, payload: Dict[str, Any], episode: Optional[int]) -> None:
        """Tracer sink: one completed span becomes one ``span`` event."""
        self._emit(SPAN, episode=episode, payload=payload)

    def _note_wave_metrics(
        self, wave_seconds: float, elapsed: float, start_episode: int
    ) -> None:
        """Record per-wave instruments and announce a metrics snapshot event.

        The ``metrics-updated`` event carries the handful of aggregates a
        tail wants on its progress line (throughput, cache hit rate), so a
        follower does not need to scrape ``/metrics`` -- or even share the
        process -- to show them.
        """
        if not obs_metrics.enabled():
            return
        self._m_waves.inc()
        self._m_wave_seconds.observe(wave_seconds)
        done = self._next_episode - start_episode
        eps = done / elapsed if elapsed > 0 else 0.0
        self._m_eps.set(eps)
        self._emit(
            METRICS_UPDATED,
            payload={
                "episodes_done": self._next_episode,
                "elapsed_seconds": elapsed,
                "episodes_per_second": eps,
                "cache_hit_rate": (
                    self.cache.hit_rate if self.cache is not None else None
                ),
                "evaluations_run": self.evaluations_run,
            },
        )
