"""The benchmark's four workloads and their output checks.

Each workload derives all its inputs from the benchmark seed, measures an
untraced pass (the end-to-end metrics), and -- in a traced run -- repeats
the work under :mod:`spans` for the per-layer metrics.  Why each workload
exists (which layer it stresses, which it leaves idle) is recorded in
``perfbench/README.md``.

The inputs of a run are fixed by the seed and the constants below, never by
how fast the program is: a search workload repeats the same search until
``--seconds`` is spent, so a faster program runs more repeats of the same
inputs rather than different inputs.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import http.client
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import hostspeed
import loadgen
import spans as tracing
from repro.api.registry import get_strategy
from repro.api.spec import RunSpec
from repro.engine.engine import SearchEngine
from repro.nn.trainer import Trainer, TrainingConfig

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NPROC = os.cpu_count() or 1
FIXTURE_TIMEOUT_S = 150
# Searches per measured pass at least; episodes_per_s is their pooled rate.
MIN_REPEATS = 3
MAX_MEASURE_S = 120.0
# The benchmark seed picks the data; the controller's seed is fixed.  A fixed
# search seed makes the controller sample similar children whatever the
# benchmark seed, which keeps the work per run comparable across seeds; the
# data still differs, and with it every reward the controller learns from.
SEARCH_SEED = 0
# Set-up-only repetitions added to the set-ups the measured searches do, so
# setup_s is a median of several samples even when few searches fit.
EXTRA_SETUPS = 7
# Requests per probe of the searched children: thirty samples beyond the
# p99.  Run for run on six seeds, the p99 spread 0.18 with 2000 requests
# over 4 interpreters and 0.09 with 4000 over 2; 4000 took 4 s more a run
# than the time for all the benchmark's runs allows.
PROBE_REQUESTS = 3000
# The probe's children: the first wave of 4, sampled before any reward.
PROBE_CHILDREN = 4
# The probe's requests are split over this many fresh interpreters, one
# after another: from process to process the predict speed lands on one of
# two levels (with address randomisation off it did not, so the layout is
# the suspect).  Each interpreter costs about 0.7 s to start.
PROBE_PROCESSES = 2
# The probe divides each block of this many consecutive requests by the
# host's slowdown around the block (see probe_children).
PROBE_BLOCK = 50
# serve-http's /healthz calls per connection before the closed loop.
HEALTHZ_PER_CONNECTION = 20
# The closed loop's keep-alive connections, fixed so that results compare
# across hosts.  benchmarks/bench_serving.py drives 16, but on a 2-core host
# 16 client and 16 handler threads measured the scheduler: predict_p99_ms
# spread 0.28-0.52 of its median across ten seeds, against 0.02 with 4.
CONNECTIONS = 4
# Requests are 1 or 8 validation images.  Single rows are what
# bench_serving.py's clients send, 8 rows its block of inputs.  The share of
# 8-row requests is an assumption, not a measured traffic profile: chosen
# away from one half, so the p50 falls inside the 1-row requests and the p99
# inside the 8-row ones rather than on the boundary between the two.
MULTI_ROW_SHARE = 0.25
REQUEST_POOL = 256
SERVE_SETUPS = 15
# serve-http's fixture runs this many searches through the run service and
# promotes the first one's best child; episodes_per_s is their pooled rate.
PROMOTION_SEARCHES = 4


# -- results ------------------------------------------------------------------------
@dataclass
class Pass:
    """What one measured pass (untraced or traced) produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    histories: List[Any] = field(default_factory=list)
    serving: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def child(*args: str) -> str:
    """Run ``python3 -m workloads <args>`` in a fresh interpreter; its last output line."""
    finished = subprocess.run(
        [sys.executable, "-m", "workloads", *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC])),
        stdout=subprocess.PIPE,
        check=True,
        timeout=FIXTURE_TIMEOUT_S,
    )
    return finished.stdout.decode("utf-8").strip().splitlines()[-1]


# -- peak memory of the process tree -------------------------------------------------
def _proportional_bytes(pid: int) -> int:
    """Proportional set size: pages shared with other processes count once in all."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _high_water_bytes(pid: int) -> int:
    """The kernel's peak resident set size of ``pid`` (VmHWM); 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _reset_high_water() -> None:
    """Restart this process's VmHWM from its current resident set."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", "r", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue
    return found


def release_free_heap() -> None:
    """Return freed heap pages to the OS (glibc), so a peak measured next
    counts live memory rather than what an earlier phase freed but the
    allocator kept; without it serve-http's peak landed on one of two levels
    34 MB apart from run to run."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


class PeakRss:
    """Peak resident memory of this process plus its descendants.

    This process's part is the kernel's own high-water mark (VmHWM), reset
    on entry and read on exit.  The descendants' part is the largest sum of
    their proportional set sizes over polls every ``interval`` seconds.
    Polling this process's proportional set size (``smaps_rollup``) every
    20 ms instead walked its page tables under the memory-map lock and
    slowed search-train by a quarter, unevenly; summing the workers'
    high-water marks instead depended on which worker drew which child.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0
        # Processes (and their descendants) left out of the sum.
        self.skip: set = set()
        self._descendants = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def _poll(self) -> None:
        total, pending = 0, _children(os.getpid())
        while pending:
            pid = pending.pop()
            if pid in self.skip:
                continue
            total += _proportional_bytes(pid)
            pending.extend(_children(pid))
        self._descendants = max(self._descendants, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._poll()

    def __enter__(self) -> "PeakRss":
        _reset_high_water()
        self._poll()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._poll()
        self.peak = _high_water_bytes(os.getpid()) + self._descendants

    @property
    def megabytes(self) -> float:
        return self.peak / 2**20


# -- searches ------------------------------------------------------------------------
@dataclass
class SearchRun:
    setup_s: float
    run_s: float
    episodes: int
    digest: str
    engine: Optional[SearchEngine]
    history: Any
    validation: Any
    # The host's slowdown while the search ran (see hostspeed).
    slowdown: float = 1.0


def history_digest(history: Any) -> str:
    """Hash of what a search decided: per episode its decisions, reward, cache hit."""
    rows = [[record.decisions, repr(record.reward), record.cache_hit] for record in history.records]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def set_up(build_spec: Callable[[], RunSpec]) -> Tuple[RunSpec, Any, SearchEngine, float]:
    """Spec, dataset, strategy factory and engine: (spec, splits, engine, seconds)."""
    start = time.perf_counter()
    spec = build_spec()
    splits = spec.dataset.build()
    design = spec.design.build()
    search = get_strategy(spec.strategy).factory(spec, splits.train, splits.validation, design)
    engine = SearchEngine(search, spec.engine)
    return spec, splits, engine, time.perf_counter() - start


def run_search(build_spec: Callable[[], RunSpec]) -> SearchRun:
    """Set up one search (timed as set-up) and run it (timed as the search)."""
    spec, splits, engine, setup_s = set_up(build_spec)
    start = time.perf_counter()
    history = engine.run(spec.search.episodes).history
    run_s = time.perf_counter() - start
    return SearchRun(
        setup_s=setup_s,
        run_s=run_s,
        episodes=len(history.records),
        digest=history_digest(history),
        engine=engine,
        history=history,
        validation=splits.validation,
    )


def search_spec(
    seed: int,
    episodes: int,
    *,
    image_size: int,
    width: float,
    child_epochs: int,
    pretrain_epochs: int,
    timing_constraint_ms: float,
    engine: Dict[str, Any],
    compute: Optional[Dict[str, Any]] = None,
    evaluation: Optional[Dict[str, Any]] = None,
    policy_batch: int = 4,
) -> RunSpec:
    payload: Dict[str, Any] = {
        "strategy": "fahana",
        "dataset": {
            "image_size": image_size,
            "samples_per_class": 8,
            "minority_fraction": 0.5,
            "seed": seed,
            "split_seed": seed,
        },
        "design": {"device": "raspberry-pi-4", "timing_constraint_ms": timing_constraint_ms},
        "search": {
            "episodes": episodes,
            "width_multiplier": width,
            "child_epochs": child_epochs,
            "child_batch_size": 16,
            "pretrain_epochs": pretrain_epochs,
            "max_searchable": 2,
            "policy_batch": policy_batch,
            "seed": SEARCH_SEED,
        },
        "engine": engine,
    }
    if compute is not None:
        payload["compute"] = compute
    if evaluation is not None:
        payload["evaluation"] = evaluation
    return RunSpec.from_dict(payload)


def train_spec(seed: int, episodes: int) -> RunSpec:
    """search-train / serve-http scale: every child trains (float64, serial)."""
    return search_spec(
        seed,
        episodes,
        image_size=16,
        width=0.5,
        child_epochs=3,
        pretrain_epochs=1,
        timing_constraint_ms=1e6,
        engine={"backend": "serial", "use_cache": True},
    )


class SearchWorkload:
    """A search workload: the same search, set up anew each time, repeated."""

    episodes = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def spec(self) -> RunSpec:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed fixtures, once per run."""

    def next_spec(self) -> Callable[[], RunSpec]:
        """The spec factory of the next measured search (untimed preparation first)."""
        return self.spec

    def check_search(self, run: SearchRun, result: Pass) -> bool:
        return True

    def close(self) -> None:
        """Stop whatever the workload left running (searches leave nothing)."""

    # -- the measured pass ---------------------------------------------------------
    def measure(self, seconds: float, max_repeats: Optional[int] = None, probe: bool = True) -> Pass:
        """Repeat the search until ``seconds`` of searching are spent, at least
        MIN_REPEATS times; with ``probe``, the probe's parts run in between."""
        result = Pass()
        runs: List[SearchRun] = []
        parts: List[Dict[str, Any]] = []
        peaks: List[int] = []
        searching = 0.0
        while True:
            # Each search starts from the same heap, whatever the one before
            # it freed: a pool forks its workers from this process.
            release_free_heap()
            start = time.perf_counter()
            (run, rss), slowdown = hostspeed.SEARCH.on_host(self._search_once)
            searching += time.perf_counter() - start
            run.slowdown = slowdown
            peaks.append(rss.peak)
            if not self.check_search(run, result):
                result.failed += run.episodes
            if probe and not runs:
                inputs = self._probe_inputs(run)
            # Keep the digest, not the engine: holding every repeat's engine
            # grew search-gated's peak by 7.5 MB a search.
            run.engine = run.validation = None
            if runs:
                run.history = None
            runs.append(run)
            if probe:
                if len(runs) == 1:
                    # Spread the parts over the searches this run will make,
                    # so that the probe meets the host as the searches do.
                    expected = max(MIN_REPEATS, int(seconds * len(runs) / searching))
                    per_search = -(-PROBE_PROCESSES // expected)
                for _ in range(min(per_search, PROBE_PROCESSES - len(parts))):
                    parts.append(json.loads(child("probe", inputs, str(len(parts)))))
            if max_repeats is not None and len(runs) >= max_repeats:
                break
            # Stop before a repeat that would overrun ``seconds``.
            if len(runs) >= MIN_REPEATS and (searching * (len(runs) + 1) / len(runs) > seconds or searching > MAX_MEASURE_S):
                break
        # Times are divided by the host's slowdown while they were taken.
        setups = [run.setup_s / run.slowdown for run in runs]
        for _ in range(EXTRA_SETUPS if max_repeats is None else 0):
            seconds_taken, slowdown = hostspeed.SEARCH.on_host(lambda: set_up(self.spec)[3])
            setups.append(seconds_taken / slowdown)

        rates = [run.episodes / run.run_s * run.slowdown for run in runs]
        result.metrics["setup_s"] = statistics.median(setups)
        # Pooled over the searches rather than a median of their rates: the
        # host's speed wanders within a run, and the total absorbs that
        # wander where a median of a handful of searches jumped with it.
        result.metrics["episodes_per_s"] = sum(run.episodes for run in runs) / sum(
            run.run_s / run.slowdown for run in runs
        )
        result.metrics["peak_rss_mb"] = max(peaks) / 2**20
        result.notes.update(
            peak_rss_mb_by_search=[peak / 2**20 for peak in peaks],
            searches=len(runs),
            episodes_per_search=self.episodes,
            setup_samples=len(setups),
            episodes_per_s_by_search=rates,
            host_slowdown_by_search=[run.slowdown for run in runs],
        )

        # Output checks: the search decides identically every time.
        result.digest = runs[0].digest
        result.attempted += sum(run.episodes for run in runs)
        if len(runs) > 1 and not result.check(
            f"history digest identical across {len(runs)} repeats",
            len({run.digest for run in runs}) == 1,
            runs[0].digest[:16],
        ):
            result.failed += sum(run.episodes for run in runs[1:])
        result.histories = [runs[0].history]
        if probe:
            while len(parts) < PROBE_PROCESSES:
                parts.append(json.loads(child("probe", inputs, str(len(parts)))))
            self._probe_metrics(parts, result)
        return result

    def _search_once(self) -> Tuple[SearchRun, PeakRss]:
        build_spec = self.next_spec()
        with PeakRss() as rss:
            run = run_search(build_spec)
        return run, rss

    # -- predictions of the searched child -------------------------------------------
    def _probe_inputs(self, run: SearchRun) -> str:
        """Pickle what the probe needs; returns the file's path.

        The search's product must answer predictions fast; the probe times
        ``Trainer.predict`` over the same 1-or-8-row request mix serve-http
        sends, each request answered by the next first-wave child in turn.
        The first wave is sampled before any reward reaches the controller,
        so with the fixed search seed it is the same set of children for
        every benchmark seed.  The probe runs in PROBE_PROCESSES fresh
        interpreters (see :func:`probe_children`), so neither the searches
        nor one process's address layout set the speed.
        """
        search = run.engine.search
        inputs = {
            "descriptors": [record.descriptor for record in run.history.records[:PROBE_CHILDREN]],
            "num_classes": search.train_dataset.num_classes,
            "width_multiplier": search.config.producer.width_multiplier,
            "images": run.validation.images,
            "seed": self.seed,
        }
        path = os.path.join(self.workdir, "probe.pickle")
        with open(path, "wb") as handle:
            pickle.dump(inputs, handle)
        return path

    @staticmethod
    def _probe_metrics(parts: List[Dict[str, Any]], result: Pass) -> None:
        latencies = [value for part in parts for value in part["latencies_s"]]
        result.attempted += len(latencies)
        result.failed += sum(part["failed"] for part in parts)
        result.metrics["predict_rows_per_s"] = sum(part["rows"] for part in parts) / sum(latencies)
        result.metrics["predict_p50_ms"] = 1e3 * percentile(latencies, 0.50)
        result.metrics["predict_p99_ms"] = 1e3 * percentile(latencies, 0.99)
        result.notes["predict_samples"] = len(latencies)
        result.notes["host_slowdown_by_probe_part"] = [statistics.median(part["slowdowns"]) for part in parts]
        result.notes["predict_source"] = f"Trainer.predict of {PROBE_CHILDREN} first-wave children"

    # -- the traced pass --------------------------------------------------------------
    def traced(self, untraced: Pass, seconds: float) -> Tuple[Pass, List[Dict[str, Any]]]:
        """One traced search; its digest must equal the untraced pass's."""
        recorder = tracing.Recorder()
        installation = tracing.Installation(recorder)
        try:
            result = self.measure(seconds, max_repeats=1, probe=False)
        finally:
            installation.close()
        if not result.check("history digest identical traced vs untraced", result.digest == untraced.digest):
            result.failed += self.episodes
        return result, recorder.spans


class SearchTrain(SearchWorkload):
    """Float64 serial searches in which every child trains.

    Two waves of 4: short searches, so that a run pools its rate over
    several of them.
    """

    episodes = 8

    def spec(self) -> RunSpec:
        return train_spec(self.seed, self.episodes)


class SearchStaged(SearchWorkload):
    """Float32 searches through the two-stage ladder on the process pool."""

    def spec(self) -> RunSpec:
        return search_spec(
            self.seed,
            self.episodes,
            image_size=16,
            width=0.5,
            child_epochs=3,
            pretrain_epochs=1,
            timing_constraint_ms=1e6,
            # Waves of 4, as in the other searches, but one policy update per
            # search: every child is then sampled before any reward, so the
            # children do not depend on the benchmark seed.  With an update
            # every 4 episodes one later child was 16 or 26 MB depending on
            # the data, and peak_rss_mb fell on one of two levels 100 MB apart.
            policy_batch=self.episodes,
            engine={"backend": "process", "num_workers": NPROC, "use_cache": True, "batch_episodes": 4},
            compute={"precision": "float32"},
            # The two-stage ladder of examples/specs/multi_fidelity.json.
            evaluation={
                "fidelities": [
                    {"name": "proxy", "epochs": 1, "data_fraction": 0.5, "promote_fraction": 0.5},
                    {"name": "full", "epochs": None, "data_fraction": 1.0, "promote_fraction": 0.5},
                ]
            },
        )


class SearchGated(SearchWorkload):
    """Raspberry Pi 4 at 1500 ms: the latency gate rejects (nearly) every child.

    A store pre-filled by the first half of the same search makes the
    measured search read the store for its first half and write it for the
    second; each measured search starts from a fresh copy of the pre-fill.
    """

    episodes = 128

    def spec(self, store_root: Optional[str] = None, run_dir: Optional[str] = None, episodes: Optional[int] = None) -> RunSpec:
        return search_spec(
            self.seed,
            episodes or self.episodes,
            image_size=10,
            width=0.25,
            child_epochs=1,
            pretrain_epochs=0,
            timing_constraint_ms=1500.0,
            engine={
                "backend": "serial",
                "use_cache": True,
                "store_root": store_root or self.template,
                "run_dir": run_dir or self.fresh_dir("setup-run"),
                "checkpoint_every": 16,
            },
        )

    def prepare(self) -> None:
        self.template = self.fresh_dir("prefill-store")
        run_search(lambda: self.spec(self.template, self.fresh_dir("prefill-run"), self.episodes // 2))

    def next_spec(self) -> Callable[[], RunSpec]:
        store = os.path.join(self.fresh_dir("store"), "objects")
        shutil.copytree(self.template, store)
        run_dir = self.fresh_dir("run")
        return lambda: self.spec(store, run_dir)

    def check_search(self, run: SearchRun, result: Pass) -> bool:
        hits = run.engine.cache.tier.hits if run.engine.cache and run.engine.cache.tier else 0
        result.notes["store_tier_hits"] = hits
        return result.check("pre-filled store served hits", hits > 0, f"{hits} tier hits")


# -- serving -------------------------------------------------------------------------
def request_rows(images: np.ndarray, seed: int, count: int) -> List[np.ndarray]:
    """``count`` requests of 1 or 8 validation images in a seeded order.

    Exactly ``MULTI_ROW_SHARE`` of them carry 8 rows, so the rows a request
    carries on average is the same for every seed.
    """
    rng = np.random.default_rng([seed, 7])
    sizes = np.where(np.arange(count) < round(count * MULTI_ROW_SHARE), 8, 1)
    return [images[rng.integers(0, images.shape[0], size=rows)] for rows in rng.permutation(sizes)]


def probe_children(path: str, part: int) -> Dict[str, Any]:
    """Time float32 ``Trainer.predict`` of the children pickled at ``path``.

    This process answers every PROBE_PROCESSES-th request, from ``part``
    on.  Requests of each size go to the children in turn, so every child
    answers the same number of 8-row requests whatever the seed's order;
    the p99 then always falls among the largest child's 8-row requests,
    where with plain turns it moved from run to run.  Weights are the
    children's initial ones: inference time does not depend on them.  A
    1-row and an 8-row predict on each child warm the buffers first.

    Each block of PROBE_BLOCK requests runs between two passes of the
    ``hostspeed.PREDICT`` reference, and its latencies are divided by the
    host's slowdown around it.
    """
    with open(path, "rb") as handle:
        inputs = pickle.load(handle)
    models = [
        descriptor.build(
            num_classes=inputs["num_classes"], width_multiplier=inputs["width_multiplier"], rng=0
        ).astype("float32")
        for descriptor in inputs["descriptors"]
    ]
    trainer = Trainer(TrainingConfig(batch_size=32, inference_batch_size=32))
    for model in models:
        for size in (1, 8):
            trainer.predict(model, inputs["images"][:size], batch_size=size)
    requests = request_rows(inputs["images"], inputs["seed"], PROBE_REQUESTS)
    seen: Dict[int, int] = {}
    child_of = []
    for rows in requests:
        seen[rows.shape[0]] = seen.get(rows.shape[0], 0) + 1
        child_of.append(seen[rows.shape[0]] % len(models))
    mine = list(range(part, len(requests), PROBE_PROCESSES))
    latencies: List[float] = []
    slowdowns: List[float] = []
    failed = rows_done = 0
    reference = hostspeed.PREDICT.seconds()
    for first in range(0, len(mine), PROBE_BLOCK):
        block = []
        for index in mine[first:first + PROBE_BLOCK]:
            rows = requests[index]
            start = time.perf_counter()
            predictions = trainer.predict(models[child_of[index]], rows, batch_size=rows.shape[0])
            block.append(time.perf_counter() - start)
            if predictions.shape != (rows.shape[0],):
                failed += 1
            else:
                rows_done += rows.shape[0]
        previous, reference = reference, hostspeed.PREDICT.seconds()
        slowdowns.append(hostspeed.PREDICT.slowdown(previous, reference))
        latencies.extend(took / slowdowns[-1] for took in block)
    return {"latencies_s": latencies, "rows": rows_done, "failed": failed, "slowdowns": slowdowns}


def promote_searched_child(spec: RunSpec, workdir: str, zoo_root: str, name: str) -> Tuple[List[float], List[float]]:
    """Run PROMOTION_SEARCHES searches through the run service, one after
    another, and promote the first one's best child.

    Returns each search's episodes/s, scaled by the host's slowdown while
    it ran (see :mod:`hostspeed`), and those slowdowns.
    """
    from repro.serving.registry import ZooRegistry
    from repro.service import RunClient

    runs_root = os.path.join(workdir, "promotion-runs")
    client = RunClient.local(runs_root=runs_root, max_workers=1)
    rates, slowdowns, run_ids = [], [], []

    def search() -> Tuple[Any, Any]:
        handle = client.submit(spec)
        return handle, handle.result(timeout=600)

    try:
        for _ in range(PROMOTION_SEARCHES):
            (handle, report), slowdown = hostspeed.SEARCH.on_host(search)
            rates.append(len(report.history.records) / report.history.total_seconds * slowdown)
            slowdowns.append(slowdown)
            run_ids.append(handle.run_id)
    finally:
        client.executor.shutdown(wait=True)
    ZooRegistry(zoo_root).promote_run(runs_root, run_ids[0], name=name)
    return rates, slowdowns


class ServeHttp:
    """Promote a searched child, serve it over HTTP, drive a closed loop."""

    model = "bench"
    predict_path = f"/models/{model}/predict"
    episodes = SearchTrain.episodes

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.service = None

    def prepare(self) -> None:
        """Untimed fixture: short float64 searches, then promotion of a best child.

        It runs in a child interpreter (``python3 -m workloads promote``),
        so the serving process's memory peak is the daemon's and not left
        over from the search.
        """
        from repro.serving.registry import ZooRegistry

        self.zoo_root = os.path.join(self.workdir, "zoo")
        spec = train_spec(self.seed, self.episodes)
        self.search_rates, self.search_slowdowns = json.loads(
            child("promote", spec.to_json(), self.workdir, self.zoo_root, self.model)
        )
        # Pooled as in SearchWorkload.measure: episodes are equal per search.
        self.search_rate = len(self.search_rates) / sum(1.0 / rate for rate in self.search_rates)

        model, _descriptor, _entry = ZooRegistry(self.zoo_root).load_model(self.model)
        model.astype("float32")
        trainer = Trainer(TrainingConfig(batch_size=32, inference_batch_size=32))
        images = spec.dataset.build().validation.images
        requests = []
        for rows in request_rows(images, self.seed, REQUEST_POOL):
            body = json.dumps({"inputs": rows.tolist()})
            expected = trainer.predict(model, rows, batch_size=rows.shape[0]).tolist()
            requests.append((body, rows.shape[0], expected))
        self.first_body = requests[0][0].encode("utf-8")
        self.job = os.path.join(self.workdir, "loadgen-job.json")
        with open(self.job, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "path": self.predict_path,
                    "connections": CONNECTIONS,
                    "healthz_per_connection": HEALTHZ_PER_CONNECTION,
                    "requests": requests,
                },
                handle,
            )

    # -- daemon lifecycle ----------------------------------------------------------------
    def _start(self):
        from repro.service.daemon import RunService

        runs_root = os.path.join(self.workdir, "daemon-runs")
        return RunService(runs_root=runs_root, zoo_root=self.zoo_root, quiet=True).start()

    def _connect(self):
        return http.client.HTTPConnection(self.service.host, self.service.port, timeout=60)

    def _setup_once(self) -> Tuple[int, bytes, float]:
        start = time.perf_counter()
        self.service = self._start()
        connection = self._connect()
        try:
            status, payload, _seconds, connection = loadgen.exchange(
                connection, "POST", self.predict_path, self.first_body
            )
        finally:
            connection.close()
        return status, payload, time.perf_counter() - start

    def setup(self) -> List[float]:
        """Daemon start + first predict (which loads the zoo entry), several
        times; each divided by the host's slowdown while it ran."""
        samples = []
        for index in range(SERVE_SETUPS):
            (status, payload, seconds_taken), slowdown = hostspeed.SEARCH.on_host(self._setup_once)
            samples.append(seconds_taken / slowdown)
            if status != 200:
                raise RuntimeError(f"first predict answered {status}: {payload[:200]!r}")
            if index < SERVE_SETUPS - 1:
                self.close()
        return samples

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    # -- the closed loop -----------------------------------------------------------------
    def closed_loop(self, seconds: float, result: Pass) -> None:
        """Run the load generator against the daemon for ``seconds``.

        The generator is a process of its own (``perfbench/loadgen.py``);
        its memory is left out of the peak, which is the daemon's.
        """
        command = [
            sys.executable, os.path.join(HERE, "loadgen.py"),
            self.job, self.service.host, str(self.service.port), repr(seconds),
        ]
        release_free_heap()
        with PeakRss() as rss:
            generator = subprocess.Popen(command, stdout=subprocess.PIPE)
            rss.skip.add(generator.pid)
            try:
                output, _ = generator.communicate(timeout=seconds + 2 * loadgen.CALIBRATION_TIMEOUT_S)
            finally:
                if generator.poll() is None:
                    generator.kill()
                    generator.wait()
        if generator.returncode != 0:
            raise RuntimeError(f"the load generator exited with code {generator.returncode}")
        loop = json.loads(output.decode("utf-8").strip().splitlines()[-1])
        recorder = tracing.active_recorder()
        if recorder is not None:
            for index, number, start, took in loop["records"]:
                recorder.tracer.record(
                    "client.request", start=start, duration=took, cat="client",
                    tid=f"client-{index}", request=f"connection{index}/request{number}",
                )
        flat = [took for _index, _number, _start, took in loop["records"]]
        calibration = loop["healthz_s"]
        result.metrics["predict_rows_per_s"] = loop["rows_ok"] / loop["wall_s"]
        result.metrics["predict_p50_ms"] = 1e3 * percentile(flat, 0.50)
        result.metrics["predict_p99_ms"] = 1e3 * percentile(flat, 0.99)
        result.metrics["peak_rss_mb"] = rss.megabytes
        result.attempted += len(flat) + len(calibration)
        result.failed += loop["failures"]
        result.check(
            "every request answered 200, predictions equal to direct Trainer.predict",
            loop["failures"] == 0,
            f"{loop['failures']} of {len(flat) + len(calibration)} requests failed; " + "; ".join(loop["errors"]),
        )
        result.notes.update(
            connections=CONNECTIONS,
            predict_samples=len(flat),
            healthz_samples=len(calibration),
            healthz_p50_ms=1e3 * percentile(calibration, 0.50),
        )
        result.serving["client_latencies_s"] = flat

    def measure(self, seconds: float) -> Pass:
        result = Pass()
        setups = self.setup()
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["episodes_per_s"] = self.search_rate
        result.notes.update(
            setup_samples=len(setups),
            episodes_per_s_source=f"pooled over the fixture's {PROMOTION_SEARCHES} searches",
            episodes_per_s_by_search=self.search_rates,
            host_slowdown_by_search=self.search_slowdowns,
        )
        self.closed_loop(seconds, result)
        return result

    def traced(self, untraced: Pass, seconds: float) -> Tuple[Pass, List[Dict[str, Any]]]:
        """The closed loop again, traced, on the daemon already serving."""
        recorder = tracing.Recorder()
        before = self._batch_totals()
        installation = tracing.Installation(recorder)
        try:
            result = Pass()
            result.metrics.update(setup_s=untraced.metrics["setup_s"], episodes_per_s=self.search_rate)
            self.closed_loop(seconds, result)
        finally:
            installation.close()
        after = self._batch_totals()
        batches = after[1] - before[1]
        result.serving["batch_rows_mean"] = (after[0] - before[0]) / batches if batches else 0.0
        return result, recorder.spans

    def _batch_totals(self) -> Tuple[float, int]:
        for row in self.service.model_server.models():
            stats = row.get("serving")
            if row["name"] == self.model and stats:
                return stats["mean_batch_size"] * stats["batches_total"], stats["batches_total"]
        return 0.0, 0


WORKLOADS = {
    "search-train": SearchTrain,
    "search-staged": SearchStaged,
    "search-gated": SearchGated,
    "serve-http": ServeHttp,
}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Tuple[Pass, Optional[Pass], List[Dict[str, Any]]]:
    """Fixtures, the untraced pass, and (with ``trace``) the traced pass."""
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    try:
        # A traced run spends half its time on each pass.
        untraced = workload.measure(seconds / 2 if trace else seconds)
        if not trace:
            return untraced, None, []
        traced, spans = workload.traced(untraced, seconds / 2)
        return untraced, traced, spans
    finally:
        workload.close()


if __name__ == "__main__":
    # The work that runs in a fresh interpreter (see ``child``):
    #   python3 -m workloads promote SPEC_JSON WORKDIR ZOO_ROOT NAME
    #   python3 -m workloads probe INPUTS_PICKLE PART
    if sys.argv[1] == "promote":
        spec_json, fixture_workdir, fixture_zoo, fixture_name = sys.argv[2:]
        print(json.dumps(promote_searched_child(RunSpec.from_json(spec_json), fixture_workdir, fixture_zoo, fixture_name)))
    else:
        print(json.dumps(probe_children(sys.argv[2], int(sys.argv[3]))))
