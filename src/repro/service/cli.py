"""``repro-search`` run-service subcommands: serve / submit / status / tail /
cancel / list / promote.

Every subcommand addresses runs either **through the daemon** (``--url``) or
**directly on a runs root** (``--runs-root``, the default ``runs``) -- the
registry is plain files, so status, tail, cancel and list work offline on
any run directory, including one produced by a daemon that has since exited.
``tail`` additionally accepts a run *directory path*, so any run that wrote
``telemetry.jsonl`` (service-managed or a plain ``engine.run_dir``) can be
followed with a live best-reward/episode progress line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Any, Dict, Iterator, Optional

from repro.engine.events import (
    CHECKPOINT_WRITTEN,
    CONSUMER_ERROR,
    EARLY_STOPPED,
    EPISODE_FINISHED,
    METRICS_UPDATED,
    RUN_CANCELLED,
    RUN_FINISHED,
    RUN_STARTED,
    EngineEvent,
)
from repro.service import registry as reg
from repro.service.events import tail_telemetry
from repro.service.registry import RunRegistry

DEFAULT_RUNS_ROOT = "runs"
DEFAULT_ZOO_ROOT = "zoo"
DEFAULT_PORT = 8023


# -- shared argument wiring ---------------------------------------------------------
def add_target_arguments(parser: argparse.ArgumentParser) -> None:
    """``--url`` (daemon) vs ``--runs-root`` (offline registry) selection."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--url",
        default=None,
        help="address of a repro-search serve daemon (e.g. http://127.0.0.1:8023)",
    )
    group.add_argument(
        "--runs-root",
        default=None,
        help=f"operate directly on this runs root (default: {DEFAULT_RUNS_ROOT!r})",
    )


def _remote(args: argparse.Namespace):
    from repro.service.remote import ServiceExecutor

    return ServiceExecutor(args.url)


def _registry(args: argparse.Namespace) -> RunRegistry:
    return RunRegistry(args.runs_root or DEFAULT_RUNS_ROOT)


# -- progress rendering --------------------------------------------------------------
class ProgressPrinter:
    """Turns an engine event stream into human progress lines.

    Tracks the running best reward so a tail shows search progress, not just
    raw telemetry.
    """

    def __init__(self) -> None:
        self.best_reward = float("-inf")
        self.episodes_done = 0

    def line(self, event: EngineEvent) -> Optional[str]:
        payload = event.payload
        if event.kind == RUN_STARTED:
            return (
                f"run started: {payload.get('episodes')} episodes "
                f"(from episode {payload.get('start_episode', 0)}, "
                f"backend={payload.get('backend')}, wave={payload.get('wave_size')})"
            )
        if event.kind == EPISODE_FINISHED:
            reward = float(payload.get("reward", float("nan")))
            self.best_reward = max(self.best_reward, reward)
            self.episodes_done += 1
            cached = " cache" if payload.get("cache_hit") else ""
            return (
                f"[ep {event.episode:>4}] reward={reward:+.4f} "
                f"best={self.best_reward:+.4f} "
                f"acc={float(payload.get('accuracy', 0.0)):.3f}"
                f"{cached}"
            )
        if event.kind == METRICS_UPDATED:
            elapsed = float(payload.get("elapsed_seconds", 0.0))
            eps = float(payload.get("episodes_per_second", 0.0))
            line = (
                f"progress: {payload.get('episodes_done')} episodes in "
                f"{elapsed:.1f}s ({eps:.2f} ep/s"
            )
            hit_rate = payload.get("cache_hit_rate")
            if hit_rate is not None:
                line += f", cache hit rate {float(hit_rate):.1%}"
            return line + ")"
        if event.kind == CHECKPOINT_WRITTEN:
            return f"checkpoint written (next episode {payload.get('next_episode')})"
        if event.kind == EARLY_STOPPED:
            return (
                f"early stop: reward plateaued since episode "
                f"{payload.get('best_episode')}"
            )
        if event.kind == RUN_CANCELLED:
            return (
                f"cancel honoured at episode {payload.get('episodes_done')} "
                f"of {payload.get('episodes')}"
            )
        if event.kind == CONSUMER_ERROR:
            return (
                f"warning: event consumer {payload.get('consumer')} failed: "
                f"{payload.get('error')}"
            )
        if event.kind == RUN_FINISHED:
            verdict = "cancelled" if payload.get("cancelled") else "finished"
            best = (
                f"best reward {self.best_reward:+.4f}"
                if self.episodes_done
                else "no episodes"
            )
            return (
                f"run {verdict}: {payload.get('episodes')} episodes recorded, "
                f"{payload.get('evaluations_run')} evaluations, "
                f"{payload.get('cache_hits')} cache hits, {best}"
            )
        return None


def print_progress(events: Iterator[EngineEvent]) -> int:
    """Stream progress lines to stdout; returns the episode count seen."""
    printer = ProgressPrinter()
    for event in events:
        line = printer.line(event)
        if line is not None:
            print(line, flush=True)
    return printer.episodes_done


def _print_status(status: Dict[str, Any]) -> None:
    print(json.dumps(status, indent=2, sort_keys=True))


def _status_row(status: Dict[str, Any]) -> str:
    best = status.get("best_reward")
    return (
        f"{status['run_id']:32s} {status['state']:9s} "
        f"{status.get('strategy') or '?':10s} "
        f"episodes={status.get('episodes_done') if status.get('episodes_done') is not None else '-'}"
        f"/{status.get('episodes', '-')} "
        f"best={'-' if best is None else f'{best:+.4f}'}"
    )


# -- subcommands ---------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.supervisor import FleetConfig
    from repro.service.daemon import RunService

    service = RunService(
        runs_root=args.runs_root or DEFAULT_RUNS_ROOT,
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        quiet=not args.verbose,
        zoo_root=args.zoo_root or DEFAULT_ZOO_ROOT,
        max_batch_size=args.max_batch_size,
        flush_ms=args.flush_ms,
        max_queue=args.max_queue,
        fleet=FleetConfig(
            heartbeat_interval=args.heartbeat_interval,
            lease_seconds=args.lease_seconds,
        ),
        store_root=args.store_root,
        store_max_bytes=(
            None
            if args.store_budget_mb is None
            else int(args.store_budget_mb * 1024 * 1024)
        ),
    )
    print(
        f"run service listening on {service.url} "
        f"(runs root {service.executor.registry.root}, "
        f"zoo root {service.model_server.zoo.root}, "
        f"store root {service.store.root}, "
        f"{args.workers} worker slot{'s' if args.workers != 1 else ''}, "
        f"serving batch<={args.max_batch_size} flush={args.flush_ms}ms)",
        flush=True,
    )
    stop = threading.Event()
    drain_requested = threading.Event()

    def _handle_sigint(signum, frame):  # noqa: ARG001
        stop.set()

    def _handle_sigterm(signum, frame):  # noqa: ARG001
        # SIGTERM (the orchestrator's polite kill) drains; SIGINT (an
        # operator's ctrl-C) still stops immediately.
        drain_requested.set()
        stop.set()

    signal.signal(signal.SIGINT, _handle_sigint)
    signal.signal(signal.SIGTERM, _handle_sigterm)
    service.start()
    try:
        while not stop.wait(timeout=0.5):
            pass
        if drain_requested.is_set():
            print(
                "draining: refusing new submissions, checkpointing in-flight "
                "runs, winding down fleet agents",
                flush=True,
            )
            checkpointed = service.drain(timeout=args.drain_timeout)
            for run_id in checkpointed:
                print(f"drained run {run_id} (resumable checkpoint)", flush=True)
            print("drain complete", flush=True)
    finally:
        service.shutdown()
        print("run service stopped", flush=True)
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    """Run one fleet worker agent against a serve daemon."""
    from repro.fleet.agent import WorkerAgent

    agent = WorkerAgent(
        args.url,
        name=args.name,
        timeout=args.timeout,
        register_timeout=args.register_timeout,
        daemon_timeout=args.daemon_timeout,
    )

    def _handle_signal(signum, frame):  # noqa: ARG001
        agent.stop()

    signal.signal(signal.SIGINT, _handle_signal)
    signal.signal(signal.SIGTERM, _handle_signal)
    print(f"worker agent joining fleet at {args.url}", flush=True)
    code = agent.run()
    if code != 0:
        print(
            f"error: no daemon reachable at {args.url} within "
            f"{args.register_timeout}s",
            file=sys.stderr,
        )
        return code
    if agent.draining:
        reason = "daemon draining"
    elif agent.lost_daemon:
        reason = "daemon unreachable"
    else:
        reason = "stopped"
    print(
        f"agent {agent.name or '?'} exiting ({reason}): "
        f"{agent.tasks_done} task(s) completed",
        flush=True,
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.spec import RunSpec
    from repro.service.client import RunClient

    spec = RunSpec.from_file(args.spec)
    if args.url:
        client = RunClient.connect(args.url)
    else:
        # No daemon: execute in this process against the runs root.  The
        # submission would die with the process, so waiting is implied.
        client = RunClient.local(
            runs_root=args.runs_root or DEFAULT_RUNS_ROOT, max_workers=1
        )
        if not (args.wait or args.follow):
            print(
                "note: no --url given; executing in-process and waiting "
                "(use repro-search serve for queued submissions)",
                file=sys.stderr,
            )
            args.wait = True
    handle = client.submit(spec)
    if args.quiet:
        print(handle.run_id)
    else:
        print(f"submitted run {handle.run_id} (strategy={spec.strategy}, "
              f"{spec.search.episodes} episodes)")
    if args.follow:
        print_progress(handle.events(follow=True))
    if args.wait or args.follow:
        from repro.service.errors import RunCancelled, RunFailed

        try:
            handle.result()
        except (RunCancelled, RunFailed) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if not args.quiet:
            status = handle.status()
            best = status.get("best_reward")
            print(
                f"run {handle.run_id} finished: "
                f"{status.get('episodes_done')} episodes, "
                f"best reward {'-' if best is None else format(best, '+.4f')}"
            )
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    if args.url:
        _print_status(_remote(args).status(args.run_id))
    else:
        _print_status(_registry(args).load_status(args.run_id))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    statuses = (
        _remote(args).list_runs() if args.url else _registry(args).list_statuses()
    )
    if not statuses:
        print("no runs")
    else:
        for status in statuses:
            print(_status_row(status))

    # Deployable zoo entries, so operators see what is promoted without
    # poking the filesystem.  Offline only: the registry is plain files.
    zoo_root = getattr(args, "zoo_root", None) or DEFAULT_ZOO_ROOT
    if not args.url and os.path.isdir(zoo_root):
        from repro.serving.registry import ZooRegistry

        entries = ZooRegistry(zoo_root).list_entries()
        if entries:
            print(f"\nzoo ({len(entries)} deployable "
                  f"model{'s' if len(entries) != 1 else ''}):")
            for entry in entries:
                print(f"  {entry.summary_row}")
    return 0


def cmd_promote(args: argparse.Namespace) -> int:
    """Promote the best child of a finished run into the model zoo."""
    if args.url:
        payload: Dict[str, Any] = {"run_id": args.run_id}
        if args.name:
            payload["name"] = args.name
        if args.episode is not None:
            payload["episode"] = args.episode
        from repro.service.remote import ServiceExecutor

        manifest = ServiceExecutor(args.url).promote(payload)
    else:
        from repro.serving.registry import ZooRegistry

        entry = ZooRegistry(args.zoo_root or DEFAULT_ZOO_ROOT).promote_run(
            _registry(args), args.run_id, name=args.name, episode=args.episode
        )
        manifest = entry.manifest
    print(
        f"promoted {manifest['source_run_id']} episode {manifest['episode']} -> "
        f"{manifest['name']}:{manifest['version']}"
    )
    print(
        f"  accuracy={manifest['accuracy']:.2%} "
        f"unfairness={manifest['unfairness']:.4f} "
        f"latency={manifest['latency_class']} "
        f"({manifest['reference_latency_ms']:.0f}ms on "
        f"{manifest['reference_device']})"
    )
    print(f"  weights blob {manifest['weights_blob']} (content-hash deduped)")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    if args.url:
        status = _remote(args).cancel(args.run_id)
    else:
        # Offline: the marker file reaches the executing process's
        # file-backed stop token through the shared filesystem.
        status = _registry(args).request_cancel(args.run_id)
    print(
        f"cancel requested for {args.run_id} "
        f"(state: {status['state']}); the engine stops at the next wave "
        "boundary and leaves a resumable checkpoint"
    )
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Tail a run's typed event stream -- daemon, registry or bare run dir."""
    if args.url:
        events = _remote(args).events(
            args.run, since=args.since, follow=args.follow
        )
        print_progress(events)
        return 0
    if os.path.isdir(args.run):
        telemetry = os.path.join(args.run, reg.TELEMETRY_JSONL)
    else:
        registry = _registry(args)
        if not os.path.isdir(registry.run_dir(args.run)):
            print(
                f"error: {args.run!r} is neither a run directory nor a run id "
                f"under {registry.root!r}",
                file=sys.stderr,
            )
            return 2
        telemetry = registry.telemetry_path(args.run)
    if not args.follow and not os.path.exists(telemetry):
        print(f"error: no telemetry stream at {telemetry!r}", file=sys.stderr)
        return 2
    episodes = print_progress(
        tail_telemetry(telemetry, since=args.since, follow=args.follow)
    )
    if episodes == 0 and args.since == 0:
        print("(no episodes in the telemetry stream)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export a run's spans as Chrome trace_event JSON (chrome://tracing)."""
    from repro.obs.trace_export import export_chrome_trace

    if os.path.isdir(args.run):
        run_dir = args.run
    else:
        registry = _registry(args)
        run_dir = registry.run_dir(args.run)
        if not os.path.isdir(run_dir):
            print(
                f"error: {args.run!r} is neither a run directory nor a run id "
                f"under {registry.root!r}",
                file=sys.stderr,
            )
            return 2
    try:
        summary = export_chrome_trace(run_dir, out_path=args.out)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"wrote {summary['path']} ({summary['spans']} spans across "
        f"{summary['threads']} timelines); open it in chrome://tracing "
        "or https://ui.perfetto.dev"
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a daemon's /metrics and run registry."""
    from repro.obs.top import run_top
    from repro.utils.http import HttpStatusError

    if not args.url:
        print(
            "error: top needs a daemon (--url http://HOST:PORT); it scrapes "
            "GET /metrics, which only repro-search serve exposes",
            file=sys.stderr,
        )
        return 2
    try:
        return run_top(
            args.url,
            interval=args.interval,
            iterations=1 if args.once else None,
            clear=not args.once,
        )
    except (OSError, HttpStatusError) as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2


# -- parser wiring -------------------------------------------------------------------
def add_service_subparsers(subparsers: argparse._SubParsersAction) -> None:
    """Attach the run-service subcommands to the ``repro-search`` parser."""
    serve = subparsers.add_parser(
        "serve", help="start the local run service daemon (HTTP, RunSpec JSON in)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT, help="bind port")
    serve.add_argument(
        "--runs-root",
        default=None,
        help=f"directory for run registries (default: {DEFAULT_RUNS_ROOT!r})",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="concurrent run slots (FIFO queue)"
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--zoo-root",
        default=None,
        help=f"model zoo directory served at /models (default: {DEFAULT_ZOO_ROOT!r})",
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="micro-batcher flushes once this many rows are queued",
    )
    serve.add_argument(
        "--flush-ms",
        type=float,
        default=5.0,
        help="micro-batcher flushes a partial batch after this many milliseconds",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="queued rows beyond this are rejected with HTTP 429",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="fleet agents heartbeat this often (seconds)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=15.0,
        help="unacknowledged fleet task leases expire after this long",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="SIGTERM drain waits this long for in-flight runs to checkpoint",
    )
    serve.add_argument(
        "--store-root",
        default=None,
        help="shared artifact-store directory (default: <runs-root>/_store)",
    )
    serve.add_argument(
        "--store-budget-mb",
        type=float,
        default=None,
        help="evict least-recently-used store objects beyond this many MiB",
    )

    agent = subparsers.add_parser(
        "agent", help="run a fleet worker agent against a serve daemon"
    )
    agent.add_argument(
        "--url",
        required=True,
        help="address of the repro-search serve daemon to join",
    )
    agent.add_argument(
        "--name", default=None, help="agent display name (default: generated)"
    )
    agent.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request HTTP timeout (seconds)",
    )
    agent.add_argument(
        "--register-timeout",
        type=float,
        default=30.0,
        help="give up if the daemon is unreachable for this long",
    )
    agent.add_argument(
        "--daemon-timeout",
        type=float,
        default=60.0,
        help="after joining, exit once the daemon has been continuously "
        "unreachable for this long",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a run spec to the service (or runs root)"
    )
    submit.add_argument("spec", help="path to a RunSpec JSON file")
    add_target_arguments(submit)
    submit.add_argument(
        "--wait", action="store_true", help="block until the run completes"
    )
    submit.add_argument(
        "--follow", action="store_true", help="stream progress while waiting"
    )
    submit.add_argument(
        "--quiet", action="store_true", help="print only the run id"
    )

    status = subparsers.add_parser("status", help="print one run's status JSON")
    status.add_argument("run_id", help="run id")
    add_target_arguments(status)

    tail = subparsers.add_parser(
        "tail",
        help="follow a run's telemetry as progress lines "
        "(run id, or any run directory with telemetry.jsonl)",
    )
    tail.add_argument("run", help="run id or run directory path")
    add_target_arguments(tail)
    tail.add_argument(
        "--follow", action="store_true", help="keep following until the run ends"
    )
    tail.add_argument(
        "--since", type=int, default=0, help="skip this many leading events"
    )

    cancel = subparsers.add_parser(
        "cancel", help="request cooperative cancellation of a run"
    )
    cancel.add_argument("run_id", help="run id")
    add_target_arguments(cancel)

    list_parser = subparsers.add_parser(
        "list", help="list known runs and promoted zoo models"
    )
    add_target_arguments(list_parser)
    list_parser.add_argument(
        "--zoo-root",
        default=None,
        help=f"model zoo directory to list (default: {DEFAULT_ZOO_ROOT!r})",
    )

    promote = subparsers.add_parser(
        "promote",
        help="promote the best child of a finished run into the model zoo",
    )
    promote.add_argument("run_id", help="finished run id")
    add_target_arguments(promote)
    promote.add_argument(
        "--zoo-root",
        default=None,
        help=f"model zoo directory (default: {DEFAULT_ZOO_ROOT!r})",
    )
    promote.add_argument(
        "--name",
        default=None,
        help="zoo model name (default: derived from the architecture descriptor)",
    )
    promote.add_argument(
        "--episode",
        type=int,
        default=None,
        help="promote this episode's child instead of the best-reward one",
    )

    trace = subparsers.add_parser(
        "trace",
        help="export a run's spans as Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    trace.add_argument("run", help="run id or run directory path")
    trace.add_argument(
        "--runs-root",
        default=None,
        help=f"resolve run ids against this runs root (default: {DEFAULT_RUNS_ROOT!r})",
    )
    trace.add_argument(
        "--out", default=None, help="output path (default: <run_dir>/trace.json)"
    )

    top = subparsers.add_parser(
        "top", help="live terminal dashboard over a serve daemon's /metrics"
    )
    top.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="daemon address to scrape",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between scrapes"
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )


SERVICE_COMMANDS = {
    "serve": cmd_serve,
    "agent": cmd_agent,
    "submit": cmd_submit,
    "status": cmd_status,
    "tail": cmd_tail,
    "cancel": cmd_cancel,
    "list": cmd_list,
    "promote": cmd_promote,
    "trace": cmd_trace,
    "top": cmd_top,
}
