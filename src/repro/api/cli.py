"""``repro-search``: run a search from the command line.

Subcommands:

* ``run [spec.json] [overrides...]``  -- execute a run spec; every leaf of
  the spec schema is exposed as a generated override flag
  (``--search-episodes 20``, ``--engine-backend thread``, ``--strategy
  random``, boolean fields as ``--engine-use-cache/--no-engine-use-cache``);
  ``--resume`` continues from the checkpoint in ``engine.run_dir``; the
  first SIGINT or SIGTERM stops the run at the next wave boundary (exit
  130, checkpoint left for ``--resume``) and a second one ends it at once,
* ``validate spec.json``              -- parse, validate and print the
  canonical spec plus its cache key without running anything,
* ``strategies``                      -- list the registered strategies,
* ``serve`` / ``agent`` / ``submit`` / ``status`` / ``tail`` / ``cancel`` /
  ``list`` -- the run-service lifecycle (see :mod:`repro.service.cli`): a
  daemon accepting RunSpec JSON, fleet agents that run its episodes,
  non-blocking submissions addressed by run id, and typed event-stream
  tailing that also works offline on any run directory,
* ``promote``                         -- promote the best child of a
  finished run into the model zoo (:mod:`repro.serving`),
* ``trace`` / ``top``                 -- export a run's spans as Chrome
  trace_event JSON, and a live dashboard over a daemon's ``/metrics``
  (:mod:`repro.obs`).

The flags are generated from :func:`repro.api.spec.spec_schema`, so a new
spec field automatically becomes a CLI override.  ``python -m
repro.api.cli`` is the module form of the ``repro-search`` entry point.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from typing import Dict, List, Optional

from repro.api.registry import strategy_descriptions
from repro.api.run import run as run_spec
from repro.api.spec import RunSpec, spec_schema
from repro.engine.checkpoint import has_checkpoint
from repro.engine.engine import EngineConfig, StopToken
from repro.service.cli import SERVICE_COMMANDS, add_service_subparsers
from repro.service.errors import RunNotFound, RunNotReady, ServiceError


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Generate one override flag per spec-schema leaf (plus ``--strategy``)."""
    parser.add_argument(
        "--strategy",
        default=None,
        help="override the spec's strategy (see 'repro-search strategies')",
    )
    for leaf in spec_schema():
        if leaf.value_type is bool:
            parser.add_argument(
                leaf.flag,
                dest=f"override_{leaf.path}",
                action=argparse.BooleanOptionalAction,
                default=None,
                help=f"override {leaf.path} (default: {leaf.default})",
            )
        else:
            parser.add_argument(
                leaf.flag,
                dest=f"override_{leaf.path}",
                type=leaf.value_type,
                default=None,
                metavar=leaf.name.upper(),
                help=f"override {leaf.path} (default: {leaf.default!r})",
            )


def collect_overrides(args: argparse.Namespace) -> Dict[str, object]:
    """Dotted-path overrides from the parsed generated flags."""
    overrides: Dict[str, object] = {}
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    for leaf in spec_schema():
        value = getattr(args, f"override_{leaf.path}", None)
        if value is not None:
            overrides[leaf.path] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Declarative fairness- and hardware-aware NAS runs: "
        "one serializable RunSpec in, one unified report out.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="execute a run spec (with optional flag overrides)"
    )
    run_parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to a spec JSON file (omit to run the default spec)",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint in the spec's engine.run_dir",
    )
    add_spec_arguments(run_parser)
    # Short aliases for the generated --engine-store-* flags: pointing a run
    # at a shared artifact store is common enough to deserve first-class
    # spelling (they share the override dests, so either spelling wins).
    run_parser.add_argument(
        "--store-root",
        dest="override_engine.store_root",
        default=None,
        metavar="DIR",
        help="alias for --engine-store-root (local artifact-store directory)",
    )
    run_parser.add_argument(
        "--store-url",
        dest="override_engine.store_url",
        default=None,
        metavar="URL",
        help="alias for --engine-store-url (shared store daemon, "
        "e.g. http://127.0.0.1:8765)",
    )

    validate_parser = subparsers.add_parser(
        "validate", help="parse and validate a spec, print its canonical form"
    )
    validate_parser.add_argument("spec", help="path to a spec JSON file")
    validate_parser.add_argument(
        "--print-key",
        action="store_true",
        help="print only the spec's cache key and the resolved engine "
        "configuration (machine-readable JSON, nothing is executed) -- "
        "groundwork for cross-run cache sharing",
    )

    subparsers.add_parser("strategies", help="list the registered strategies")
    add_service_subparsers(subparsers)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec.from_file(args.spec) if args.spec else RunSpec().validate()
    overrides = collect_overrides(args)
    if overrides:
        spec = spec.with_overrides(values=overrides).validate()
    engine = spec.engine or EngineConfig()  # what run() will execute on
    if args.resume and (
        engine.run_dir is None or not has_checkpoint(engine.run_dir)
    ):
        print(
            "error: --resume needs engine.run_dir to hold a checkpoint",
            file=sys.stderr,
        )
        return 2

    print(
        f"spec: strategy={spec.strategy}, {spec.search.episodes} episodes, "
        f"backend={engine.backend} (workers={engine.num_workers}), "
        f"cache={'on' if engine.caches else 'off'}"
        + (f", run_dir={engine.run_dir}" if engine.run_dir else "")
    )
    stop_token = StopToken()

    def _request_stop(signum, frame):  # noqa: ARG001
        # The first signal asks for a stop at the next wave boundary, where
        # the engine checkpoints; a second one ends the process at once.
        for stop_signal in (signal.SIGINT, signal.SIGTERM):
            signal.signal(stop_signal, signal.SIG_DFL)
        stop_token.request()

    previous = {
        stop_signal: signal.signal(stop_signal, _request_stop)
        for stop_signal in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        report = run_spec(spec, resume=args.resume, stop_token=stop_token)
    finally:
        for stop_signal, handler in previous.items():
            signal.signal(stop_signal, handler)
    if report.resumed_from is not None:
        print(f"resumed from episode {report.resumed_from}")
    print("\n== search summary ==")
    print(report.summary())
    if report.spec_path is not None:
        print(f"\nresolved spec archived at {report.spec_path}")
    if report.best is not None:
        print("\n== best searched architecture ==")
        print(report.best.descriptor.describe())
    if report.cancelled:
        if report.spec_path is not None:
            hint = f"resume with: repro-search run {report.spec_path} --resume"
        else:
            hint = "no engine.run_dir, so there is no checkpoint to resume"
        print(
            f"stopped after {len(report.history)} episodes; {hint}",
            file=sys.stderr,
        )
        return 130
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = RunSpec.from_file(args.spec)
    if args.print_key:
        # The cache key fingerprints the computation (engine section
        # excluded), so two hosts can agree on shared cache entries without
        # running anything; the resolved engine config shows what the run
        # would execute with (the spec's section, else the defaults).
        payload = {
            "cache_key": spec.cache_key(),
            "engine": dataclasses.asdict(spec.engine or EngineConfig()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(spec.to_json())
    print(f"\ncache key: {spec.cache_key()}", file=sys.stderr)
    return 0


def _cmd_strategies() -> int:
    for name, description in strategy_descriptions().items():
        print(f"{name:10s} {description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "strategies":
            return _cmd_strategies()
        if args.command in SERVICE_COMMANDS:
            return SERVICE_COMMANDS[args.command](args)
    except (
        ValueError,
        FileNotFoundError,
        RunNotFound,
        RunNotReady,
        ServiceError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    return 2  # unreachable: argparse enforces a known command


if __name__ == "__main__":
    raise SystemExit(main())
