"""The run lifecycle service: submit, watch, cancel and resume runs by id.

* :mod:`repro.service.client`   -- :class:`RunClient` / :class:`RunHandle`
  and the :class:`Executor` backend protocol,
* :mod:`repro.service.local`    -- :class:`LocalExecutor`: worker-thread
  execution, bounded worker slots, on-disk run registry,
* :mod:`repro.service.remote`   -- :class:`ServiceExecutor`: the HTTP client
  for a ``repro-search serve`` daemon,
* :mod:`repro.service.daemon`   -- :class:`RunService`: the stdlib HTTP
  daemon itself,
* :mod:`repro.service.registry` -- the ``runs/<run_id>/`` directory layout,
* :mod:`repro.service.events`   -- typed, replayable event streams
  (:class:`EventLog` live, :func:`tail_telemetry` from ``telemetry.jsonl``),
* :mod:`repro.service.cli`      -- the ``repro-search`` serve/submit/status/
  tail/cancel/list subcommands.

``repro.run(spec)`` executes the same code synchronously in the caller's
thread; this API adds run ids, a registry and non-blocking submission.
"""

from repro.service.client import Executor, RunClient, RunHandle
from repro.service.errors import (
    RunCancelled,
    RunFailed,
    RunNotFound,
    RunNotReady,
    ServiceError,
)
from repro.service.events import EventLog, tail_telemetry
from repro.service.local import LocalExecutor
from repro.service.registry import RunRegistry

__all__ = [
    "Executor",
    "RunClient",
    "RunHandle",
    "RunCancelled",
    "RunFailed",
    "RunNotFound",
    "RunNotReady",
    "ServiceError",
    "EventLog",
    "tail_telemetry",
    "LocalExecutor",
    "RunRegistry",
]
