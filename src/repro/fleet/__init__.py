"""repro.fleet: the supervised multi-host worker fabric.

One daemon, many agents, no shared memory -- just leases, heartbeats and a
deterministic reassignment discipline that keeps a distributed wave
bit-for-bit equal to a local run.  The package splits along trust lines:

* :mod:`repro.fleet.supervisor` -- daemon-side truth: agent registry, lease
  tables, dead-agent detection, reassignment, stale-completion fencing.
* :mod:`repro.fleet.pool` -- :class:`RemoteWorkerPool`, the
  ``map_ordered`` backend the engine sees (``EngineConfig(backend="fleet")``).
* :mod:`repro.fleet.agent` -- the remote worker process behind
  ``repro-search agent``; its calls retry on the shared deterministic
  :class:`RetryPolicy` of :mod:`repro.utils.http` (re-exported here).
* :mod:`repro.fleet.chaos` -- deterministic fault injection for the tests
  and ``bench_fleet.py``.

Importing the package registers the ``"fleet"`` worker backend; the engine
also lazy-imports it on first use, so a RunSpec naming ``backend: fleet``
validates without any caller importing this module first.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine import workers as _workers
from repro.fleet.agent import FleetClient, WorkerAgent
from repro.fleet.chaos import AgentKilled, ChaosPolicy, ChaosVerdict, DroppedMessage
from repro.fleet.pool import (
    RemoteWorkerPool,
    install_supervisor,
    installed_supervisor,
)
from repro.fleet.supervisor import FleetConfig, FleetSupervisor, UnknownAgent
from repro.utils.http import RetryPolicy

__all__ = [
    "AgentKilled",
    "ChaosPolicy",
    "ChaosVerdict",
    "DroppedMessage",
    "FleetClient",
    "FleetConfig",
    "FleetSupervisor",
    "RemoteWorkerPool",
    "RetryPolicy",
    "UnknownAgent",
    "WorkerAgent",
    "install_supervisor",
    "installed_supervisor",
]


def _fleet_pool(
    num_workers: int = 2,
    shared: Any = None,
    blas_threads: Optional[int] = None,
    metrics: Any = None,
    events: Optional[Callable] = None,
) -> RemoteWorkerPool:
    # ``shared``/``blas_threads`` are process-backend concerns; agents run in
    # their own processes and pin their own BLAS threads.
    return RemoteWorkerPool(num_workers=num_workers, metrics=metrics, events=events)


_workers.register_backend("fleet", _fleet_pool)
