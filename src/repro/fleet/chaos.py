"""Deterministic fault injection for the fleet: the chaos harness.

The supervision layer only earns trust if its failure paths are exercised on
every CI run, so faults are injected *deterministically*: a
:class:`ChaosPolicy` names exact call indices to drop/delay/duplicate and
exact task ordinals to die on, never a probability.  The same policy against
the same workload produces the same fault timeline, which is what lets the
chaos tests assert bit-for-bit result parity with an undisturbed run.

Faults modelled (all consumed by :class:`~repro.fleet.agent.WorkerAgent` and
its HTTP client):

* **drop** -- the request never reaches the daemon; the client sees a
  connection error (exercises :class:`~repro.utils.http.RetryPolicy`).
* **delay** -- the request is held for a fixed time before sending
  (exercises lease deadlines under slow links).
* **duplicate** -- the request is sent twice (exercises idempotent
  completion: the second ``complete`` must be rejected gracefully).
* **kill_on_task** -- the agent dies abruptly after *leasing* the n-th task
  but before completing it: heartbeats stop, the lease expires and the
  supervisor must reassign (the acceptance scenario).
* **stall_heartbeat_after** -- the agent keeps working but its heartbeats
  stop after n beats: the supervisor declares it dead and reassigns; the
  stale agent's eventual ``complete`` must be fenced off.

Counters are per operation name and start at zero, so ``drop={"lease": {0}}``
reads "drop the agent's first lease call".
"""

from __future__ import annotations

import threading
import urllib.error
from typing import Dict, Iterable, Optional, Set


class AgentKilled(Exception):
    """Raised inside a chaos-killed agent to simulate an abrupt process death."""


class DroppedMessage(urllib.error.URLError):
    """The injected transport fault: looks like a dropped connection."""

    def __init__(self, op: str, index: int):
        super().__init__(f"chaos: dropped {op!r} call #{index}")
        self.op = op
        self.index = index


class ChaosPolicy:
    """A deterministic fault schedule, shared by the tests and the benchmark.

    Thread-safe: the agent's heartbeat thread and main loop both consult the
    policy, so counters mutate under a lock.
    """

    def __init__(
        self,
        drop: Optional[Dict[str, Iterable[int]]] = None,
        delay: Optional[Dict[str, float]] = None,
        duplicate: Optional[Dict[str, Iterable[int]]] = None,
        kill_on_task: Optional[int] = None,
        stall_heartbeat_after: Optional[int] = None,
    ):
        self._lock = threading.Lock()
        self._drop: Dict[str, Set[int]] = {
            op: set(indices) for op, indices in (drop or {}).items()
        }
        self._delay: Dict[str, float] = dict(delay or {})
        self._duplicate: Dict[str, Set[int]] = {
            op: set(indices) for op, indices in (duplicate or {}).items()
        }
        self.kill_on_task = kill_on_task
        self.stall_heartbeat_after = stall_heartbeat_after
        self._op_counts: Dict[str, int] = {}
        self._heartbeats_seen = 0
        # Totals the tests/bench assert on.
        self.dropped = 0
        self.duplicated = 0
        self.kills = 0
        self.stalled_heartbeats = 0

    # -- transport hooks (called by the agent's HTTP client) -----------------------
    def on_send(self, op: str) -> "ChaosVerdict":
        """Account one outgoing call of ``op``; returns what to do with it."""
        with self._lock:
            index = self._op_counts.get(op, 0)
            self._op_counts[op] = index + 1
            dropped = index in self._drop.get(op, ())
            duplicated = index in self._duplicate.get(op, ())
            if dropped:
                self.dropped += 1
            if duplicated:
                self.duplicated += 1
            return ChaosVerdict(
                op=op,
                index=index,
                dropped=dropped,
                duplicated=duplicated,
                delay_seconds=self._delay.get(op, 0.0),
            )

    # -- lifecycle hooks (called by the agent itself) ------------------------------
    def should_die(self, tasks_started: int) -> bool:
        """True when the agent must die mid-task (after leasing task n)."""
        if self.kill_on_task is not None and tasks_started == self.kill_on_task:
            with self._lock:
                self.kills += 1
            return True
        return False

    def heartbeat_stalled(self) -> bool:
        """True once the heartbeat budget is spent; the beat is swallowed."""
        with self._lock:
            if self.stall_heartbeat_after is None:
                return False
            self._heartbeats_seen += 1
            if self._heartbeats_seen > self.stall_heartbeat_after:
                self.stalled_heartbeats += 1
                return True
            return False

    def calls(self, op: str) -> int:
        """How many ``op`` sends the policy has seen (for assertions)."""
        with self._lock:
            return self._op_counts.get(op, 0)


class ChaosVerdict:
    """The policy's decision for one outgoing call."""

    __slots__ = ("op", "index", "dropped", "duplicated", "delay_seconds")

    def __init__(
        self,
        op: str,
        index: int,
        dropped: bool,
        duplicated: bool,
        delay_seconds: float,
    ):
        self.op = op
        self.index = index
        self.dropped = dropped
        self.duplicated = duplicated
        self.delay_seconds = delay_seconds

    def raise_if_dropped(self) -> None:
        if self.dropped:
            raise DroppedMessage(self.op, self.index)
