"""The worker agent: ``repro-search agent --url <daemon>``.

A :class:`WorkerAgent` is one remote pair of hands.  It registers with the
daemon's fleet endpoints, heartbeats on the interval the supervisor dictates
(each beat reporting the task ids it is actively executing -- the link state
that keeps leases renewed), and otherwise loops pull-execute-complete:

* ``POST /agents/lease`` grants at most one task blob; the agent executes it
  with :func:`repro.fleet.pool.run_task` (exceptions become results) and
  reports back with ``POST /agents/complete``.
* A lease call is **not retried** (its response may have been dropped after
  the grant was recorded; the idle loop re-leases naturally and the orphaned
  grant expires on its deadline).  A complete **is retried** -- the
  supervisor fences duplicates, so resending is always safe.
* If the daemon forgets the agent (missed heartbeats while the link was
  down -> 404 ``unknown-agent``), it simply re-registers under a fresh id;
  its old leases have already been reassigned.
* When the daemon drains, heartbeat/lease responses carry ``draining`` --
  the agent finishes its current task and exits cleanly.  A daemon that
  vanishes outright (no drain, just silence) is given ``daemon_timeout``
  seconds of continuous unreachability before the agent gives it up for
  dead and exits on its own.

All calls run through the shared :class:`~repro.utils.http.HttpClient`
and its :class:`~repro.utils.http.RetryPolicy`, and every attempt first
consults an optional :class:`~repro.fleet.chaos.ChaosPolicy`, which is how
the tests and ``bench_fleet.py`` inject dropped messages, duplicate sends,
mid-task agent death (:class:`~repro.fleet.chaos.AgentKilled`) and stalled
heartbeats without touching any production code path.
"""

from __future__ import annotations

import base64
import threading
import time
from typing import Any, Dict, List, Optional

from repro.fleet.chaos import AgentKilled, ChaosPolicy
from repro.fleet.pool import run_task
from repro.fleet.supervisor import UnknownAgent
from repro.utils.http import HttpClient, HttpStatusError, RetryPolicy


class FleetClient(HttpClient):
    """The agent's HTTP client for the daemon's ``/agents/*`` endpoints.

    Chaos hooks wrap each attempt of the transport itself: a dropped call
    raises before any bytes leave the process, a duplicated call is sent
    twice back-to-back -- so fault injection exercises exactly the
    retry/fencing paths real network faults would.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
    ):
        super().__init__(base_url, timeout, retry)
        self.chaos = chaos

    def send(self, method: str, path: str, *args: Any) -> bytes:
        """One attempt, after the chaos verdict for it (drop/delay/duplicate)."""
        if self.chaos is None:
            return super().send(method, path, *args)
        verdict = self.chaos.on_send(path.rsplit("/", 1)[-1])
        if verdict.delay_seconds > 0:
            time.sleep(verdict.delay_seconds)
        verdict.raise_if_dropped()
        response = super().send(method, path, *args)
        if verdict.duplicated:
            try:
                super().send(method, path, *args)
            except Exception:
                pass  # the duplicate is injected noise, never load-bearing
        return response

    def _post(
        self, op: str, payload: Dict[str, Any], idempotent: bool
    ) -> Dict[str, Any]:
        try:
            return self.json("POST", f"/agents/{op}", payload, idempotent=idempotent)
        except HttpStatusError as error:
            if error.status == 404:
                raise UnknownAgent(str(payload.get("agent_id", "?"))) from None
            raise

    # -- the four protocol calls ----------------------------------------------------
    def register(self, name: Optional[str] = None) -> Dict[str, Any]:
        # Non-idempotent: a retried register would enroll a ghost agent the
        # supervisor must then time out; the agent's own loop retries instead.
        return self._post("register", {"name": name}, idempotent=False)

    def heartbeat(self, agent_id: str, active_tasks: List[str]) -> Dict[str, Any]:
        return self._post(
            "heartbeat",
            {"agent_id": agent_id, "active_tasks": active_tasks},
            idempotent=True,
        )

    def lease(self, agent_id: str) -> Optional[Dict[str, Any]]:
        # Non-idempotent: a grant whose response is lost must not be blindly
        # re-requested -- the supervisor expires the orphan on its deadline.
        response = self._post("lease", {"agent_id": agent_id}, idempotent=False)
        task = response.get("task")
        if task is None:
            return None
        task = dict(task)
        task["payload"] = base64.b64decode(task["payload"])
        task["draining"] = bool(response.get("draining", False))
        return task

    def complete(self, agent_id: str, task_id: str, result: bytes) -> bool:
        # Idempotent by fencing: a duplicate is rejected with accepted=false.
        response = self._post(
            "complete",
            {
                "agent_id": agent_id,
                "task_id": task_id,
                "result": base64.b64encode(result).decode("ascii"),
            },
            idempotent=True,
        )
        return bool(response.get("accepted"))


class WorkerAgent:
    """One fleet worker process (or thread, in the tests)."""

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        client: Optional[FleetClient] = None,
        chaos: Optional[ChaosPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 10.0,
        register_timeout: Optional[float] = 30.0,
        daemon_timeout: Optional[float] = 60.0,
    ):
        self.client = client or FleetClient(url, timeout=timeout, retry=retry, chaos=chaos)
        self.chaos = chaos
        self.requested_name = name
        self.register_timeout = register_timeout
        # Continuous unreachability after registration that makes the agent
        # give the daemon up for dead and exit (None: poll forever).
        self.daemon_timeout = daemon_timeout
        self.agent_id: Optional[str] = None
        self.name: Optional[str] = name
        self.tasks_started = 0
        self.tasks_done = 0
        self.killed = False
        self.lost_daemon = False
        self._last_contact = time.monotonic()
        self._heartbeat_interval = 2.0
        self._poll_interval = 0.2
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._active_lock = threading.Lock()
        self._active: List[str] = []

    # -- lifecycle ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped, drained, or chaos-killed; returns exit code."""
        try:
            self._register()
        except TimeoutError:
            return 1
        if self._stop.is_set():
            return 0
        beater = threading.Thread(
            target=self._heartbeat_loop, daemon=True, name="fleet-heartbeat"
        )
        beater.start()
        try:
            self._work_loop()
        except AgentKilled:
            # Simulated abrupt death: no deregistration, no completion, no
            # further heartbeats -- the supervisor must notice on its own.
            self.killed = True
        finally:
            self._stop.set()
            beater.join(timeout=self._heartbeat_interval * 2)
        return 0

    def stop(self) -> None:
        """Ask the agent to exit after its current task (thread-safe)."""
        self._stop.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- registration ---------------------------------------------------------------
    def _register(self) -> None:
        """Enroll with the daemon, waiting for it to come up if needed."""
        deadline = (
            None
            if self.register_timeout is None
            else time.monotonic() + self.register_timeout
        )
        while not self._stop.is_set():
            try:
                info = self.client.register(self.requested_name)
            except (HttpStatusError, OSError):  # any error status or no answer
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"no daemon at {self.client.base_url} within "
                        f"{self.register_timeout}s"
                    )
                time.sleep(0.2)
                continue
            self.agent_id = str(info["agent_id"])
            self.name = str(info.get("name") or self.agent_id)
            self._heartbeat_interval = float(
                info.get("heartbeat_interval", self._heartbeat_interval)
            )
            self._poll_interval = float(
                info.get("poll_interval", self._poll_interval)
            )
            if info.get("draining"):
                self._draining.set()
            with self._active_lock:
                self._active = []  # any prior leases are fenced off already
            self._last_contact = time.monotonic()
            return

    # -- heartbeats -----------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_interval):
            if self.chaos is not None and self.chaos.heartbeat_stalled():
                continue  # the beat is swallowed; the daemon hears nothing
            with self._active_lock:
                active = list(self._active)
            try:
                response = self.client.heartbeat(self.agent_id, active)
            except UnknownAgent:
                continue  # the work loop re-registers on its next lease
            except Exception:
                continue  # transient transport fault; the next beat retries
            self._last_contact = time.monotonic()
            if response.get("draining"):
                self._draining.set()

    # -- the work loop --------------------------------------------------------------
    def _work_loop(self) -> None:
        while not self._stop.is_set():
            if self._draining.is_set():
                return
            try:
                task = self.client.lease(self.agent_id)
            except UnknownAgent:
                try:
                    self._register()
                except TimeoutError:
                    self.lost_daemon = True
                    return
                continue
            except Exception:
                if self._daemon_lost():
                    return
                time.sleep(self._poll_interval)
                continue
            self._last_contact = time.monotonic()
            if task is None:
                time.sleep(self._poll_interval)
                continue
            if task.get("draining"):
                self._draining.set()
            ordinal = self.tasks_started
            self.tasks_started += 1
            if self.chaos is not None and self.chaos.should_die(ordinal):
                raise AgentKilled(
                    f"chaos: agent {self.name!r} died after leasing task "
                    f"#{ordinal} ({task['task_id']})"
                )
            self._execute(task)

    def _daemon_lost(self) -> bool:
        """True once the daemon has been unreachable past ``daemon_timeout``.

        Heartbeats and leases both refresh ``_last_contact``, so only a
        *continuously* dead link trips this -- a daemon restarting inside
        the window is ridden out by the poll loop.
        """
        if self.daemon_timeout is None:
            return False
        if time.monotonic() - self._last_contact <= self.daemon_timeout:
            return False
        self.lost_daemon = True
        return True

    def _execute(self, task: Dict[str, Any]) -> None:
        task_id = str(task["task_id"])
        with self._active_lock:
            self._active.append(task_id)
        try:
            result = run_task(task["payload"])
            try:
                self.client.complete(self.agent_id, task_id, result)
                self.tasks_done += 1
            except Exception:
                # The completion never landed; the lease expires and the
                # task is reassigned -- correctness is the supervisor's job.
                pass
        finally:
            with self._active_lock:
                if task_id in self._active:
                    self._active.remove(task_id)
