"""On-disk run registry: one directory per run under a runs root.

Layout (shared by the local executor, the HTTP daemon and the offline CLI)::

    <runs_root>/
      <run_id>/
        run_spec.json       resolved spec incl. the effective engine section
        status.json         lifecycle state (atomic writes)
        telemetry.jsonl     event stream (JsonlTelemetry)
        checkpoint.jsonl    engine checkpoint journal (resume / cancel-resume)
        checkpoint-<sha256>.state  controller weights and Adam moments it names
        report.json         RunReport.to_dict() once the run finished
        cancel.requested    marker file: out-of-process cancellation request

The registry is deliberately file-based: every consumer -- the daemon, a
`repro-search tail` in another terminal, a future multi-host scheduler --
coordinates through the filesystem, so no state is lost when the process
serving a run goes away.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.api.spec import RunSpec
from repro.service.errors import RunNotFound
from repro.utils.serialization import save_json

RUN_SPEC_JSON = "run_spec.json"
STATUS_JSON = "status.json"
REPORT_JSON = "report.json"
TELEMETRY_JSONL = "telemetry.jsonl"
CANCEL_MARKER = "cancel.requested"

# Lifecycle states of a run.
QUEUED = "queued"
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = (FINISHED, FAILED, CANCELLED)


def new_run_id() -> str:
    """A sortable, collision-safe run id (UTC timestamp + random suffix)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def initial_status(run_id: str, spec: RunSpec, run_dir: str) -> Dict[str, Any]:
    """The queued-state status dict of a fresh submission.

    One schema for every registered run, so every status consumer (CLI rows,
    HTTP clients) sees the same keys.
    """
    return {
        "run_id": run_id,
        "state": QUEUED,
        "strategy": spec.strategy,
        "episodes": spec.search.episodes,
        "spec_cache_key": spec.cache_key(),
        "created_at": time.time(),
        "started_at": None,
        "finished_at": None,
        "episodes_done": None,
        "best_reward": None,
        "resumed_from": None,
        "error": None,
        "cancel_requested": False,
        "run_dir": run_dir,
    }


class RunRegistry:
    """Creates, reads and updates the per-run directories of one runs root."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths --------------------------------------------------------------------
    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    def spec_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), RUN_SPEC_JSON)

    def status_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), STATUS_JSON)

    def report_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), REPORT_JSON)

    def telemetry_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), TELEMETRY_JSONL)

    def cancel_path(self, run_id: str) -> str:
        return os.path.join(self.run_dir(run_id), CANCEL_MARKER)

    def exists(self, run_id: str) -> bool:
        return os.path.exists(self.status_path(run_id))

    # -- lifecycle ----------------------------------------------------------------
    def create(self, spec: RunSpec, run_id: Optional[str] = None) -> Dict[str, Any]:
        """Register a new run: write its spec and queued status; return status."""
        run_id = run_id or new_run_id()
        run_dir = self.run_dir(run_id)
        os.makedirs(run_dir, exist_ok=True)
        # The archived spec is resume-critical state: write it atomically so
        # a daemon killed mid-create never leaves a torn run_spec.json a
        # recovering successor would refuse to re-enqueue.
        save_json(self.spec_path(run_id), spec.to_dict())
        status = initial_status(run_id, spec, run_dir=run_dir)
        self.write_status(status)
        return status

    def write_status(self, status: Dict[str, Any]) -> None:
        """Atomically persist a status dict (readers never see a torn write)."""
        save_json(self.status_path(status["run_id"]), status)

    def load_status(self, run_id: str) -> Dict[str, Any]:
        path = self.status_path(run_id)
        if not os.path.exists(path):
            raise RunNotFound(run_id)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def update_status(self, run_id: str, **changes: Any) -> Dict[str, Any]:
        status = self.load_status(run_id)
        status.update(changes)
        self.write_status(status)
        return status

    def load_spec(self, run_id: str) -> RunSpec:
        if not os.path.exists(self.spec_path(run_id)):
            raise RunNotFound(run_id)
        return RunSpec.from_file(self.spec_path(run_id))

    def list_statuses(self) -> List[Dict[str, Any]]:
        """Every registered run's status, oldest submission first."""
        statuses = []
        for name in sorted(os.listdir(self.root)):
            if os.path.exists(os.path.join(self.root, name, STATUS_JSON)):
                statuses.append(self.load_status(name))
        statuses.sort(key=lambda status: (status.get("created_at") or 0.0))
        return statuses

    # -- cancellation -------------------------------------------------------------
    def request_cancel(self, run_id: str) -> Dict[str, Any]:
        """Drop the cancel marker (visible to the executing process's token)."""
        if not self.exists(run_id):
            raise RunNotFound(run_id)
        with open(self.cancel_path(run_id), "w", encoding="utf-8") as handle:
            handle.write(f"cancel requested at {time.time()}\n")
        return self.update_status(run_id, cancel_requested=True)

    def clear_cancel(self, run_id: str) -> None:
        """Remove a stale cancel request (called before a resume)."""
        try:
            os.remove(self.cancel_path(run_id))
        except FileNotFoundError:
            pass

    # -- report -------------------------------------------------------------------
    def save_report(self, run_id: str, report: Dict[str, Any]) -> str:
        path = self.report_path(run_id)
        save_json(path, report)
        return path

    def load_report(self, run_id: str) -> Optional[Dict[str, Any]]:
        path = self.report_path(run_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
