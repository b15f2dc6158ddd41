"""The sweep entry point and its deterministic merge.

:func:`run_sweep` has one serial and one parallel path (see
``docs/parallelism.md``):

* ``workers=1`` runs the tasks in-process, one after another -- the
  reference every parallel run is checked against;
* ``workers > 1`` drains a spool on a temporary directory, running each
  task in its own process, at most that many at once
  (:func:`repro.exec.spool.run_spool_sweep`), which owns retry, timeout
  and crash containment: a task that *raises* is a recorded failure, a
  task process that *dies* or wedges past its deadline has its task
  retried until the attempt budget is spent and then parked.

Merging is order-independent: outcomes are keyed by ``task.index`` and
re-assembled in derivation order, and every simulation build starts
from empty caches (:func:`repro.obs.caches.reset_caches`), which makes
each result a pure function of its task -- so :meth:`SweepOutcome.results_bytes` is
byte-identical between ``workers=1`` and ``workers=N`` runs.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.tasks import SweepTask
from repro.exec.worker import execute_task


@dataclass
class TaskOutcome:
    """The recorded result of one sweep task (success or failure)."""

    task: SweepTask
    ok: bool
    result: Any = None
    error: Optional[str] = None
    timeout: bool = False
    seconds: float = 0.0
    attempts: int = 1
    worker_pid: Optional[int] = None
    trace_path: Optional[str] = None
    parked: bool = False  # parallel runs: attempt budget exhausted

    def result_record(self) -> Dict[str, Any]:
        """The deterministic (execution-independent) merge record."""
        record: Dict[str, Any] = {
            "index": self.task.index,
            "experiment": self.task.experiment,
            "seed": self.task.seed,
            "repetition": self.task.repetition,
            "params": dict(self.task.params),
            "ok": self.ok,
        }
        if self.ok:
            record["result"] = self.result
        else:
            record["error"] = self.error
        return record

    def execution_record(self) -> Dict[str, Any]:
        """Timing/placement metadata (varies run to run; kept separate)."""
        record: Dict[str, Any] = {
            "index": self.task.index,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
        }
        if self.timeout:
            record["timeout"] = True
        if self.parked:
            record["parked"] = True
        if self.trace_path:
            record["trace_path"] = self.trace_path
        return record


@dataclass
class SweepOutcome:
    """A completed sweep: per-task outcomes plus execution metadata."""

    outcomes: List[TaskOutcome] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    spool: Optional[Dict[str, Any]] = None  # parallel runs: spool status scan

    def failed(self) -> List[TaskOutcome]:
        """Outcomes that did not produce a result."""
        return [o for o in self.outcomes if not o.ok]

    def parked(self) -> List[TaskOutcome]:
        """Outcomes that exhausted their attempt budget (degraded)."""
        return [o for o in self.outcomes if o.parked]

    def results_doc(self) -> Dict[str, Any]:
        """The deterministic merged document (schema ``repro.sweep/1``).

        Contains only data derived from the task list and the task
        results; wall-clock, pids and retry counts live in
        :meth:`execution_doc` so this document is byte-identical between
        serial and parallel runs of the same sweep.  A degraded
        parallel run adds a ``parked`` index list -- only when
        non-empty, so a clean run (every task completed) stays
        byte-identical to the uninterrupted serial document.
        """
        doc: Dict[str, Any] = {
            "schema": "repro.sweep/1",
            "tasks": [o.result_record() for o in self.outcomes],
        }
        parked = [o.task.index for o in self.parked()]
        if parked:
            doc["parked"] = parked
        return doc

    def results_bytes(self) -> bytes:
        """Canonical JSON serialisation of :meth:`results_doc`."""
        return (
            json.dumps(self.results_doc(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")

    def execution_doc(self) -> Dict[str, Any]:
        """Timings, placement and the interpreter: everything the results
        doc excludes.  Float sums can differ in the last bit between
        Python versions (3.12's ``sum()`` is compensated), so a results doc
        is reproducible byte for byte under the ``python`` recorded here.

        Degradation is first-class here: ``tasks_retried`` /
        ``attempts_total`` expose retry/requeue activity, and parallel
        runs attach the spool's ground-truth lifecycle scan
        (completed, pending and parked tasks, attempts, task processes
        that died or were killed as ``worker_restarts``) under ``spool``
        so operators see recovery work instead of inferring it from wall
        time.
        """
        doc: Dict[str, Any] = {
            "schema": "repro.sweep-execution/1",
            "python": platform.python_version(),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "tasks_total": len(self.outcomes),
            "tasks_failed": len(self.failed()),
            "tasks_retried": sum(1 for o in self.outcomes if o.attempts > 1),
            "tasks_parked": len(self.parked()),
            "attempts_total": sum(o.attempts for o in self.outcomes),
            "task_seconds_total": sum(o.seconds for o in self.outcomes),
            "tasks": [o.execution_record() for o in self.outcomes],
        }
        if self.spool is not None:
            doc["spool"] = dict(self.spool)
        return doc

    def write_run_dir(self, run_dir: str) -> Dict[str, str]:
        """Write ``sweep.json`` + ``execution.json`` into ``run_dir``.

        Per-task trace artifacts (when the sweep ran with a trace
        directory) already live there, written by the workers themselves;
        this collects the merged views alongside them.
        """
        os.makedirs(run_dir, exist_ok=True)
        paths = {
            "results": os.path.join(run_dir, "sweep.json"),
            "execution": os.path.join(run_dir, "execution.json"),
        }
        with open(paths["results"], "wb") as stream:
            stream.write(self.results_bytes())
        with open(paths["execution"], "w", encoding="utf-8") as stream:
            json.dump(self.execution_doc(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        return paths


def _outcome_from_payload(task: SweepTask, payload: Dict[str, Any],
                          attempts: int) -> TaskOutcome:
    return TaskOutcome(
        task=task,
        ok=payload["ok"],
        result=payload.get("result"),
        error=payload.get("error"),
        timeout=bool(payload.get("timeout")),
        seconds=payload.get("seconds", 0.0),
        attempts=attempts,
        worker_pid=payload.get("worker_pid"),
        trace_path=payload.get("trace_path"),
    )


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    max_attempts: int = 3,
    trace_dir: Optional[str] = None,
) -> SweepOutcome:
    """Execute ``tasks`` and merge the outcomes in derivation order.

    ``workers <= 1`` runs every task once, in-process (each simulation
    build starts cold, so the results document is identical either way):
    the reference ``--check-serial`` compares against.
    ``workers > 1`` is :func:`repro.exec.spool.run_spool_sweep` on a
    temporary spool directory: a task whose process crashed or wedged is
    retried until ``max_attempts`` is spent, then parked.
    """
    if workers > 1 and tasks:
        from repro.exec.spool import run_spool_sweep

        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as spool_dir:
            return run_spool_sweep(
                spool_dir, tasks, workers=workers,
                max_attempts=max_attempts,
                timeout_s=timeout_s, trace_dir=trace_dir,
            )
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    start = time.perf_counter()
    outcomes = [
        _outcome_from_payload(
            task, execute_task(task.spec(), timeout_s, trace_dir),
            attempts=1,
        )
        for task in tasks
    ]
    return SweepOutcome(outcomes=outcomes, workers=1,
                        wall_seconds=time.perf_counter() - start)

