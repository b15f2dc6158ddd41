"""Durable, crash-resumable sweep execution over a filesystem spool.

This is the one parallel sweep executor: :func:`repro.exec.run_sweep`
with ``workers > 1`` is :func:`run_spool_sweep` on a temporary directory.
Every task, attempt count and result is a file in a *spool directory*,
written with atomic primitives, so a ``kill -9`` of the coordinator or of
a task process at any instant leaves the spool recoverable and
``run_spool_sweep(..., resume=True)`` picks up exactly where the dead run
stopped.

Spool layout (on-disk schema ``repro.sweep-spool/2``)::

    SPOOL/
      manifest.json          # written last at init: task count + fingerprint
      tasks/task-00000.json  # one immutable task spec per file
      state/task-00000.json  # attempts so far (written by the coordinator)
      results/task-00000.json# the task payload, atomically renamed in
      parked/task-00000.json # exhausted the retry budget; recorded, not fatal

Every file is written to a temp file and ``os.replace``d into place, so a
reader never observes a partial document.

Liveness is process supervision.  The coordinator runs each task in its
own child process, at most ``workers`` at once, and is the only writer of
the attempt counts: it bumps a task's count *before* dispatching it, so
the counts carry across a killed coordinator and ``--resume``.  A child
that crashes, exits without a result, times out, or is SIGKILLed at the
hard deadline ``2 x timeout_s + 5 s`` costs its task one attempt; the task
is retried at once until ``max_attempts`` is spent, then *parked* --
graceful degradation, recorded in the merged document instead of
aborting the run.

Results are pure functions of the task spec, so a duplicated execution is
benign: a task re-run by a second ``--resume``, or by an orphaned child of
a killed coordinator, publishes the identical payload.
:func:`spool_status` counts the result and parked files, which are the
ground truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.engine import SweepOutcome, TaskOutcome, \
    _outcome_from_payload
from repro.exec.tasks import SweepTask
from repro.exec.worker import execute_task, preserved_process_state
from repro.obs.export import write_atomic

SPOOL_SCHEMA = "repro.sweep-spool/2"

_DIRS = ("tasks", "state", "results", "parked")

# Seconds between the coordinator's hard-deadline checks while it waits
# for a task process to exit.
POLL_S = 0.2

# Exit status of a task process whose in-process alarm fired (the
# convention of coreutils ``timeout``).
_TIMEOUT_EXIT = 124


class SpoolError(RuntimeError):
    """A spool directory is missing, mismatched, or already in use."""


# ------------------------------------------------------------------- paths


def _manifest_path(spool_dir: str) -> str:
    return os.path.join(spool_dir, "manifest.json")


def _entry_path(spool_dir: str, kind: str, index: int) -> str:
    return os.path.join(spool_dir, kind, f"task-{index:05d}.json")


def _publish(path: str, payload: Dict[str, Any]) -> None:
    """Publish ``payload`` as JSON at ``path`` (:func:`write_atomic`)."""
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Load a spool JSON file; ``None`` when absent or unreadable."""
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, ValueError):
        return None


def _index_set(spool_dir: str, kind: str) -> set:
    try:
        names = os.listdir(os.path.join(spool_dir, kind))
    except FileNotFoundError:
        return set()
    return {
        int(n[len("task-"):-len(".json")]) for n in names
        if n.startswith("task-") and n.endswith(".json")
    }


# -------------------------------------------------------------- init / load


def task_fingerprint(tasks: Sequence[SweepTask]) -> str:
    """Content hash of the deterministic task list.

    Stored in the manifest and checked on resume, so a spool can never be
    silently continued with a different sweep definition.
    """
    canonical = json.dumps([t.spec() for t in tasks], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def init_spool(
    spool_dir: str,
    tasks: Sequence[SweepTask],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Create a spool directory and publish every task spec into it.

    The manifest is written *last*: its presence marks a fully initialised
    spool, so an init interrupted mid-way is indistinguishable from no
    spool at all and is simply re-run.
    """
    if not tasks:
        raise ValueError("cannot spool an empty task list")
    if os.path.exists(_manifest_path(spool_dir)):
        raise SpoolError(
            f"spool {spool_dir!r} already initialised; pass resume=True"
            " to continue it"
        )
    for sub in _DIRS:
        os.makedirs(os.path.join(spool_dir, sub), exist_ok=True)
    for task in tasks:
        _publish(_entry_path(spool_dir, "tasks", task.index), task.spec())
    manifest = {
        "schema": SPOOL_SCHEMA,
        "created_unix": int(time.time()),
        "tasks_total": len(tasks),
        "fingerprint": task_fingerprint(tasks),
        "meta": dict(meta or {}),
    }
    _publish(_manifest_path(spool_dir), manifest)
    return manifest


def load_manifest(spool_dir: str) -> Dict[str, Any]:
    """Read the manifest; raises :class:`SpoolError` when absent or when
    it names another schema (a ``repro.sweep-spool/1`` spool kept leases
    this executor no longer reads)."""
    manifest = _read_json(_manifest_path(spool_dir))
    if manifest is None:
        raise SpoolError(f"no spool manifest in {spool_dir!r}")
    if manifest.get("schema") != SPOOL_SCHEMA:
        raise SpoolError(
            f"unexpected spool schema {manifest.get('schema')!r}"
            f" (want {SPOOL_SCHEMA})"
        )
    return manifest


def load_tasks(spool_dir: str) -> List[SweepTask]:
    """Rebuild the task list from the spooled specs, in index order."""
    manifest = load_manifest(spool_dir)
    tasks: List[SweepTask] = []
    for index in range(manifest["tasks_total"]):
        spec = _read_json(_entry_path(spool_dir, "tasks", index))
        if spec is None:
            raise SpoolError(f"spool task file missing for index {index}")
        tasks.append(SweepTask(
            index=spec["index"], experiment=spec["experiment"],
            seed=spec["seed"], repetition=spec["repetition"],
            params=spec["params"],
        ))
    return tasks


# -------------------------------------------------------- attempts / park


def _attempts(spool_dir: str, index: int) -> int:
    state = _read_json(_entry_path(spool_dir, "state", index))
    return state["attempts"] if state else 0


def _count_attempt(spool_dir: str, index: int) -> int:
    """Record one more attempt of task ``index`` before it is dispatched;
    returns the new count."""
    attempts = _attempts(spool_dir, index) + 1
    _publish(_entry_path(spool_dir, "state", index), {"attempts": attempts})
    return attempts


def _retry_or_park(spool_dir: str, index: int, attempts: int,
                   max_attempts: int, error: str, timeout: bool) -> bool:
    """After a failed attempt: ``True`` to run the task again; once its
    budget is spent, record the task as parked and return ``False``."""
    if attempts < max_attempts:
        return True
    _publish(_entry_path(spool_dir, "parked", index), {
        "index": index, "attempts": attempts, "error": error,
        "timeout": timeout, "parked_unix": time.time(),
    })
    return False


# -------------------------------------------------------------- execution


def _run_task(spool_dir: str, index: int, timeout_s: Optional[float],
              trace_dir: Optional[str]) -> Dict[str, Any]:
    """Execute task ``index`` in this process and return its payload.

    An experiment *exception* is a recorded failure, published as the
    result (rerunning a deterministic bug buys nothing); a *timeout*
    publishes nothing, so it costs the task an attempt like a crash does.
    """
    spec = _read_json(_entry_path(spool_dir, "tasks", index))
    if spec is None:
        raise SpoolError(f"spool task file missing for index {index}")
    payload = execute_task(spec, timeout_s, trace_dir)
    if not payload.get("timeout"):
        _publish(_entry_path(spool_dir, "results", index), payload)
    return payload


def _task_process(spool_dir: str, index: int, timeout_s: Optional[float],
                  trace_dir: Optional[str]) -> None:
    """A task process's body: run one task, exit 124 if it timed out."""
    if _run_task(spool_dir, index, timeout_s, trace_dir).get("timeout"):
        sys.exit(_TIMEOUT_EXIT)


def _drain_in_process(spool_dir: str, pending: Sequence[int],
                      max_attempts: int, timeout_s: Optional[float],
                      trace_dir: Optional[str]) -> None:
    """Run the pending tasks one after another in this process."""
    with preserved_process_state():
        for index in pending:
            retry = True
            while retry:
                attempts = _count_attempt(spool_dir, index)
                payload = _run_task(spool_dir, index, timeout_s, trace_dir)
                retry = bool(payload.get("timeout")) and _retry_or_park(
                    spool_dir, index, attempts, max_attempts,
                    payload["error"], timeout=True)


def _supervise(spool_dir: str, pending: Sequence[int], workers: int,
               max_attempts: int, timeout_s: Optional[float],
               trace_dir: Optional[str]) -> int:
    """Run each pending task in its own child process, at most ``workers``
    at once; returns how many task processes died or were killed.

    A child that ends without publishing a result -- it crashed, its
    alarm fired, or it was SIGKILLed past the hard deadline (a timeout
    too) -- costs its task one attempt, and the task is dispatched again
    at once while its budget lasts.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait as wait_for_exit

    from repro.sketch.gf import default_field

    # The field's log/exp tables (about 30 ms to build) are pure, so
    # reset_worker_state keeps them: build them once here, and every
    # forked task process inherits them.
    default_field()
    ctx = mp.get_context()
    hard_deadline_s = None if timeout_s is None else 2.0 * timeout_s + 5.0
    queue = deque(pending)
    # index -> (process, its attempt number, monotonic start)
    running: Dict[int, Tuple[Any, int, float]] = {}
    died = 0
    try:
        while queue or running:
            while queue and len(running) < workers:
                index = queue.popleft()
                attempts = _count_attempt(spool_dir, index)
                # Not a daemon: daemonic processes cannot have children,
                # and a task may run a parallel sweep of its own.
                proc = ctx.Process(target=_task_process, args=(
                    spool_dir, index, timeout_s, trace_dir))
                proc.start()
                running[index] = (proc, attempts, time.monotonic())
            wait_for_exit([proc.sentinel for proc, _, _ in running.values()],
                          timeout=POLL_S)
            for index, (proc, attempts, started) in list(running.items()):
                killed = False
                if proc.is_alive():
                    if hard_deadline_s is None or \
                            time.monotonic() - started <= hard_deadline_s:
                        continue
                    proc.kill()
                    killed = True
                proc.join()
                del running[index]
                if os.path.exists(_entry_path(spool_dir, "results", index)):
                    continue
                if killed:
                    died += 1
                    error = (f"task exceeded hard deadline"
                             f" ({hard_deadline_s:.1f}s); task process killed")
                    timeout = True
                elif proc.exitcode == _TIMEOUT_EXIT:
                    error = f"task {index} exceeded timeout_s={timeout_s:g}"
                    timeout = True
                else:
                    died += 1
                    error = (f"task process crashed"
                             f" (exit code {proc.exitcode})"
                             if proc.exitcode else
                             "task process exited without a result")
                    timeout = False
                if _retry_or_park(spool_dir, index, attempts, max_attempts,
                                  error, timeout):
                    queue.appendleft(index)
    finally:
        # Only an exception (an interrupt) leaves children behind; their
        # attempts are counted, and a resume runs the tasks again.
        for proc, _, _ in running.values():
            proc.kill()
            proc.join()
    return died


# ------------------------------------------------------------------ status


def spool_status(spool_dir: str) -> Dict[str, int]:
    """Ground-truth progress scan: totals straight from the files."""
    total = load_manifest(spool_dir)["tasks_total"]
    results = _index_set(spool_dir, "results")
    parked = _index_set(spool_dir, "parked") - results
    return {
        "tasks_total": total,
        "completed": len(results),
        "parked": len(parked),
        "pending": total - len(results) - len(parked),
        "attempts": sum(_attempts(spool_dir, i) for i in range(total)),
    }


def spool_watch_rows(status: Dict[str, int]) -> List[Tuple[str, Any]]:
    """``(field, value)`` table rows of one :func:`spool_status` scan."""
    total = status.get("tasks_total", 0) or 0
    completed = status.get("completed", 0)
    fraction = f"  ({completed / total:.0%})" if total else ""
    return [
        ("tasks total", total),
        ("completed", f"{completed}{fraction}"),
        ("pending", status.get("pending", 0)),
        ("parked (gave up)", status.get("parked", 0)),
        ("attempts", status.get("attempts", 0)),
    ]


def spool_is_finished(status: Dict[str, int]) -> bool:
    """Whether every spool task is either completed or parked."""
    return status.get("pending", 1) <= 0


# ------------------------------------------------------- collect / resume


def collect_outcomes(
    spool_dir: str,
    tasks: Optional[Sequence[SweepTask]] = None,
) -> SweepOutcome:
    """Merge the spool's results into a :class:`SweepOutcome`.

    Completed tasks reproduce the exact payload a serial
    :func:`repro.exec.run_sweep` produces, so a fully drained spool merges
    byte-identically to the uninterrupted serial run.  Parked tasks become
    recorded failures flagged ``parked`` (surfacing in the document's
    ``parked`` index list); tasks with neither file are reported as
    unfinished -- visible, never silently dropped.
    """
    if tasks is None:
        tasks = load_tasks(spool_dir)
    outcomes: List[TaskOutcome] = []
    for task in tasks:
        attempts = _attempts(spool_dir, task.index)
        payload = _read_json(_entry_path(spool_dir, "results", task.index))
        if payload is not None:
            outcomes.append(
                _outcome_from_payload(task, payload, max(1, attempts)))
            continue
        parked = _read_json(_entry_path(spool_dir, "parked", task.index))
        if parked is not None:
            outcomes.append(TaskOutcome(
                task=task, ok=False,
                error=f"parked after {parked['attempts']} attempt(s):"
                      f" {parked['error']}",
                timeout=bool(parked.get("timeout")),
                attempts=parked["attempts"], parked=True,
            ))
            continue
        outcomes.append(TaskOutcome(
            task=task, ok=False,
            error="unfinished: no result in spool (interrupted run;"
                  " resume to complete)",
            attempts=attempts,
        ))
    return SweepOutcome(outcomes=outcomes, workers=1,
                        spool=spool_status(spool_dir))


def run_spool_sweep(
    spool_dir: str,
    tasks: Optional[Sequence[SweepTask]] = None,
    workers: int = 1,
    max_attempts: int = 3,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> SweepOutcome:
    """Initialise (or resume) a spool, drain it, and merge the outcomes.

    Fresh runs require ``tasks`` and refuse an already-initialised spool;
    ``resume=True`` requires the manifest and -- when ``tasks`` is given --
    verifies the fingerprint, so a spool can never silently continue a
    different sweep.  Task indices with a result or a parked marker are
    skipped on resume; only the remainder executes, and the merged
    document is byte-identical to an uninterrupted serial run of the same
    task list.

    ``workers <= 1`` runs the tasks in-process (with the same global-state
    save/restore the serial sweep applies); ``workers > 1`` runs each task
    in its own child process, at most ``workers`` at once
    (:func:`_supervise`).  A task process killed mid-task takes nothing
    down with it: its task is dispatched again at once, and each failed
    attempt consumes one of its ``max_attempts``, so a deterministic
    crasher ends up parked and the sweep still terminates.
    """
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    start = time.perf_counter()
    if resume:
        if not os.path.exists(_manifest_path(spool_dir)):
            raise SpoolError(f"nothing to resume: no manifest in {spool_dir!r}")
        manifest = load_manifest(spool_dir)
        if tasks is None:
            tasks = load_tasks(spool_dir)
        elif manifest["fingerprint"] != task_fingerprint(tasks):
            raise SpoolError(
                "resume refused: the spool manifest fingerprint does not"
                " match the derived task list"
            )
    elif tasks is None:
        raise ValueError("a fresh spool run needs the task list")
    else:
        init_spool(spool_dir, tasks, meta=meta)  # refuses an existing spool

    done = _index_set(spool_dir, "results") | _index_set(spool_dir, "parked")
    pending = [task.index for task in tasks if task.index not in done]
    died = 0
    if workers <= 1:
        _drain_in_process(spool_dir, pending, max_attempts, timeout_s,
                          trace_dir)
    else:
        died = _supervise(spool_dir, pending, workers, max_attempts,
                          timeout_s, trace_dir)

    outcome = collect_outcomes(spool_dir, tasks)
    outcome.workers = max(1, workers)
    outcome.wall_seconds = time.perf_counter() - start
    outcome.spool["worker_restarts"] = died
    return outcome
