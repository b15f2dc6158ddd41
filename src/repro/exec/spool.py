"""Durable, crash-resumable sweep execution over a filesystem spool.

This is the one parallel sweep executor: :func:`repro.exec.run_sweep`
with ``workers > 1`` is :func:`run_spool_sweep` on a temporary directory.
Every task, claim and result is a file in a *spool directory*, written
with atomic primitives, so a ``kill -9`` of any participant -- worker or
coordinator -- at any instant leaves the spool recoverable and
``run_spool_sweep(..., resume=True)`` picks up exactly where the dead run
stopped.  Because the spool is just a directory, several hosts pointing
at a shared mount cooperate on one sweep with no coordinator process at
all.

Spool layout (on-disk schema ``repro.sweep-spool/1``)::

    SPOOL/
      manifest.json          # written last at init: task count + fingerprint
      tasks/task-00000.json  # one immutable task spec per file
      leases/task-00000.json # exclusive claim: owner + heartbeat timestamps
      state/task-00000.json  # attempts / reclaims / retry-backoff eligibility
      results/task-00000.json# the worker payload, atomically renamed in
      parked/task-00000.json # exhausted the retry budget; recorded, not fatal

Correctness rests on three filesystem primitives:

* **atomic publish** -- task specs, results, state and parked markers are
  written to a temp file and ``os.replace``d into place, so readers never
  observe a partial document;
* **exclusive claim** -- a lease is created with ``os.link`` from a fully
  written temp file (atomic create-if-absent, the classic NFS-safe lock
  pattern), so exactly one claimant wins even across hosts;
* **atomic removal** -- ``os.unlink`` of a stale lease succeeds for
  exactly one reclaimer, which serialises the requeue-or-park decision.

Liveness comes from heartbeats: a claimant renews its lease's
``heartbeat_unix`` every ``heartbeat_s`` from a daemon thread; any
participant's :func:`reclaim_stale` pass removes leases whose heartbeat is
older than ``lease_timeout_s``, requeues the task under an exponential
backoff, and *parks* tasks that exhaust ``max_attempts`` -- graceful
degradation, recorded in the merged document instead of aborting the run.
The coordinator of ``run_spool_sweep(workers > 1)`` does not wait for its
own workers' heartbeats to lapse: it requeues a dead worker's leases as
soon as the process exits, and SIGKILLs a worker wedged past the hard
deadline ``2 x timeout_s + 5 s``.  Workers started elsewhere with
:func:`spool_worker_loop` have only the lease timeout.

Results are pure functions of the task spec, so the duplicated execution a
lost-then-reclaimed lease can cause is benign: both writers publish the
identical payload.  The attempt and reclaim counts in the state files are
best-effort under concurrent reclaimers; :func:`spool_status` counts the
result and parked files, which are the ground truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.engine import SweepOutcome, TaskOutcome, \
    _outcome_from_payload
from repro.exec.tasks import SweepTask
from repro.exec.worker import execute_task, preserved_process_state
from repro.obs.export import write_atomic

SPOOL_SCHEMA = "repro.sweep-spool/1"

_DIRS = ("tasks", "leases", "state", "results", "parked")


class SpoolError(RuntimeError):
    """A spool directory is missing, mismatched, or already in use."""


@dataclass(frozen=True)
class SpoolConfig:
    """Tuning knobs for lease liveness and the retry budget.

    ``lease_timeout_s`` defaults to ``3 x heartbeat_s``: one missed
    heartbeat is scheduler noise, three is a dead claimant.  The retry
    delay for attempt *n* is ``backoff_base_s * 2**(n-1)`` capped at
    ``backoff_cap_s``.
    """

    heartbeat_s: float = 5.0
    lease_timeout_s: Optional[float] = None
    max_attempts: int = 3
    backoff_base_s: float = 1.0
    backoff_cap_s: float = 60.0
    poll_s: float = 0.2

    @property
    def effective_lease_timeout_s(self) -> float:
        """The staleness threshold: explicit, or ``3 x heartbeat_s``."""
        if self.lease_timeout_s is not None:
            return self.lease_timeout_s
        return 3.0 * self.heartbeat_s

    def backoff_s(self, attempts: int) -> float:
        """Retry delay after ``attempts`` completed attempts."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempts - 1)),
        )


# ------------------------------------------------------------------- paths


def _manifest_path(spool_dir: str) -> str:
    return os.path.join(spool_dir, "manifest.json")


def _entry_path(spool_dir: str, kind: str, index: int) -> str:
    return os.path.join(spool_dir, kind, f"task-{index:05d}.json")


def _index_of(filename: str) -> int:
    return int(filename[len("task-"):-len(".json")])


def _publish(path: str, payload: Dict[str, Any]) -> None:
    """Publish ``payload`` as JSON at ``path`` (:func:`write_atomic`)."""
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Load a spool JSON file; ``None`` when absent or mid-replace."""
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        # A reader racing a writer on a non-atomic filesystem; the next
        # pass sees the completed replace.
        return None


def default_owner() -> str:
    """A claimant identity unique across hosts and processes."""
    return f"{socket.gethostname()}:{os.getpid()}:{threading.get_ident()}"


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
    """Read the manifest; raises :class:`SpoolError` when absent."""
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


# ----------------------------------------------------------- claim / lease


def _read_state(spool_dir: str, index: int) -> Dict[str, Any]:
    state = _read_json(_entry_path(spool_dir, "state", index))
    return state or {"attempts": 0, "reclaims": 0,
                     "next_eligible_unix": 0.0, "last_error": None}


def claim_task(
    spool_dir: str,
    index: int,
    owner: str,
    config: SpoolConfig,
    now: Optional[float] = None,
) -> Optional[Dict[str, Any]]:
    """Try to claim task ``index``; the lease dict on success, else ``None``.

    The claim is an ``os.link`` of a fully written temp file to the lease
    path -- atomic create-if-absent even on shared mounts, so concurrent
    claimants cannot both win.  A successful claimant immediately bumps
    the state file's attempt counter (it owns the task, so the write is
    race-free against other claimants; only a racing *reclaimer* of a
    previous stale lease can interleave, which at worst under-counts).
    """
    now = time.time() if now is None else now
    if os.path.exists(_entry_path(spool_dir, "results", index)):
        return None
    if os.path.exists(_entry_path(spool_dir, "parked", index)):
        return None
    state = _read_state(spool_dir, index)
    if state["next_eligible_unix"] > now:
        return None
    lease_path = _entry_path(spool_dir, "leases", index)
    lease = {
        "index": index,
        "owner": owner,
        "claimed_unix": now,
        "heartbeat_unix": now,
        "attempt": state["attempts"] + 1,
    }
    tmp = f"{lease_path}.claim.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(lease, stream, indent=2, sort_keys=True)
        stream.write("\n")
    try:
        os.link(tmp, lease_path)
    except FileExistsError:
        return None
    finally:
        os.unlink(tmp)
    # A result may have been published between the scan and the claim
    # (another owner finishing just as its lease expired): yield to it.
    if os.path.exists(_entry_path(spool_dir, "results", index)):
        release_lease(spool_dir, index)
        return None
    state["attempts"] += 1
    _publish(_entry_path(spool_dir, "state", index), state)
    return lease


def heartbeat_lease(spool_dir: str, index: int, owner: str) -> None:
    """Renew a held lease's heartbeat (atomic rewrite)."""
    lease_path = _entry_path(spool_dir, "leases", index)
    lease = _read_json(lease_path)
    if lease is None or lease.get("owner") != owner:
        return  # reclaimed out from under us; the task will be re-run
    lease["heartbeat_unix"] = time.time()
    _publish(lease_path, lease)


def release_lease(spool_dir: str, index: int) -> None:
    """Drop a lease (idempotent)."""
    try:
        os.unlink(_entry_path(spool_dir, "leases", index))
    except FileNotFoundError:
        pass


class _Heartbeat:
    """Daemon thread renewing one lease every ``heartbeat_s``."""

    def __init__(self, spool_dir: str, index: int, owner: str,
                 interval_s: float):
        self._spool_dir = spool_dir
        self._index = index
        self._owner = owner
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"spool-heartbeat-{index}", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval_s + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                heartbeat_lease(self._spool_dir, self._index, self._owner)
            except OSError:  # a transient mount hiccup must not kill the task
                pass


# -------------------------------------------------------- reclaim / park


def park_task(spool_dir: str, index: int, error: str,
              attempts: int, timeout: bool = False) -> None:
    """Record a task as permanently out of budget (idempotent)."""
    _publish(_entry_path(spool_dir, "parked", index), {
        "index": index,
        "attempts": attempts,
        "error": error,
        "timeout": timeout,
        "parked_unix": time.time(),
    })
    release_lease(spool_dir, index)


def _requeue_or_park(spool_dir: str, index: int, error: str,
                     config: SpoolConfig, now: float,
                     timeout: bool = False, reclaim: bool = False) -> None:
    """After a failed/expired attempt: back off for retry, or park."""
    state = _read_state(spool_dir, index)
    state["last_error"] = error
    if reclaim:
        state["reclaims"] += 1
    if state["attempts"] >= config.max_attempts:
        _publish(_entry_path(spool_dir, "state", index), state)
        park_task(spool_dir, index, error, state["attempts"], timeout)
    else:
        state["next_eligible_unix"] = now + config.backoff_s(state["attempts"])
        _publish(_entry_path(spool_dir, "state", index), state)
        release_lease(spool_dir, index)


def reclaim_stale(
    spool_dir: str,
    config: SpoolConfig,
    now: Optional[float] = None,
) -> List[int]:
    """Requeue (or park) every task whose lease missed its heartbeats.

    Any participant may run this -- workers between claims, a resuming
    coordinator, a cron on a shared mount.  The requeue-or-park decision
    is written *before* the lease is unlinked, so a new claimant always
    observes the updated retry state; the unlink itself succeeds for
    exactly one reclaimer, keeping ``reclaims`` counts near-exact.
    """
    now = time.time() if now is None else now
    timeout_s = config.effective_lease_timeout_s
    reclaimed: List[int] = []
    try:
        entries = sorted(os.listdir(os.path.join(spool_dir, "leases")))
    except FileNotFoundError:
        return reclaimed
    for name in entries:
        if not (name.startswith("task-") and name.endswith(".json")):
            continue
        index = _index_of(name)
        lease_path = _entry_path(spool_dir, "leases", index)
        if os.path.exists(_entry_path(spool_dir, "results", index)):
            release_lease(spool_dir, index)  # finished; tidy the leftover
            continue
        lease = _read_json(lease_path)
        if lease is not None:
            beat = float(lease.get("heartbeat_unix", 0.0))
        else:
            try:  # unparseable/mid-write lease: fall back to file age
                beat = os.path.getmtime(lease_path)
            except OSError:
                continue
        if now - beat <= timeout_s:
            continue
        owner = (lease or {}).get("owner", "unknown")
        _requeue_or_park(
            spool_dir, index,
            f"lease expired (owner {owner}, last heartbeat"
            f" {now - beat:.1f}s ago)",
            config, now, reclaim=True,
        )
        reclaimed.append(index)
    return reclaimed


# ------------------------------------------------------------ worker loop


def _runnable_indices(spool_dir: str, tasks_total: int,
                      now: float) -> List[int]:
    """Indices with no result, no parked marker, no live lease, and an
    elapsed backoff -- the claimable frontier, in index order."""
    done = _index_set(spool_dir, "results") | _index_set(spool_dir, "parked")
    leased = _index_set(spool_dir, "leases")
    runnable = []
    for index in range(tasks_total):
        if index in done or index in leased:
            continue
        if _read_state(spool_dir, index)["next_eligible_unix"] > now:
            continue
        runnable.append(index)
    return runnable


def _index_set(spool_dir: str, kind: str) -> set:
    try:
        names = os.listdir(os.path.join(spool_dir, kind))
    except FileNotFoundError:
        return set()
    return {
        _index_of(n) for n in names
        if n.startswith("task-") and n.endswith(".json")
    }


def _execute_claimed(
    spool_dir: str,
    index: int,
    lease: Dict[str, Any],
    config: SpoolConfig,
    timeout_s: Optional[float],
    trace_dir: Optional[str],
) -> None:
    """Run one claimed task under a heartbeat and publish the outcome.

    An experiment *exception* is a recorded failure (published as a
    result -- rerunning a deterministic bug buys nothing), while a
    *timeout* consumes an attempt and goes back through the backoff/park
    path like a crash would.
    """
    spec = _read_json(_entry_path(spool_dir, "tasks", index))
    if spec is None:
        raise SpoolError(f"spool task file missing for index {index}")
    with _Heartbeat(spool_dir, index, lease["owner"], config.heartbeat_s):
        payload = execute_task(spec, timeout_s, trace_dir)
    if payload.get("timeout"):
        _requeue_or_park(spool_dir, index, payload.get("error", "timeout"),
                         config, time.time(), timeout=True)
        return
    _publish(_entry_path(spool_dir, "results", index), payload)
    release_lease(spool_dir, index)


def spool_worker_loop(
    spool_dir: str,
    owner: Optional[str] = None,
    config: Optional[SpoolConfig] = None,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
    max_tasks: Optional[int] = None,
    reclaim: bool = True,
) -> int:
    """Claim-and-execute until the spool is drained; returns tasks run.

    The loop is self-sufficient: it reclaims stale leases between claims,
    honours retry backoffs, and exits when every task has a result or a
    parked marker.  Point any number of these (across processes or hosts)
    at the same directory and they cooperate with no coordinator.
    ``max_tasks`` bounds this call's executions (used by tests and by
    deliberate-interruption smoke jobs).
    """
    owner = owner or default_owner()
    config = config or SpoolConfig()
    manifest = load_manifest(spool_dir)
    tasks_total = manifest["tasks_total"]
    executed = 0
    while True:
        now = time.time()
        if reclaim:
            reclaim_stale(spool_dir, config, now)
        progress = False
        for index in _runnable_indices(spool_dir, tasks_total, now):
            if max_tasks is not None and executed >= max_tasks:
                return executed
            # Claimed now, not at the pass's start: never stale on arrival.
            lease = claim_task(spool_dir, index, owner, config)
            if lease is None:
                continue
            _execute_claimed(spool_dir, index, lease, config,
                             timeout_s, trace_dir)
            executed += 1
            progress = True
        if spool_status(spool_dir)["pending"] == 0:
            return executed
        if max_tasks is not None and executed >= max_tasks:
            return executed
        if not progress:
            # Everything pending is leased elsewhere or backing off; wait
            # for heartbeats to lapse or backoffs to elapse.
            time.sleep(config.poll_s)


def spool_status(spool_dir: str) -> Dict[str, int]:
    """Ground-truth progress scan: totals straight from the files."""
    manifest = load_manifest(spool_dir)
    results = _index_set(spool_dir, "results")
    parked = _index_set(spool_dir, "parked") - results
    leases = _index_set(spool_dir, "leases") - results
    total = manifest["tasks_total"]
    attempts = 0
    reclaims = 0
    for index in range(total):
        state = _read_state(spool_dir, index)
        attempts += state["attempts"]
        reclaims += state["reclaims"]
    return {
        "tasks_total": total,
        "completed": len(results),
        "parked": len(parked),
        "leased": len(leases),
        "pending": total - len(results) - len(parked),
        "attempts": attempts,
        "reclaims": reclaims,
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
        ("leased (running)", status.get("leased", 0)),
        ("parked (gave up)", status.get("parked", 0)),
        ("attempts", status.get("attempts", 0)),
        ("lease reclaims", status.get("reclaims", 0)),
    ]


def spool_is_finished(status: Dict[str, int]) -> bool:
    """Whether every spool task is either completed or parked."""
    return status.get("pending", 1) <= 0 and status.get("leased", 1) <= 0


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
        state = _read_state(spool_dir, task.index)
        attempts = max(1, state["attempts"])
        payload = _read_json(_entry_path(spool_dir, "results", task.index))
        if payload is not None:
            outcomes.append(_outcome_from_payload(task, payload, attempts))
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
            attempts=state["attempts"],
        ))
    status = spool_status(spool_dir)
    return SweepOutcome(outcomes=outcomes, workers=1, spool=status)


def _leases_of(spool_dir: str, owner: str) -> List[Dict[str, Any]]:
    """The leases ``owner`` currently holds, in index order."""
    leases = (
        _read_json(_entry_path(spool_dir, "leases", index))
        for index in sorted(_index_set(spool_dir, "leases"))
    )
    return [lease for lease in leases
            if lease is not None and lease.get("owner") == owner]


def _reclaim_owned(spool_dir: str, owner: str, error: str,
                   config: SpoolConfig, timeout: bool = False) -> None:
    """Requeue (or park) every task a dead worker held, without waiting
    for its lease to go stale."""
    for lease in _leases_of(spool_dir, owner):
        index = lease["index"]
        if os.path.exists(_entry_path(spool_dir, "results", index)):
            release_lease(spool_dir, index)  # it finished before dying
            continue
        _requeue_or_park(spool_dir, index, error, config, time.time(),
                         timeout=timeout, reclaim=True)


def _run_workers(spool_dir: str, workers: int, config: SpoolConfig,
                 timeout_s: Optional[float],
                 trace_dir: Optional[str]) -> int:
    """Keep ``workers`` worker processes on the spool until it drains;
    returns how many were replaced.

    A worker's owner string names its slot and spawn generation.  One that
    exits non-zero, or is SIGKILLed for holding a lease past the hard
    deadline (the task is then a timeout), has its leases reclaimed at
    once rather than after the lease timeout.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait as wait_for_exit

    ctx = mp.get_context()
    hard_deadline_s = None if timeout_s is None else 2.0 * timeout_s + 5.0
    procs: Dict[int, Any] = {}  # slot -> (process, owner)
    spawned = [0] * workers
    restarts = 0
    try:
        while spool_status(spool_dir)["pending"] > 0:
            reclaim_stale(spool_dir, config)
            for slot in range(workers):
                proc, owner = procs.get(slot, (None, ""))
                timeout = False
                if proc is not None and proc.is_alive():
                    now = time.time()
                    if hard_deadline_s is None or not any(
                        now - lease["claimed_unix"] > hard_deadline_s
                        for lease in _leases_of(spool_dir, owner)
                    ):
                        continue
                    proc.kill()
                    timeout = True
                if proc is not None:
                    proc.join()
                    if proc.exitcode != 0:  # died, not drained-and-done
                        restarts += 1
                        error = (
                            f"task exceeded hard deadline"
                            f" ({hard_deadline_s:.1f}s); worker killed"
                            if timeout else
                            f"worker process crashed"
                            f" (exit code {proc.exitcode})"
                        )
                        _reclaim_owned(spool_dir, owner, error, config,
                                       timeout)
                        time.sleep(config.poll_s)  # no tight respawn loop
                owner = f"{default_owner()}:w{slot}.{spawned[slot]}"
                spawned[slot] += 1
                # Not a daemon: daemonic processes cannot have children,
                # and a task may run a parallel sweep of its own.
                proc = ctx.Process(
                    target=spool_worker_loop, args=(spool_dir, owner, config,
                                                    timeout_s, trace_dir),
                )
                proc.start()
                procs[slot] = (proc, owner)
            # Wake as soon as any worker exits (drained, or died).
            wait_for_exit([proc.sentinel for proc, _ in procs.values()],
                          timeout=config.poll_s)
    finally:
        # A worker holding no lease has nothing left but its idle poll:
        # stop it now.  One still on a task gets a lease timeout to finish.
        deadline = time.time() + config.effective_lease_timeout_s + 5.0
        for proc, owner in procs.values():
            if proc.is_alive() and not _leases_of(spool_dir, owner):
                proc.terminate()
            proc.join(timeout=max(0.1, deadline - time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join()
    return restarts


def run_spool_sweep(
    spool_dir: str,
    tasks: Optional[Sequence[SweepTask]] = None,
    workers: int = 1,
    config: Optional[SpoolConfig] = None,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> SweepOutcome:
    """Initialise (or resume) a spool, drain it, and merge the outcomes.

    Fresh runs require ``tasks`` and refuse an already-initialised spool;
    ``resume=True`` requires the manifest and -- when ``tasks`` is given --
    verifies the fingerprint, so a spool can never silently continue a
    different sweep.  Completed task indices are skipped on resume; only
    the remainder executes, and the merged document is byte-identical to
    an uninterrupted serial run of the same task list.

    ``workers <= 1`` drains the spool in-process (with the same
    global-state save/restore the serial sweep applies); ``workers > 1``
    spawns that many independent worker *processes* (:func:`_run_workers`).
    A worker killed mid-task takes nothing down with it: the coordinator
    requeues its task at once and replaces the dead process while work
    remains (each crash consumes one of the task's ``max_attempts``, so a
    deterministic crasher ends up parked and the sweep still terminates).
    """
    config = config or SpoolConfig()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    start = time.perf_counter()
    if os.path.exists(_manifest_path(spool_dir)):
        if not resume:
            raise SpoolError(
                f"spool {spool_dir!r} already exists; pass resume=True to"
                " continue it (or point at a fresh directory)"
            )
        manifest = load_manifest(spool_dir)
        if tasks is not None and \
                manifest["fingerprint"] != task_fingerprint(tasks):
            raise SpoolError(
                "resume refused: the spool manifest fingerprint does not"
                " match the derived task list"
            )
        if tasks is None:
            tasks = load_tasks(spool_dir)
    else:
        if resume:
            raise SpoolError(f"nothing to resume: no manifest in {spool_dir!r}")
        if tasks is None:
            raise ValueError("a fresh spool run needs the task list")
        init_spool(spool_dir, tasks, meta=meta)

    restarts = 0
    if workers <= 1:
        with preserved_process_state():
            spool_worker_loop(spool_dir, config=config, timeout_s=timeout_s,
                              trace_dir=trace_dir)
    else:
        restarts = _run_workers(spool_dir, workers, config, timeout_s,
                                trace_dir)

    outcome = collect_outcomes(spool_dir, tasks)
    outcome.workers = max(1, workers)
    outcome.wall_seconds = time.perf_counter() - start
    outcome.spool["worker_restarts"] = restarts
    return outcome
