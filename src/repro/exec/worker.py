"""Worker-side task execution: one task spec in, one outcome dict out.

A task's observable output is a function of ``(experiment, seed,
params)`` alone -- the invariant behind the serial/parallel byte-identity
guarantee -- because every ``LOSimulation`` build starts cold: it empties
the process-wide caches and zeroes their counters
(:func:`repro.obs.caches.reset_caches`), whatever ran before it in the
process or in the coordinator a task process was forked from.  Simulation
*results* never depend on cache contents (the caches memoise pure
functions) or on the verifier registry ``repro.crypto.keys._VERIFIERS``
(every simulation re-registers its nodes' deterministic keys at
construction).  :func:`execute_task` installs its task's observers, or
none, and restores the caller's when the task ends.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Any, Dict, Optional


# Seconds between repeats of an alarm whose TaskTimeout was dropped.
_TIMEOUT_REPEAT_S = 0.05


class TaskTimeout(BaseException):
    """Raised inside a worker when a task exceeds its wall-clock budget.

    A ``BaseException``, like ``KeyboardInterrupt``: the simulation contains
    handler errors with ``except Exception``, which must not swallow it.
    """


def _alarm_supported() -> bool:
    """SIGALRM-based timeouts need a Unix main thread."""
    import threading

    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def execute_task(spec: Dict[str, Any], timeout_s: Optional[float] = None,
                 trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one task spec (see :meth:`SweepTask.spec`) and report the outcome.

    Returns a plain dict -- never raises -- so an experiment bug is a
    *recorded failure*, not a poisoned pool:

    ``{"index", "ok", "result" | "error", "seconds", "worker_pid"}``

    ``result`` is already passed through
    :func:`repro.obs.report.to_jsonable`, so the parent can merge
    and serialise outcomes without importing experiment result classes.

    ``timeout_s`` is enforced in-worker via ``SIGALRM`` where available,
    so a wedged simulation is interrupted rather than hanging the sweep;
    ``trace_dir`` writes a per-task ``repro.trace/1`` JSONL there: the
    task's events and spans, its timeline series and its wall time per
    phase.
    """
    from repro import obs
    from repro.exec.tasks import EXPERIMENTS
    from repro.obs.report import to_jsonable

    index = spec["index"]
    outcome: Dict[str, Any] = {
        "index": index,
        "ok": False,
        "worker_pid": os.getpid(),
    }
    tracer = timeline = profiler = None
    if trace_dir:
        tracer, timeline = obs.Tracer(), obs.TimelineRecorder()
        profiler = obs.PhaseProfiler()
    with obs.recording(tracer, timeline, profiler):
        alarm_set = False
        caught = False
        if timeout_s is not None and _alarm_supported():
            def _on_alarm(signum, frame):
                if caught:
                    return
                # Python prints and drops an exception raised inside a
                # ``gc.callbacks`` hook or a ``__del__``; the alarm fires again
                # until the task's own ``except`` has seen it.
                signal.setitimer(signal.ITIMER_REAL, _TIMEOUT_REPEAT_S)
                raise TaskTimeout(
                    f"task {index} exceeded timeout_s={timeout_s:g}"
                )

            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            alarm_set = True

        start = time.perf_counter()
        try:
            runner = EXPERIMENTS[spec["experiment"]]
            result = runner(seed=spec["seed"], **spec["params"])
            outcome["ok"] = True
            outcome["result"] = to_jsonable(result)
        except TaskTimeout as exc:
            caught = True
            outcome["error"] = str(exc)
            outcome["timeout"] = True
        except Exception as exc:  # noqa: BLE001 - contained, reported upstream
            outcome["error"] = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            outcome["traceback"] = traceback.format_exc()
        finally:
            if alarm_set:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            outcome["seconds"] = time.perf_counter() - start
    if tracer is not None:
        try:
            path = os.path.join(trace_dir, f"task-{index:04d}.trace.jsonl")
            obs.export_jsonl(tracer, path, {
                "experiment": spec["experiment"],
                "seed": spec["seed"],
                "task_index": index,
            }, timeline=timeline, profiler=profiler)
            outcome["trace_path"] = path
        except OSError as exc:  # artifact loss is not a task failure
            outcome["trace_error"] = str(exc)
    return outcome
