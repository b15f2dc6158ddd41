"""Worker-side task execution with per-task process-state isolation.

The serial path runs many tasks in one process, and a forked task
process inherits its coordinator's memory.  Several subsystems keep
*process-global* state that would otherwise leak into a task (and differ
from a fresh serial run):

* the sketch syndrome/decode LRUs (``repro.sketch.pinsketch``),
* the cache hit/miss counters (``repro.obs.caches``),
* the installed tracer and timeline (``repro.obs.TRACER`` /
  ``repro.obs.TIMELINE``),
* the signature-verification registry (``repro.crypto.keys._VERIFIERS``).

:func:`reset_worker_state` restores all of them to cold-start condition;
:func:`execute_task` calls it before every task so a task's observable
output is a function of ``(experiment, seed, params)`` alone -- the
invariant behind the serial/parallel byte-identity guarantee.

Simulation *results* never depend on cache contents (caches memoise pure
functions) or on the verifier registry (every simulation re-registers its
nodes' deterministic keys at construction); what the reset protects is the
*metrics* surface (per-run cache counters, trace streams) and memory
footprint across long sweeps.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


# Seconds between repeats of an alarm whose TaskTimeout was dropped.
_TIMEOUT_REPEAT_S = 0.05


class TaskTimeout(BaseException):
    """Raised inside a worker when a task exceeds its wall-clock budget.

    A ``BaseException``, like ``KeyboardInterrupt``: the simulation contains
    handler errors with ``except Exception``, which must not swallow it.
    """


def reset_worker_state() -> None:
    """Restore cold-start process-global state (caches, telemetry, verifiers)."""
    from repro import obs
    from repro.crypto import keys
    from repro.obs.caches import reset_cache_stats
    from repro.sketch.pinsketch import clear_decode_cache, clear_syndrome_cache

    obs.clear_tracer()
    obs.clear_timeline()
    clear_syndrome_cache()
    clear_decode_cache()
    reset_cache_stats()
    keys._VERIFIERS.clear()


@contextmanager
def preserved_process_state() -> Iterator[None]:
    """Run tasks in this process, then restore the caller's tracer, timeline
    and verifier registry (each task resets them, as in any worker), so an
    in-process sweep leaves the caller's own simulations undisturbed."""
    from repro import obs
    from repro.crypto import keys

    saved_tracer = obs.TRACER
    saved_timeline = obs.TIMELINE
    saved_verifiers = dict(keys._VERIFIERS)
    try:
        yield
    finally:
        reset_worker_state()
        keys._VERIFIERS.update(saved_verifiers)
        obs.set_tracer(saved_tracer)
        obs.set_timeline(saved_timeline)


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
    task's events and spans, and its timeline series.
    """
    from repro import obs
    from repro.exec.tasks import EXPERIMENTS
    from repro.obs.report import to_jsonable

    index = spec["index"]
    reset_worker_state()

    outcome: Dict[str, Any] = {
        "index": index,
        "ok": False,
        "worker_pid": os.getpid(),
    }
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

    tracer = timeline = None
    start = time.perf_counter()
    try:
        runner = EXPERIMENTS[spec["experiment"]]
        if trace_dir:
            tracer, timeline = obs.Tracer(), obs.TimelineRecorder()
            obs.set_tracer(tracer)
            obs.set_timeline(timeline)
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
            obs.clear_tracer()
            obs.clear_timeline()
            try:
                path = os.path.join(trace_dir, f"task-{index:04d}.trace.jsonl")
                obs.export_jsonl(tracer, path, {
                    "experiment": spec["experiment"],
                    "seed": spec["seed"],
                    "task_index": index,
                }, timeline=timeline)
                outcome["trace_path"] = path
            except OSError as exc:  # artifact loss is not a task failure
                outcome["trace_error"] = str(exc)
    return outcome
