"""Tests for ``run_sweep``: merging, failures, crashes, timeouts.

``workers=1`` is the in-process serial loop; ``workers > 1`` runs the spool
executor on a temporary directory.  The crash/timeout experiments are
module-level functions registered via :func:`register_experiment`;
fork-started task processes inherit the registry, so no importable plugin
module is needed.
"""

import json
import os
import time

import pytest

from repro.exec import (
    EXPERIMENTS,
    derive_tasks,
    register_experiment,
    run_sweep,
)


def _fast_experiment(seed, **params):
    return {"seed": seed, "square": seed * seed, **params}


def _failing_experiment(seed, **params):
    if params.get("boom"):
        raise ValueError(f"boom at seed {seed}")
    return {"seed": seed}


def _crashing_experiment(seed, **params):
    # Repetition 0 seeds stay alive; the derived second-repetition seed
    # (base + 1000) kills its process outright -- no exception, no cleanup,
    # exactly what a segfault or OOM-kill looks like to the parent.
    if seed >= 1000:
        os._exit(3)
    return {"seed": seed}


def _sleeping_experiment(seed, sleep_s=0.0, **params):
    time.sleep(sleep_s)
    return {"seed": seed}


class _SleepsWhenDropped:
    # ``__del__`` is one of the places (like a ``gc.callbacks`` hook)
    # where Python prints an exception and drops it.
    def __init__(self, sleep_s):
        self.sleep_s = sleep_s

    def __del__(self):
        time.sleep(self.sleep_s)


def _swallowing_experiment(seed, sleep_s=0.0, spin_s=0.0, **params):
    _SleepsWhenDropped(sleep_s)  # the first alarm lands in its __del__
    deadline = time.perf_counter() + spin_s
    while time.perf_counter() < deadline:
        pass
    return {"seed": seed}


def _nested_experiment(seed, **params):
    # A task that runs a parallel sweep of its own, inside a task process.
    tasks = derive_tasks("probe_fast", {}, base_seed=seed, repetitions=2)
    return [o.result["square"] for o in run_sweep(tasks, workers=2).outcomes]


@pytest.fixture(autouse=True)
def _registered_probes():
    probes = {
        "probe_fast": _fast_experiment,
        "probe_fail": _failing_experiment,
        "probe_crash": _crashing_experiment,
        "probe_sleep": _sleeping_experiment,
        "probe_swallow": _swallowing_experiment,
        "probe_nested": _nested_experiment,
    }
    for name, fn in probes.items():
        register_experiment(name, fn)
    yield
    for name in probes:
        EXPERIMENTS.pop(name, None)


def test_serial_sweep_merges_in_derivation_order():
    tasks = derive_tasks("probe_fast", {"x": [1, 2]}, base_seed=3,
                         repetitions=2)
    outcome = run_sweep(tasks, workers=1)
    assert [o.task.index for o in outcome.outcomes] == [0, 1, 2, 3]
    assert all(o.ok for o in outcome.outcomes)
    assert outcome.outcomes[0].result["square"] == 9
    assert not outcome.failed()


def test_parallel_merge_is_byte_identical_to_serial():
    tasks = derive_tasks("probe_fast", {"x": [1, 2], "y": ["a"]},
                         base_seed=11, repetitions=2)
    serial = run_sweep(tasks, workers=1).results_bytes()
    parallel = run_sweep(tasks, workers=4).results_bytes()
    assert serial == parallel


def test_results_doc_schema_and_determinism_split():
    tasks = derive_tasks("probe_fast", {}, base_seed=5)
    outcome = run_sweep(tasks, workers=1)
    doc = outcome.results_doc()
    assert doc["schema"] == "repro.sweep/1"
    assert doc["tasks"][0]["ok"] is True
    # Timing/placement must not leak into the deterministic document.
    assert "seconds" not in doc["tasks"][0]
    assert "worker_pid" not in doc["tasks"][0]
    execution = outcome.execution_doc()
    assert execution["schema"] == "repro.sweep-execution/1"
    assert execution["tasks_total"] == 1
    assert execution["tasks"][0]["seconds"] >= 0.0


def test_parallel_task_may_fan_out_itself():
    tasks = derive_tasks("probe_nested", {}, base_seed=3)
    outcome = run_sweep(tasks, workers=2)
    assert outcome.outcomes[0].ok, outcome.outcomes[0].error
    assert outcome.outcomes[0].result == [9, 1003 * 1003]


def test_raising_experiment_is_recorded_not_fatal():
    tasks = derive_tasks("probe_fail", {"boom": [False, True]}, base_seed=2)
    outcome = run_sweep(tasks, workers=2)
    by_index = {o.task.index: o for o in outcome.outcomes}
    assert by_index[0].ok
    assert not by_index[1].ok
    assert "boom at seed 2" in by_index[1].error
    # An exception is a result, not a dead worker.
    assert outcome.execution_doc()["spool"]["worker_restarts"] == 0


def test_worker_crash_is_contained_and_retried():
    # 2 grid points x 2 repetitions; the repetition-1 seed (>= 1000) makes
    # its task process die via os._exit.  The task is retried until the
    # default 3-attempt budget is spent and then parked, and every other
    # task still completes.
    tasks = derive_tasks("probe_crash", {"x": [1, 2]}, base_seed=1,
                         repetitions=2)
    outcome = run_sweep(tasks, workers=2)
    assert len(outcome.outcomes) == 4
    by_index = {o.task.index: o for o in outcome.outcomes}
    crashed = [o for o in outcome.outcomes if o.task.seed >= 1000]
    survived = [o for o in outcome.outcomes if o.task.seed < 1000]
    assert all(not o.ok for o in crashed)
    assert all("crash" in o.error.lower() for o in crashed)
    assert all(o.attempts == 3 for o in crashed)
    assert all(o.ok for o in survived)
    assert outcome.execution_doc()["spool"]["worker_restarts"] >= 1
    assert sorted(by_index) == [0, 1, 2, 3]


def test_in_worker_timeout_records_timeout():
    tasks = derive_tasks("probe_sleep", {"sleep_s": [5.0]}, base_seed=9)
    start = time.perf_counter()
    outcome = run_sweep(tasks, workers=2, timeout_s=0.5, max_attempts=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0  # SIGALRM interrupted the sleep
    assert len(outcome.outcomes) == 1
    assert not outcome.outcomes[0].ok
    assert outcome.outcomes[0].timeout


def test_timeout_reaches_into_a_running_simulation():
    # The alarm usually fires inside a node's message handler; the
    # simulation's per-message error containment must not swallow it.
    tasks = derive_tasks("run", {"num_nodes": [6], "duration_s": [600.0]},
                         base_seed=5)
    start = time.perf_counter()
    outcome = run_sweep(tasks, workers=1, timeout_s=0.5)
    assert time.perf_counter() - start < 5.0
    assert outcome.outcomes[0].timeout


def test_a_timeout_dropped_where_python_ignores_exceptions_fires_again():
    # An alarm whose TaskTimeout is raised inside a __del__ or a gc
    # callback is printed and lost; the task must still be interrupted.
    tasks = derive_tasks("probe_swallow",
                         {"sleep_s": [1.0], "spin_s": [20.0]}, base_seed=9)
    start = time.perf_counter()
    outcome = run_sweep(tasks, workers=1, timeout_s=0.5)
    assert time.perf_counter() - start < 5.0
    assert outcome.outcomes[0].timeout


def test_write_run_dir(tmp_path):
    tasks = derive_tasks("probe_fast", {}, base_seed=4)
    outcome = run_sweep(tasks, workers=1)
    paths = outcome.write_run_dir(str(tmp_path / "run"))
    with open(paths["results"], "rb") as stream:
        assert stream.read() == outcome.results_bytes()
    with open(paths["execution"], encoding="utf-8") as stream:
        assert json.load(stream)["schema"] == "repro.sweep-execution/1"


def test_per_task_traces_collected(tmp_path):
    trace_dir = str(tmp_path / "traces")
    tasks = derive_tasks("run", {"num_nodes": [6]}, base_seed=13)
    outcome = run_sweep(tasks, workers=1, trace_dir=trace_dir)
    assert outcome.outcomes[0].ok
    path = outcome.outcomes[0].trace_path
    assert path and os.path.exists(path)
    with open(path, encoding="utf-8") as stream:
        header = json.loads(stream.readline())
    assert header["schema"] == "repro.trace/1"



def test_a_task_runs_under_its_own_tracer_and_restores_the_callers(tmp_path):
    """A serial sweep task records into its own observers (with a trace
    directory) or none, never into the caller's, which are back after."""
    from repro import obs

    seen = []
    register_experiment(
        "probe_tracer", lambda seed, **params: seen.append(
            (obs.TRACER, obs.TIMELINE, obs.PROFILER)) or {"seed": seed})
    caller = (obs.Tracer(), obs.TimelineRecorder(), obs.PhaseProfiler())
    tasks = derive_tasks("probe_tracer", {}, base_seed=3)
    try:
        with obs.recording(*caller):
            run_sweep(tasks, workers=1)
            run_sweep(tasks, workers=1, trace_dir=str(tmp_path / "traces"))
            assert (obs.TRACER, obs.TIMELINE, obs.PROFILER) == caller
    finally:
        EXPERIMENTS.pop("probe_tracer", None)
    untraced, traced = seen
    assert untraced == (obs.NULL_TRACER, None, None)
    assert traced[0].enabled
    assert all(mine is not None and mine is not theirs
               for mine, theirs in zip(traced, caller))
