"""Spool-backed sweeps: crash recovery, attempt budgets, resume identity.

The acceptance properties of ``repro.exec.spool``:

* a spool sweep interrupted at any point (a task process SIGKILLed, the
  coordinator SIGKILLed with its children) resumes to a merged
  ``repro.sweep/1`` document *byte-identical* to the uninterrupted serial
  run;
* the coordinator retries a task whose process died at once, and the
  attempt counts it writes before each dispatch survive a coordinator
  kill and ``--resume``;
* a task that exhausts ``max_attempts`` is parked -- recorded in the
  merged document, never fatal to the sweep;
* a spool of another schema is refused, not continued.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.exec import (
    EXPERIMENTS,
    SpoolError,
    derive_tasks,
    register_experiment,
    run_spool_sweep,
    run_sweep,
    spool_status,
)
from repro.exec.spool import (
    _drain_in_process,
    collect_outcomes,
    init_spool,
    load_manifest,
    load_tasks,
)
from repro.exec.worker import preserved_process_state


def _fast_experiment(seed, **params):
    return {"seed": seed, "square": seed * seed, **params}


def _crashing_experiment(seed, **params):
    # The derived repetition-1 seed (>= 1000) kills its process outright --
    # what a segfault or OOM-kill looks like from outside.
    if seed >= 1000:
        os._exit(3)
    return {"seed": seed}


def _blocking_experiment(seed, block_file="", pid_dir="", **params):
    # Announces each attempt as a ``SEED-PID`` file in ``pid_dir``, then
    # spins while the sentinel file exists, so a test can find a task's
    # process, hold it "mid-flight" for as long as it needs, then release.
    if pid_dir:
        with open(os.path.join(pid_dir, f"{seed}-{os.getpid()}"), "w"):
            pass
    while block_file and os.path.exists(block_file):
        time.sleep(0.02)
    return {"seed": seed}


def _wedged_experiment(seed, **params):
    # Out of reach of the in-process timeout: SIGALRM is blocked, so only
    # the coordinator's hard deadline can end this task early.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(30.0)
    return {"seed": seed}


@pytest.fixture(autouse=True)
def _registered_probes():
    # Register the probe experiments, and restore the process-global state
    # that direct in-process drains reset per task.
    probes = {
        "spool_fast": _fast_experiment,
        "spool_crash": _crashing_experiment,
        "spool_block": _blocking_experiment,
        "spool_wedge": _wedged_experiment,
    }
    for name, fn in probes.items():
        register_experiment(name, fn)
    with preserved_process_state():
        yield
    for name in probes:
        EXPERIMENTS.pop(name, None)


def _tasks(n_points=2, repetitions=2, experiment="spool_fast", **grid_extra):
    grid = {"x": list(range(n_points)), **grid_extra}
    return derive_tasks(experiment, grid, base_seed=3, repetitions=repetitions)


def _blocking_tasks(tmp_path, repetitions=2):
    """Blocking tasks, their sentinel file (created) and their pid dir."""
    block = tmp_path / "block"
    block.touch()
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    tasks = derive_tasks("spool_block", {"block_file": [str(block)],
                                         "pid_dir": [str(pid_dir)]},
                         base_seed=3, repetitions=repetitions)
    return tasks, block, pid_dir


def _wait_for_pids(pid_dir, count, timeout_s=10.0):
    """The ``SEED-PID`` names in ``pid_dir`` once there are ``count``."""
    deadline = time.monotonic() + timeout_s
    while len(os.listdir(pid_dir)) < count:
        assert time.monotonic() < deadline, "task processes never started"
        time.sleep(0.01)
    return sorted(os.listdir(pid_dir))


# ------------------------------------------------------------ happy paths


def test_spool_sweep_byte_identical_to_serial(tmp_path):
    tasks = _tasks()
    serial = run_sweep(tasks, workers=1)
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=1)
    assert outcome.results_bytes() == serial.results_bytes()
    assert outcome.spool["completed"] == len(tasks)
    assert outcome.spool["parked"] == 0


def test_spool_multiworker_byte_identical_to_serial(tmp_path):
    tasks = _tasks(n_points=3)
    serial = run_sweep(tasks, workers=1)
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=3)
    assert outcome.results_bytes() == serial.results_bytes()
    assert not outcome.failed()
    assert outcome.spool["attempts"] == len(tasks)
    assert outcome.spool["worker_restarts"] == 0


def test_resume_after_partial_drain_matches_serial(tmp_path):
    # Coordinator-death model: the first run drains only part of the spool
    # (as if killed), a second invocation resumes and completes the rest.
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=3)
    serial = run_sweep(tasks, workers=1)
    init_spool(spool, tasks)
    _drain_in_process(spool, [0, 1], max_attempts=3, timeout_s=None,
                      trace_dir=None)
    assert spool_status(spool)["pending"] == len(tasks) - 2

    outcome = run_spool_sweep(spool, tasks, workers=1, resume=True)
    assert outcome.results_bytes() == serial.results_bytes()
    # Already-completed indices were skipped, not re-run.
    assert outcome.spool["attempts"] == len(tasks)


def test_resume_with_tasks_reloaded_from_spool(tmp_path):
    # A resuming process needs nothing but the directory: the task list
    # round-trips through the spooled spec files.
    spool = str(tmp_path / "spool")
    tasks = _tasks()
    run_spool_sweep(spool, tasks, workers=1)
    assert load_tasks(spool) == tasks
    outcome = run_spool_sweep(spool, None, workers=1, resume=True)
    assert outcome.results_bytes() == run_sweep(tasks, workers=1).results_bytes()


# ------------------------------------------------------- crash recovery


def test_sigkilled_worker_is_reclaimed_retried_and_identical(tmp_path):
    # A real task process is SIGKILLed mid-task; the coordinator must
    # dispatch the task again at once, count the extra attempt, and merge
    # byte-identically to the serial run.
    tasks, block, pid_dir = _blocking_tasks(tmp_path, repetitions=1)
    result = {}
    coordinator = threading.Thread(target=lambda: result.update(
        outcome=run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2)))
    coordinator.start()
    try:
        (first,) = _wait_for_pids(pid_dir, 1)
        killed_at = time.monotonic()
        os.kill(int(first.split("-")[1]), signal.SIGKILL)
        _wait_for_pids(pid_dir, 2)
        assert time.monotonic() - killed_at < 2.0, "retry was not immediate"
    finally:
        block.unlink()
        coordinator.join(timeout=30.0)
    assert not coordinator.is_alive()
    outcome = result["outcome"]
    assert outcome.results_bytes() == run_sweep(tasks, workers=1).results_bytes()
    (retried,) = outcome.outcomes
    assert retried.ok and retried.attempts == 2
    assert outcome.execution_doc()["tasks_retried"] == 1
    assert outcome.spool["worker_restarts"] == 1


def _coordinate_in_own_group(spool, tasks):
    os.setsid()
    run_spool_sweep(spool, tasks, workers=2)


def test_attempt_counts_survive_a_coordinator_kill_and_resume(tmp_path):
    # The coordinator and both task processes are SIGKILLed together
    # mid-run.  The attempts written before dispatch survive, so the
    # resumed tasks record their second attempt; the merge is identical.
    spool = str(tmp_path / "spool")
    tasks, block, pid_dir = _blocking_tasks(tmp_path)
    coordinator = multiprocessing.get_context("fork").Process(
        target=_coordinate_in_own_group, args=(spool, tasks))
    coordinator.start()
    try:
        _wait_for_pids(pid_dir, 2)
    finally:
        os.killpg(coordinator.pid, signal.SIGKILL)
        coordinator.join(timeout=10.0)
    assert not coordinator.is_alive()
    status = spool_status(spool)
    assert status["completed"] == 0 and status["attempts"] == 2

    block.unlink()
    outcome = run_spool_sweep(spool, tasks, workers=2, resume=True)
    assert outcome.results_bytes() == run_sweep(tasks, workers=1).results_bytes()
    assert [o.attempts for o in outcome.outcomes] == [2, 2]
    assert outcome.execution_doc()["tasks_retried"] == 2


def test_deterministic_crasher_is_parked_not_fatal(tmp_path):
    # seed >= 1000 (repetition 1) kills its process every time; the task
    # must burn its default 3-attempt budget, be parked, and leave the
    # rest of the sweep (and the merged document) intact.  Each retry is
    # dispatched as soon as the dead process is reaped.
    tasks = _tasks(n_points=2, experiment="spool_crash")
    start = time.perf_counter()
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2)
    assert time.perf_counter() - start < 6.0
    crashed = [o for o in outcome.outcomes if o.task.seed >= 1000]
    survived = [o for o in outcome.outcomes if o.task.seed < 1000]
    assert all(o.parked and not o.ok for o in crashed)
    assert all(o.attempts == 3 for o in crashed)
    assert all("task process crashed (exit code 3)" in o.error
               for o in crashed)
    assert all(o.ok for o in survived)
    doc = outcome.results_doc()
    assert doc["parked"] == sorted(o.task.index for o in crashed)
    parked_records = [t for t in doc["tasks"] if not t["ok"]]
    assert all("parked" in r["error"] for r in parked_records)
    execution = outcome.execution_doc()
    assert execution["tasks_parked"] == len(crashed)
    assert execution["spool"]["parked"] == len(crashed)
    assert execution["spool"]["worker_restarts"] == 3 * len(crashed)


def test_wedged_worker_killed_at_hard_deadline(tmp_path):
    # The task ignores its 0.5 s SIGALRM; the coordinator kills its
    # process at 2 x 0.5 + 5 = 6 s.
    tasks = derive_tasks("spool_wedge", {}, base_seed=3)
    start = time.perf_counter()
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2,
                              timeout_s=0.5, max_attempts=1)
    assert time.perf_counter() - start < 10.0
    (wedged,) = outcome.outcomes
    assert wedged.parked and wedged.timeout and not wedged.ok
    assert "hard deadline" in wedged.error
    assert outcome.spool["worker_restarts"] == 1


# --------------------------------------------------------------- guards


def test_fresh_run_refuses_existing_spool(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=1)
    run_spool_sweep(spool, tasks, workers=1)
    with pytest.raises(SpoolError, match="resume"):
        run_spool_sweep(spool, tasks, workers=1)


def test_resume_refuses_missing_and_mismatched_spools(tmp_path):
    with pytest.raises(SpoolError, match="nothing to resume"):
        run_spool_sweep(str(tmp_path / "nope"), _tasks(), resume=True)
    spool = str(tmp_path / "spool")
    run_spool_sweep(spool, _tasks(n_points=1), workers=1)
    other = derive_tasks("spool_fast", {"x": [99]}, base_seed=8)
    with pytest.raises(SpoolError, match="fingerprint"):
        run_spool_sweep(spool, other, resume=True)


def test_manifest_records_schema_and_meta(tmp_path):
    spool = str(tmp_path / "spool")
    init_spool(spool, _tasks(n_points=1), meta={"experiment": "spool_fast"})
    manifest = load_manifest(spool)
    assert manifest["schema"] == "repro.sweep-spool/2"
    assert manifest["meta"]["experiment"] == "spool_fast"
    assert manifest["tasks_total"] == 2


def test_collect_reports_unfinished_tasks_without_dropping(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=2, repetitions=1)
    init_spool(spool, tasks)
    _drain_in_process(spool, [0], max_attempts=3, timeout_s=None,
                      trace_dir=None)
    outcome = collect_outcomes(spool)
    assert len(outcome.outcomes) == len(tasks)
    unfinished = [o for o in outcome.outcomes if not o.ok]
    assert len(unfinished) == 1
    assert "unfinished" in unfinished[0].error
    # The deterministic document still lists every index.
    doc = json.loads(outcome.results_bytes())
    assert [t["index"] for t in doc["tasks"]] == [t.index for t in tasks]


def test_a_version_1_spool_is_refused_on_resume(tmp_path, capsys):
    # A ``repro.sweep-spool/1`` spool kept its liveness in lease files this
    # executor no longer reads: ``--resume`` refuses it by its schema.
    spool = tmp_path / "spool"
    args = ["sweep", "spool_fast", "--param", "x=0,1", "--seed", "3",
            "--spool", str(spool)]
    assert main(args) == 0
    manifest = json.loads((spool / "manifest.json").read_text())
    manifest["schema"] = "repro.sweep-spool/1"
    (spool / "manifest.json").write_text(json.dumps(manifest))
    (spool / "leases").mkdir()
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    assert "unexpected spool schema 'repro.sweep-spool/1'" in \
        capsys.readouterr().err
