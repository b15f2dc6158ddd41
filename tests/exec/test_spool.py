"""Spool-backed sweeps: crash recovery, lease atomicity, resume identity.

The acceptance properties of ``repro.exec.spool``:

* a spool sweep interrupted at any point (worker SIGKILL, coordinator
  death modelled as a partial drain) resumes to a merged ``repro.sweep/1``
  document *byte-identical* to the uninterrupted serial run;
* a stale lease is reclaimed within one lease-timeout and the task is
  retried under the backoff budget;
* concurrent claimants can never double-claim one task (lease-file
  atomicity);
* a task that exhausts ``max_attempts`` is parked -- recorded in the
  merged document, never fatal to the sweep.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (
    EXPERIMENTS,
    SpoolConfig,
    SpoolError,
    derive_tasks,
    register_experiment,
    run_spool_sweep,
    run_sweep,
    spool_status,
    spool_worker_loop,
)
from repro.exec.spool import (
    claim_task,
    collect_outcomes,
    init_spool,
    load_manifest,
    load_tasks,
    reclaim_stale,
    release_lease,
)
from repro.exec.worker import preserved_process_state

# Tight liveness knobs so recovery paths run in test time.
FAST = SpoolConfig(heartbeat_s=0.05, lease_timeout_s=0.25, max_attempts=3,
                   backoff_base_s=0.01, backoff_cap_s=0.05, poll_s=0.02)


def _fast_experiment(seed, **params):
    return {"seed": seed, "square": seed * seed, **params}


def _crashing_experiment(seed, **params):
    # The derived repetition-1 seed (>= 1000) kills its process outright --
    # what a segfault or OOM-kill looks like from outside.
    if seed >= 1000:
        os._exit(3)
    return {"seed": seed}


def _blocking_experiment(seed, block_file="", **params):
    # Spins while the sentinel file exists, so a test can hold a task
    # "mid-flight" for as long as it needs, then release it.
    while block_file and os.path.exists(block_file):
        time.sleep(0.02)
    return {"seed": seed}


def _sleeping_experiment(seed, sleep_s=0.0, **params):
    time.sleep(sleep_s)
    return {"seed": seed}


def _wedged_experiment(seed, **params):
    # Out of reach of the in-worker timeout: SIGALRM is blocked, so only
    # the coordinator's hard deadline can end this task early.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(30.0)
    return {"seed": seed}


@pytest.fixture(autouse=True)
def _registered_probes():
    # Register the probe experiments, and restore the process-global state
    # that direct in-process ``spool_worker_loop`` calls reset per task
    # (``run_spool_sweep`` does this itself; raw loop calls do not).
    probes = {
        "spool_fast": _fast_experiment,
        "spool_crash": _crashing_experiment,
        "spool_block": _blocking_experiment,
        "spool_wedge": _wedged_experiment,
        "spool_sleep": _sleeping_experiment,
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


# ------------------------------------------------------------ happy paths


def test_spool_sweep_byte_identical_to_serial(tmp_path):
    tasks = _tasks()
    serial = run_sweep(tasks, workers=1)
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=1,
                              config=FAST)
    assert outcome.results_bytes() == serial.results_bytes()
    assert outcome.spool["completed"] == len(tasks)
    assert outcome.spool["parked"] == 0


def test_spool_multiworker_byte_identical_to_serial(tmp_path):
    tasks = _tasks(n_points=3)
    serial = run_sweep(tasks, workers=1)
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=3,
                              config=FAST)
    assert outcome.results_bytes() == serial.results_bytes()
    assert not outcome.failed()


def test_resume_after_partial_drain_matches_serial(tmp_path):
    # Coordinator-death model: the first run drains only part of the spool
    # (as if killed), a second invocation resumes and completes the rest.
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=3)
    serial = run_sweep(tasks, workers=1)
    init_spool(spool, tasks)
    executed = spool_worker_loop(spool, config=FAST, max_tasks=2)
    assert executed == 2
    assert spool_status(spool)["pending"] == len(tasks) - 2

    outcome = run_spool_sweep(spool, tasks, workers=1, config=FAST,
                              resume=True)
    assert outcome.results_bytes() == serial.results_bytes()
    # Already-completed indices were skipped, not re-run.
    assert outcome.spool["attempts"] == len(tasks)


def test_resume_with_tasks_reloaded_from_spool(tmp_path):
    # A resuming process needs nothing but the directory: the task list
    # round-trips through the spooled spec files.
    spool = str(tmp_path / "spool")
    tasks = _tasks()
    run_spool_sweep(spool, tasks, workers=1, config=FAST)
    assert load_tasks(spool) == tasks
    outcome = run_spool_sweep(spool, None, workers=1, config=FAST,
                              resume=True)
    assert outcome.results_bytes() == run_sweep(tasks, workers=1).results_bytes()


# ------------------------------------------------------- crash recovery


def test_sigkilled_worker_is_reclaimed_retried_and_identical(tmp_path):
    # A real worker process is SIGKILLed mid-task; its lease must go
    # stale, be reclaimed within one lease timeout, and the task re-run --
    # with the final merge byte-identical to the serial run.
    spool = str(tmp_path / "spool")
    block = str(tmp_path / "block")
    with open(block, "w"):
        pass
    tasks = derive_tasks("spool_block", {"block_file": [block]}, base_seed=3,
                         repetitions=2)
    init_spool(spool, tasks)

    proc = multiprocessing.get_context("fork").Process(
        target=spool_worker_loop, args=(spool,),
        kwargs={"config": FAST}, daemon=True,
    )
    proc.start()
    deadline = time.time() + 10.0
    while True:  # wait for a fully recorded claim (lease AND attempt count)
        status = spool_status(spool)
        if status["leased"] > 0 and status["attempts"] > 0:
            break
        assert time.time() < deadline, "worker never claimed a task"
        time.sleep(0.02)
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5.0)

    # The dead worker's lease expires and is reclaimed for retry.
    time.sleep(FAST.effective_lease_timeout_s + 0.1)
    reclaimed = reclaim_stale(spool, FAST)
    assert reclaimed, "stale lease was not reclaimed"
    status = spool_status(spool)
    assert status["leased"] == 0
    assert status["reclaims"] >= 1

    os.unlink(block)  # release: retries now complete instantly
    outcome = run_spool_sweep(spool, tasks, workers=1, config=FAST,
                              resume=True)
    serial = run_sweep(tasks, workers=1)
    assert outcome.results_bytes() == serial.results_bytes()
    retried = [o for o in outcome.outcomes if o.attempts > 1]
    assert retried, "the killed task should record the extra attempt"
    assert outcome.execution_doc()["tasks_retried"] >= 1


def test_deterministic_crasher_is_parked_not_fatal(tmp_path):
    # seed >= 1000 (repetition 1) kills its worker every time; the task
    # must burn its budget, be parked, and leave the rest of the sweep
    # (and the merged document) intact.  Default config: waiting out the
    # 15 s lease timeout per crash would take 45 s, but the coordinator
    # reclaims a dead worker's lease as soon as it exits, so only the
    # 1 s + 2 s backoffs stand between the three attempts.
    tasks = _tasks(n_points=2, experiment="spool_crash")
    start = time.perf_counter()
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2)
    assert time.perf_counter() - start < 6.0
    crashed = [o for o in outcome.outcomes if o.task.seed >= 1000]
    survived = [o for o in outcome.outcomes if o.task.seed < 1000]
    assert all(o.parked and not o.ok for o in crashed)
    assert all(o.attempts == SpoolConfig().max_attempts for o in crashed)
    assert all("worker process crashed (exit code 3)" in o.error
               for o in crashed)
    assert all(o.ok for o in survived)
    doc = outcome.results_doc()
    assert doc["parked"] == sorted(o.task.index for o in crashed)
    parked_records = [t for t in doc["tasks"] if not t["ok"]]
    assert all("parked" in r["error"] for r in parked_records)
    execution = outcome.execution_doc()
    assert execution["tasks_parked"] == len(crashed)
    assert execution["spool"]["parked"] == len(crashed)
    assert execution["spool"]["worker_restarts"] >= 1


def test_wedged_worker_killed_at_hard_deadline(tmp_path):
    # The task ignores its 0.5 s SIGALRM and its heartbeat keeps the lease
    # alive; the coordinator kills it at 2 x 0.5 + 5 = 6 s.
    tasks = derive_tasks("spool_wedge", {}, base_seed=3)
    start = time.perf_counter()
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2,
                              timeout_s=0.5,
                              config=SpoolConfig(max_attempts=1))
    assert time.perf_counter() - start < 10.0
    (wedged,) = outcome.outcomes
    assert wedged.parked and wedged.timeout and not wedged.ok
    assert "hard deadline" in wedged.error
    assert outcome.spool["worker_restarts"] == 1


def test_late_claim_in_a_long_pass_is_not_reclaimed_or_killed(tmp_path):
    # One worker pass walks the whole task list, so with two workers each
    # pass lasts the full ~6.6 s sweep: longer than the 0.3 s lease timeout
    # and the 2 x 0.5 + 5 = 6 s hard deadline.  A claim made late in the
    # pass is fresh all the same: nothing is reclaimed, killed or re-run.
    config = SpoolConfig(heartbeat_s=0.05, lease_timeout_s=0.3, poll_s=0.02)
    tasks = derive_tasks("spool_sleep", {"x": list(range(22)),
                                         "sleep_s": [0.3]},
                         base_seed=3, repetitions=2)
    outcome = run_spool_sweep(str(tmp_path / "spool"), tasks, workers=2,
                              timeout_s=0.5, config=config)
    assert not outcome.failed()
    assert all(o.attempts == 1 for o in outcome.outcomes)
    assert outcome.spool["reclaims"] == 0
    assert outcome.spool["worker_restarts"] == 0


def test_heartbeat_keeps_long_task_from_being_reclaimed(tmp_path):
    # A slow-but-alive task renews its lease; a reclaimer sweeping well
    # past the lease timeout must leave it alone.
    spool = str(tmp_path / "spool")
    block = str(tmp_path / "block")
    with open(block, "w"):
        pass
    tasks = derive_tasks("spool_block", {"block_file": [block]}, base_seed=3)
    init_spool(spool, tasks)
    worker = threading.Thread(
        target=spool_worker_loop, args=(spool,),
        kwargs={"config": FAST, "reclaim": False}, daemon=True,
    )
    worker.start()
    try:
        deadline = time.time() + 10.0
        while spool_status(spool)["leased"] == 0:
            assert time.time() < deadline
            time.sleep(0.02)
        time.sleep(FAST.effective_lease_timeout_s + 0.2)
        assert reclaim_stale(spool, FAST) == []
        assert spool_status(spool)["leased"] == 1
    finally:
        os.unlink(block)
        worker.join(timeout=10.0)
    assert spool_status(spool)["pending"] == 0


def test_reclaim_applies_retry_backoff(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=1, repetitions=1)
    init_spool(spool, tasks)
    config = SpoolConfig(heartbeat_s=0.05, lease_timeout_s=0.1,
                         max_attempts=3, backoff_base_s=30.0)
    now = time.time()
    assert claim_task(spool, 0, "owner-a", config, now=now) is not None
    # Fake a dead owner: heartbeat frozen at claim time, clock far ahead.
    reclaimed = reclaim_stale(spool, config, now=now + 5.0)
    assert reclaimed == [0]
    # Inside the backoff window the task is not claimable...
    assert claim_task(spool, 0, "owner-b", config, now=now + 6.0) is None
    # ...after it elapses, it is.
    assert claim_task(spool, 0, "owner-b", config,
                      now=now + 5.0 + 31.0) is not None


# -------------------------------------------------------- lease atomicity


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(claimants=st.integers(min_value=2, max_value=10),
       indices=st.integers(min_value=1, max_value=3))
def test_concurrent_claimants_never_double_claim(tmp_path_factory,
                                                 claimants, indices):
    # N threads race to claim each task through the same atomic-link
    # protocol real workers use; exactly one winner per task, always.
    spool = str(tmp_path_factory.mktemp("spool-race") / "spool")
    tasks = _tasks(n_points=indices, repetitions=1)
    init_spool(spool, tasks)
    config = SpoolConfig(heartbeat_s=5.0)
    for index in range(indices):
        wins = []
        barrier = threading.Barrier(claimants)

        def attempt(owner_id, index=index, wins=wins, barrier=barrier):
            barrier.wait()
            lease = claim_task(spool, index, f"owner-{owner_id}", config)
            if lease is not None:
                wins.append(lease["owner"])

        threads = [threading.Thread(target=attempt, args=(i,))
                   for i in range(claimants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1, f"task {index} claimed {len(wins)} times"
        release_lease(spool, index)


def test_claim_respects_results_parked_and_live_leases(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=1, repetitions=1)
    init_spool(spool, tasks)
    config = SpoolConfig()
    lease = claim_task(spool, 0, "owner-a", config)
    assert lease is not None and lease["attempt"] == 1
    # Live lease blocks a second claim.
    assert claim_task(spool, 0, "owner-b", config) is None
    release_lease(spool, 0)
    # A published result blocks claims forever.
    run_spool_sweep(spool, tasks, workers=1, config=FAST, resume=True)
    assert claim_task(spool, 0, "owner-b", config) is None


# --------------------------------------------------------------- guards


def test_fresh_run_refuses_existing_spool(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=1)
    run_spool_sweep(spool, tasks, workers=1, config=FAST)
    with pytest.raises(SpoolError, match="resume"):
        run_spool_sweep(spool, tasks, workers=1, config=FAST)


def test_resume_refuses_missing_and_mismatched_spools(tmp_path):
    with pytest.raises(SpoolError, match="nothing to resume"):
        run_spool_sweep(str(tmp_path / "nope"), _tasks(), resume=True)
    spool = str(tmp_path / "spool")
    run_spool_sweep(spool, _tasks(n_points=1), workers=1, config=FAST)
    other = derive_tasks("spool_fast", {"x": [99]}, base_seed=8)
    with pytest.raises(SpoolError, match="fingerprint"):
        run_spool_sweep(spool, other, resume=True, config=FAST)


def test_manifest_records_schema_and_meta(tmp_path):
    spool = str(tmp_path / "spool")
    init_spool(spool, _tasks(n_points=1), meta={"experiment": "spool_fast"})
    manifest = load_manifest(spool)
    assert manifest["schema"] == "repro.sweep-spool/1"
    assert manifest["meta"]["experiment"] == "spool_fast"
    assert manifest["tasks_total"] == 2


def test_collect_reports_unfinished_tasks_without_dropping(tmp_path):
    spool = str(tmp_path / "spool")
    tasks = _tasks(n_points=2, repetitions=1)
    init_spool(spool, tasks)
    spool_worker_loop(spool, config=FAST, max_tasks=1)
    outcome = collect_outcomes(spool)
    assert len(outcome.outcomes) == len(tasks)
    unfinished = [o for o in outcome.outcomes if not o.ok]
    assert len(unfinished) == 1
    assert "unfinished" in unfinished[0].error
    # The deterministic document still lists every index.
    doc = json.loads(outcome.results_bytes())
    assert [t["index"] for t in doc["tasks"]] == [t.index for t in tasks]
