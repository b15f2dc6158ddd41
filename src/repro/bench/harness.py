"""The ``harness`` bench suite: whole-system simulation throughput.

The ``sketch``/``reconcile`` suites track the hot *kernels*; this suite
tracks the *end-to-end* harness -- how fast a full LO simulation advances
(simulation events per wall second, wall seconds per simulated second)
and how well the :mod:`repro.exec` sweep engine converts extra cores into
sweep throughput (serial vs N-worker wall clock over an identical task
matrix, with the byte-identity of the merged results checked as part of
the run).  Emits ``BENCH_harness.json`` in the ``repro.bench/1`` schema,
giving the repo its first whole-system performance trajectory.

Derived metrics:

* ``events_per_second`` -- simulation events executed per wall second in
  one representative run;
* ``wall_seconds_per_sim_second`` -- wall cost of one simulated second;
* ``large_events_per_second`` -- the same throughput probe on a
  1000-node topology (``sim/run/nodes=1000``), where per-event cost is
  dominated by large-overlay bookkeeping rather than kernel math;
* ``paper_scale_events_per_second`` -- the same probe at the paper's
  cluster size (``sim/run/nodes=10000``); completing this row at all is
  the paper-scale acceptance gate;
* ``fanout_messages_per_second`` -- the ``sim/run/fanout`` micro-case:
  pure ``Network.send_fanout`` + delivery over no-op endpoints, so
  send-path regressions are attributable without protocol noise;
* ``sweep_speedup_workersN`` -- serial wall / N-worker wall for the task
  matrix (bounded by the machine's core count; ~1x or below on one core);
* ``sweep_workers`` -- the N used (min(4, cpu count));
* ``sweep_results_identical`` -- 1.0 iff the parallel merge was
  byte-identical to the serial document (a 0.0 is a bug, not a perf
  regression);
* ``spool_resume_overhead_s`` -- wall cost of resuming a fully drained
  spool (``repro.exec.spool``): the fixed scan-and-merge price an
  interrupted sweep pays on restart, with zero task re-execution;
* ``spool_results_identical`` -- 1.0 iff the spool-backed merge matched
  the serial document byte for byte.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from repro.bench.runner import BenchResult, bench_case

SuiteOutput = Tuple[List[BenchResult], Dict[str, float], Dict[str, Any]]


def _sim_params(quick: bool) -> Dict[str, Any]:
    return {
        "num_nodes": 12 if quick else 24,
        "rate_per_s": 5.0 if quick else 10.0,
        "duration_s": 4.0 if quick else 8.0,
        "drain_s": 2.0,
    }


def _large_sim_params(quick: bool) -> Dict[str, Any]:
    # The node count is the point; the tx workload stays small because
    # per-event cost at 1000 nodes is ~10x the 24-node run's.
    return {
        "num_nodes": 1000,
        "rate_per_s": 5.0 if quick else 20.0,
        "duration_s": 1.0 if quick else 2.0,
        "drain_s": 0.5 if quick else 1.0,
    }


def _paper_scale_params(quick: bool) -> Dict[str, Any]:
    # The paper's evaluation ran on a 10,000-node cluster; this row proves
    # the engine completes a seeded run at that scale.  The simulated
    # horizon stays short: 10,000 nodes ticking once a second already
    # yields tens of thousands of events per simulated second.
    return {
        "num_nodes": 10000,
        "rate_per_s": 2.0 if quick else 20.0,
        "duration_s": 0.5 if quick else 1.0,
        "drain_s": 0.25 if quick else 0.5,
    }


def _task_grid(quick: bool) -> Dict[str, Any]:
    # 4 (quick) / 8 tasks of a small but non-trivial simulation each.
    return {"num_nodes": [8, 10] if quick else [8, 10, 12, 14]}


def harness_suite(quick: bool = False, seed: int = 42) -> SuiteOutput:
    """End-to-end simulation + sweep-engine benchmarks.

    Returns ``(results, derived, params)`` like the other suites.  The
    headline derived numbers are ``events_per_second`` (single-run
    throughput) and ``sweep_speedup_workersN`` (multiprocess scaling of
    the experiment executor).
    """
    from repro.exec import derive_tasks, run_sweep
    from repro.exec.tasks import run_plain

    results: List[BenchResult] = []
    derived: Dict[str, float] = {}
    repeats = 1 if quick else 2

    # --- one full simulation run ---------------------------------------
    sim_kwargs = _sim_params(quick)
    sim_seconds = sim_kwargs["duration_s"] + sim_kwargs["drain_s"]
    probe = run_plain(seed=seed, **sim_kwargs)
    events = int(probe["events_processed"])

    def one_run():
        run_plain(seed=seed, **sim_kwargs)

    case = bench_case(
        f"sim/run/nodes={sim_kwargs['num_nodes']}", one_run,
        params=dict(sim_kwargs, seed=seed, events=events,
                    sim_seconds=sim_seconds),
        iterations=1, repeats=repeats, ops_per_call=events,
    )
    results.append(case)
    run_seconds = case.seconds_per_op * events  # whole-run wall seconds
    derived["events_per_second"] = case.ops_per_second
    derived["wall_seconds_per_sim_second"] = (
        run_seconds / sim_seconds if sim_seconds else 0.0
    )

    # --- large topology: 1000 nodes ------------------------------------
    # Same probe at the paper-scale node count; the workload is kept small
    # (events scale with rate x duration x overlay fan-out) so the full
    # suite stays in the tens of seconds while still exercising the
    # large-overlay hot path end to end.
    large_kwargs = _large_sim_params(quick)
    large_seconds = large_kwargs["duration_s"] + large_kwargs["drain_s"]
    large_probe = run_plain(seed=seed, **large_kwargs)
    large_events = int(large_probe["events_processed"])

    def one_large_run():
        run_plain(seed=seed, **large_kwargs)

    large_case = bench_case(
        f"sim/run/nodes={large_kwargs['num_nodes']}", one_large_run,
        params=dict(large_kwargs, seed=seed, events=large_events,
                    sim_seconds=large_seconds),
        iterations=1, repeats=repeats, ops_per_call=large_events,
    )
    results.append(large_case)
    derived["large_events_per_second"] = large_case.ops_per_second

    # --- paper scale: 10,000 nodes -------------------------------------
    # The committed row CI requires via --require-case: a seeded run at
    # the paper's cluster size must complete.
    paper_kwargs = _paper_scale_params(quick)
    paper_seconds = paper_kwargs["duration_s"] + paper_kwargs["drain_s"]
    paper_probe = run_plain(seed=seed, **paper_kwargs)
    paper_events = int(paper_probe["events_processed"])

    def one_paper_run():
        run_plain(seed=seed, **paper_kwargs)

    paper_case = bench_case(
        f"sim/run/nodes={paper_kwargs['num_nodes']}", one_paper_run,
        params=dict(paper_kwargs, seed=seed, events=paper_events,
                    sim_seconds=paper_seconds),
        iterations=1, repeats=repeats, ops_per_call=paper_events,
    )
    results.append(paper_case)
    derived["paper_scale_events_per_second"] = paper_case.ops_per_second

    # --- send-path micro-case: fan-outs over no-op endpoints -----------
    # Isolates Network.send_fanout + EventLoop delivery from all protocol
    # work, so a per-message cost added to the delivery path shows up here
    # even when the end-to-end rows hide it behind handler cost.
    import random as _random

    from repro.net.latency import CityLatencyModel
    from repro.net.network import Endpoint, Network
    from repro.sim.loop import EventLoop

    class _Sink(Endpoint):
        def __init__(self, node_id: int):
            self.node_id = node_id

        def on_message(self, message) -> None:
            pass

    fanout_nodes = 64 if quick else 256
    fanout_k = 8
    fanout_rounds = 500 if quick else 2000
    fanout_messages = fanout_rounds * fanout_k

    def one_fanout_run():
        loop = EventLoop()
        network = Network(
            loop, CityLatencyModel(fanout_nodes, _random.Random(seed))
        )
        for node_id in range(fanout_nodes):
            network.register(_Sink(node_id))
        recipients = list(range(1, fanout_k + 1))
        for _ in range(fanout_rounds):
            network.send_fanout(0, recipients, "bench/fanout", None, 64)
            loop.run_until(loop.now + 0.5)

    fanout_case = bench_case(
        "sim/run/fanout", one_fanout_run,
        params={"nodes": fanout_nodes, "fanout": fanout_k,
                "rounds": fanout_rounds, "seed": seed},
        iterations=1, repeats=repeats, ops_per_call=fanout_messages,
    )
    results.append(fanout_case)
    derived["fanout_messages_per_second"] = fanout_case.ops_per_second

    # --- sweep engine: serial vs N workers -----------------------------
    grid = _task_grid(quick)
    repetitions = 2
    tasks = derive_tasks("run", grid, base_seed=seed,
                         repetitions=repetitions)
    workers = min(4, os.cpu_count() or 1)
    merged: Dict[int, bytes] = {}

    def sweep_with(n: int):
        def run():
            merged[n] = run_sweep(tasks, workers=n).results_bytes()
        return run

    serial_case = bench_case(
        f"sweep/serial/tasks={len(tasks)}", sweep_with(1),
        params={"tasks": len(tasks), "grid": grid,
                "repetitions": repetitions, "workers": 1},
        iterations=1, repeats=repeats, ops_per_call=len(tasks),
    )
    results.append(serial_case)
    parallel_case = bench_case(
        f"sweep/workers={workers}/tasks={len(tasks)}", sweep_with(workers),
        params={"tasks": len(tasks), "grid": grid,
                "repetitions": repetitions, "workers": workers},
        iterations=1, repeats=repeats, ops_per_call=len(tasks),
    )
    results.append(parallel_case)

    derived["sweep_workers"] = float(workers)
    derived["sweep_tasks"] = float(len(tasks))
    derived["sweep_serial_wall_s"] = serial_case.seconds_per_op * len(tasks)
    derived[f"sweep_workers{workers}_wall_s"] = (
        parallel_case.seconds_per_op * len(tasks)
    )
    if parallel_case.seconds_per_op > 0:
        derived[f"sweep_speedup_workers{workers}"] = (
            serial_case.seconds_per_op / parallel_case.seconds_per_op
        )
    derived["sweep_results_identical"] = float(merged[1] == merged[workers])

    # --- spool backend: durable-run overhead + resume cost -------------
    # A completed spool makes ``resume`` a pure skip-and-merge pass (scan
    # the directory, read every result, reassemble the document) -- the
    # fixed price an interrupted sweep pays on restart, with zero task
    # re-execution.  ``spool_resume_overhead_s`` tracks that price.
    import tempfile

    from repro.exec.spool import run_spool_sweep

    with tempfile.TemporaryDirectory() as spool_root:
        spool_dir = os.path.join(spool_root, "spool")
        spool_outcome = run_spool_sweep(spool_dir, tasks, workers=1)
        resume_case = bench_case(
            f"sweep/spool_resume/tasks={len(tasks)}",
            lambda: run_spool_sweep(spool_dir, tasks, workers=1,
                                    resume=True),
            params={"tasks": len(tasks), "grid": grid,
                    "repetitions": repetitions},
            iterations=1, repeats=repeats, ops_per_call=len(tasks),
        )
    results.append(resume_case)
    derived["spool_resume_overhead_s"] = (
        resume_case.seconds_per_op * len(tasks)
    )
    derived["spool_results_identical"] = float(
        spool_outcome.results_bytes() == merged[1]
    )

    params = {"quick": quick, "seed": seed, "sim": sim_kwargs,
              "sim_large": large_kwargs, "sim_paper": paper_kwargs,
              "fanout": {"nodes": fanout_nodes, "fanout": fanout_k,
                         "rounds": fanout_rounds},
              "grid": grid, "repetitions": repetitions, "workers": workers}
    return results, derived, params
