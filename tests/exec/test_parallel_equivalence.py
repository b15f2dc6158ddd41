"""Serial vs parallel equivalence on real experiments.

The acceptance property of the sweep executor: for a fixed sweep
specification, ``workers=N`` must produce a merged document
*byte-identical* to ``workers=1``.  A figure's parallel form is a sweep
of its registered entry, so a ``workers=4`` sweep must also reproduce
the serial figure runner point for point (and repetition for
repetition).

Worker fan-out is real multiprocessing even on a single-core machine;
these tests assert correctness, not speedup (that lives in CI's
sweep-smoke job on 4-core runners, via ``--check-serial --min-speedup``).
"""

from repro.exec import derive_tasks, run_sweep
from repro.experiments.fig6_detection import run_fig6
from repro.experiments.fig7_mempool_latency import run_fig7
from repro.experiments.fig9_bandwidth import run_fig9
from repro.experiments.fig10_reconciliations import run_fig10
from repro.experiments.repeat import derive_seeds
from repro.experiments.sec65_cpu import run_cpu_sweep
from repro.experiments.sec65_memory import run_memory_sweep
from repro.obs.report import to_jsonable

WORKERS = 4


def _parallel_results(experiment, grid, seed, repetitions=1):
    """Results of a ``WORKERS``-process sweep, in derivation order."""
    tasks = derive_tasks(experiment, grid, base_seed=seed,
                         repetitions=repetitions)
    outcome = run_sweep(tasks, workers=WORKERS)
    assert not outcome.failed(), [o.error for o in outcome.failed()]
    return [o.result for o in outcome.outcomes]


def test_sweep_byte_identity_on_simulation_tasks():
    # Real LOSimulation runs (the "run" experiment), 4 tasks, 4 workers;
    # the grid overrides the runner defaults to keep each task small.
    tasks = derive_tasks(
        "run",
        {"num_nodes": [6, 8], "rate_per_s": [3.0], "duration_s": [2.0],
         "drain_s": [2.0]},
        base_seed=21,
        repetitions=2,
    )
    serial = run_sweep(tasks, workers=1)
    parallel = run_sweep(tasks, workers=WORKERS)
    assert not serial.failed() and not parallel.failed()
    assert serial.results_bytes() == parallel.results_bytes()


def test_fig6_parallel_equals_serial():
    serial = run_fig6(num_nodes=10, fractions=[0.1, 0.2], seed=5)
    parallel = _parallel_results(
        "fig6_point", {"malicious_fraction": [0.1, 0.2], "num_nodes": [10]},
        seed=5,
    )
    assert parallel == to_jsonable(serial.points)


def test_fig9_parallel_equals_serial():
    # Two repetitions of the whole figure: repetition i is run_fig9 at
    # the i-th derived seed, vs-LO ratios included.
    params = dict(num_nodes=10, tx_rate_per_s=3.0, workload_duration_s=3.0,
                  drain_s=2.0)
    parallel = _parallel_results(
        "fig9", {name: [value] for name, value in params.items()}, seed=5,
        repetitions=2,
    )
    serial = [run_fig9(**params, seed=s) for s in derive_seeds(5, 2)]
    assert parallel == to_jsonable(serial)
    assert parallel[0] != parallel[1]
    lo = next(row for row in parallel[0]["rows"] if row["protocol"] == "lo")
    assert lo["ratio_vs_lo"] == 1.0


def test_fig7_repetitions_parallel_equals_serial():
    params = dict(num_nodes=10, tx_rate_per_s=3.0, workload_duration_s=3.0,
                  drain_s=3.0)
    serial = run_fig7(**params, seed=5, repetitions=2)
    points = _parallel_results(
        "fig7_point", {name: [value] for name, value in params.items()},
        seed=5, repetitions=2,
    )
    pooled = [latency for point in points for latency in point["latencies"]]
    assert pooled == serial.latencies
    # Pooling is real: two repetitions contribute more samples than one.
    single = run_fig7(**params, seed=5)
    assert serial.summary["count"] > single.summary["count"]


def test_fig10_parallel_equals_serial():
    serial = run_fig10(workloads_tx_per_minute=[60, 120], num_nodes=8,
                       duration_s=4.0, seed=5)
    parallel = _parallel_results(
        "fig10_point",
        {"tx_per_minute": [60, 120], "num_nodes": [8], "duration_s": [4.0]},
        seed=5,
    )
    assert parallel == to_jsonable(serial.points)


def test_memory_parallel_equals_serial():
    serial = run_memory_sweep(workloads_tx_per_minute=[60, 120], num_nodes=6,
                              duration_s=3.0, seed=5)
    parallel = _parallel_results(
        "memory_point",
        {"tx_per_minute": [60, 120], "num_nodes": [6], "duration_s": [3.0]},
        seed=5,
    )
    assert parallel == to_jsonable(serial.points)


def test_cpu_sweep_parallel_equals_serial_on_deterministic_fields():
    serial = run_cpu_sweep(differences=[4, 8], partition_capacity=16, seed=5)
    parallel = _parallel_results(
        "cpu", {"difference": [4, 8], "partition_capacity": [16]}, seed=5,
    )
    # Wall-clock timings are machine noise either way; the deterministic
    # surface (which differences were reconciled, and how many partitioned
    # sketches each decode took) must match exactly.
    assert [(p["difference"], p["partitioned_sketches"]) for p in parallel] \
        == [(p.difference, p.partitioned_sketches) for p in serial.points]
    assert [p["difference"] for p in parallel] == [4, 8]
