"""Serial vs parallel equivalence on real experiments.

The acceptance property of the sweep executor: for a fixed sweep
specification, ``workers=N`` must produce a merged document
*byte-identical* to ``workers=1`` -- and the experiment runners' own
``workers`` parameter must leave their results (and any downstream
aggregation, e.g. ``repeat_scalar`` mean/std) exactly unchanged.

Worker fan-out is real multiprocessing even on a single-core machine;
these tests assert correctness, not speedup (that lives in CI's
sweep-smoke job on 4-core runners, via ``--check-serial --min-speedup``).
"""

from repro.exec import derive_tasks, run_sweep
from repro.experiments.fig6_detection import run_fig6
from repro.experiments.fig9_bandwidth import run_fig9
from repro.experiments.fig7_mempool_latency import run_fig7
from repro.experiments.repeat import repeat_scalar
from repro.experiments.sec65_cpu import run_cpu_sweep
from repro.obs.report import to_jsonable

WORKERS = 4


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
    kwargs = dict(num_nodes=10, fractions=[0.1, 0.2], seed=5)
    serial = run_fig6(**kwargs, workers=1)
    parallel = run_fig6(**kwargs, workers=WORKERS)
    assert to_jsonable(serial) == to_jsonable(parallel)


def test_fig9_parallel_equals_serial():
    kwargs = dict(num_nodes=10, tx_rate_per_s=3.0, workload_duration_s=3.0,
                  drain_s=2.0, seed=5)
    serial = run_fig9(**kwargs, workers=1)
    parallel = run_fig9(**kwargs, workers=WORKERS)
    assert to_jsonable(serial) == to_jsonable(parallel)
    # The post-merge ratio fill-in must behave identically too.
    assert parallel.by_protocol()["lo"].ratio_vs_lo == 1.0


def test_fig7_repetitions_parallel_equals_serial():
    kwargs = dict(num_nodes=10, tx_rate_per_s=3.0, workload_duration_s=3.0,
                  drain_s=3.0, seed=5, repetitions=2)
    serial = run_fig7(**kwargs, workers=1)
    parallel = run_fig7(**kwargs, workers=WORKERS)
    assert to_jsonable(serial) == to_jsonable(parallel)
    # Pooling is real: two repetitions contribute more samples than one.
    single = run_fig7(**{**kwargs, "repetitions": 1})
    assert serial.summary["count"] > single.summary["count"]


def test_cpu_sweep_parallel_equals_serial_on_deterministic_fields():
    kwargs = dict(differences=[4, 8], partition_capacity=16, seed=5)
    serial = run_cpu_sweep(**kwargs, workers=1)
    parallel = run_cpu_sweep(**kwargs, workers=WORKERS)
    # Wall-clock timings are machine noise either way; the deterministic
    # surface (which differences were reconciled, and how many partitioned
    # sketches each decode took) must match exactly.
    def surface(result):
        return [(p.difference, p.partitioned_sketches)
                for p in result.points]
    assert surface(serial) == surface(parallel)
    assert [p.difference for p in serial.points] == [4, 8]


def _fig7_run(seed):
    # Module-level so the parallel path can ship it to worker processes.
    return run_fig7(num_nodes=10, tx_rate_per_s=3.0, workload_duration_s=3.0,
                    drain_s=3.0, seed=seed)


def test_repeat_scalar_parallel_mean_std_identical():
    run = _fig7_run
    extract = {
        "mean_latency": lambda r: r.summary["mean"],
        "samples": lambda r: r.summary["count"],
    }
    serial = repeat_scalar(run, extract, base_seed=7, repetitions=3)
    parallel = repeat_scalar(run, extract, base_seed=7, repetitions=3,
                             workers=WORKERS)
    assert serial == parallel  # exact float equality, mean and std included
