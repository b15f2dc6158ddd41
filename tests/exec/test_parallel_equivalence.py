"""Serial vs parallel equivalence on real experiments.

The acceptance property of the sweep executor: for a fixed sweep
specification, ``workers=N`` must produce a merged document
*byte-identical* to ``workers=1``.  Every figure entry is held to the
same property by the gate that re-makes its committed document under
``results/`` with two workers (``tests/gates/test_committed_documents.py``).

Worker fan-out is real multiprocessing even on a single-core machine;
these tests assert correctness, not speedup (that lives in CI's
sweep-smoke job on 4-core runners, via ``--check-serial --min-speedup``).
"""

from repro.exec import derive_tasks, run_sweep

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
