"""Paper-scale smoke: a seeded 10,000-node run completes and is sane.

The paper's evaluation ran LO on a 10,000-node cluster (section 6.1).
This suite proves the simulator actually reaches that node count inside
a test budget -- the simulated horizon is tiny, so the run is dominated
by topology construction, the per-tick reconciliation fan-outs, and heap
traffic.
"""

import pytest

from repro.experiments.plain_run import run_plain

PAPER_NODES = 10_000


@pytest.mark.slow
def test_ten_thousand_node_run_completes():
    summary = run_plain(
        seed=1234,
        num_nodes=PAPER_NODES,
        rate_per_s=5.0,
        duration_s=0.6,
        drain_s=0.4,
    )
    assert summary["nodes"] == PAPER_NODES
    # First sync ticks are jittered across the first simulated second, so
    # a one-second horizon gives every node at least one timer firing.
    assert summary["events_processed"] > PAPER_NODES
    assert summary["overhead_bytes"] > 0
    # Temporal accuracy at scale: nobody is exposed in a fault-free run.
    assert summary["exposures"] == 0


@pytest.mark.slow
def test_ten_thousand_node_run_is_seed_deterministic():
    kwargs = dict(seed=77, num_nodes=PAPER_NODES, rate_per_s=1.0,
                  duration_s=0.2, drain_s=0.1)
    first = run_plain(**kwargs)
    second = run_plain(**kwargs)
    assert first == second
