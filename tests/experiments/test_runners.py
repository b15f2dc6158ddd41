"""Smoke tests for every experiment runner (tiny parameters).

The benchmarks exercise the paper-scale shapes; these tests pin the
runners' interfaces and sanity invariants at toy scale so refactors fail
fast without waiting on minute-scale simulations.
"""

import math

from repro.experiments.fig6_detection import run_detection_point
from repro.experiments.fig7_mempool_latency import run_fig7
from repro.experiments.fig8_block_latency import run_policy
from repro.experiments.fig9_bandwidth import run_fig9
from repro.experiments.fig10_reconciliations import run_fig10
from repro.experiments.sec65_cpu import make_sets, run_cpu_comparison
from repro.experiments.sec65_memory import run_memory_point


def test_fig6_point_converges():
    point = run_detection_point(
        num_nodes=16, malicious_fraction=0.15, tx_rate_per_s=3.0,
        horizon_s=40.0,
    )
    assert point.num_malicious == 2
    assert point.exposure_convergence_at is not None
    assert point.suspicion_convergence_at is not None
    assert point.first_exposure_at <= point.exposure_convergence_at
    assert point.exposure_spread_s >= 0


def test_fig7_density_and_summary():
    result = run_fig7(num_nodes=15, tx_rate_per_s=4.0,
                      workload_duration_s=5.0, drain_s=5.0, bins=10)
    assert result.summary["count"] == len(result.latencies)
    assert len(result.density) == 10
    width = 8.0 / 10
    mass = sum(d * width for _c, d in result.density)
    assert math.isclose(mass, 1.0, rel_tol=1e-6)


def test_fig8_policy_latency():
    outcome = run_policy("fifo", num_nodes=12, tx_rate_per_s=3.0,
                         workload_duration_s=20.0)
    assert outcome.policy == "fifo"
    assert outcome.summary["count"] > 10
    assert all(lat >= 0 for lat in outcome.latencies)


def test_fig9_rows_complete():
    result = run_fig9(num_nodes=15, tx_rate_per_s=3.0,
                      workload_duration_s=5.0, drain_s=3.0)
    protocols = {row.protocol for row in result.rows}
    assert protocols == {"lo", "flood", "peerreview", "narwhal"}
    lo = result.by_protocol()["lo"]
    assert lo.ratio_vs_lo == 1.0
    assert all(row.overhead_bytes > 0 for row in result.rows)


def test_fig10_point_counts_reconciliations():
    point = run_fig10_smoke()
    assert point.reconciliations_per_node_per_min > 0
    assert 0 <= point.failure_fraction <= 1


def run_fig10_smoke():
    result = run_fig10(workloads_tx_per_minute=[120], num_nodes=12,
                       duration_s=10.0)
    return result.points[0]


def test_sec65_memory_point():
    point = run_memory_point(tx_per_minute=180, num_nodes=12, duration_s=10.0)
    assert point.avg_commitment_bytes > 100  # header alone is 176+ bytes
    assert point.max_commitment_bytes >= point.avg_commitment_bytes
    assert point.extrapolated_10k_nodes_mb > 0


def test_sec65_cpu_comparison():
    result = run_cpu_comparison(difference=32, partition_capacity=8)
    assert result.naive_seconds > 0
    assert result.partitioned_seconds > 0
    assert result.partitioned_sketches >= 1
    assert result.speedup > 0


def test_sec65_naive_decode_runs_the_full_root_search(monkeypatch):
    """Section 6.5 times the whole decoder: no candidates, so the roots of
    the degree-32 locator are searched for by the Frobenius chain."""
    from repro.experiments.sec65_cpu import time_naive
    from repro.sketch.gf import GF2Tower32

    chains = []
    frobenius_chain = GF2Tower32.frobenius_chain

    def counting_chain(self, q):
        chains.append(len(q) - 1)
        return frobenius_chain(self, q)

    monkeypatch.setattr(GF2Tower32, "frobenius_chain", counting_chain)
    a, b = make_sets(difference=32)
    assert time_naive(a, b, capacity=32) > 0
    assert chains and chains[0] == 32


def test_make_sets_exact_difference():
    a, b = make_sets(difference=20, common=50, seed=3)
    assert len(a ^ b) == 20
    assert len(a & b) == 50


def test_fig7_dissemination_hops():
    from repro.experiments.fig7_mempool_latency import dissemination_hops
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=12)
    sim.inject_at(0.3, 0, fee=10)
    sim.run(10.0)
    hops = dissemination_hops(sim)
    # 11 non-origin miners each learned it through >=1 reconciliation.
    assert len(hops) == 11
    assert all(1 <= h <= 11 for h in hops)
    result = run_fig7(num_nodes=12, tx_rate_per_s=3.0,
                      workload_duration_s=5.0, drain_s=5.0)
    assert result.hops_summary["count"] > 0
    assert result.hops_summary["mean"] >= 1.0
