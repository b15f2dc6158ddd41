"""Smoke tests for every experiment entry and figure table (tiny
parameters).

The committed documents under ``results/`` hold the paper-scale shapes
(``tests/experiments/test_documents.py``); these tests pin the point
runners' interfaces, sanity invariants and the tables' arithmetic across
tasks at toy scale, so refactors fail fast.
"""

import math

from repro.exec import derive_tasks, run_sweep
from repro.experiments import fig7_mempool_latency, fig9_bandwidth
from repro.experiments.fig6_detection import run_detection_point
from repro.experiments.fig7_mempool_latency import run_fig7_point
from repro.experiments.fig8_block_latency import run_policy
from repro.experiments.fig10_reconciliations import run_fig10_point
from repro.experiments.sec65_cpu import make_sets, run_cpu_comparison
from repro.experiments.sec65_memory import run_memory_point
from repro.obs.stats import Histogram


def _tasks(experiment, grid, seed=42, repetitions=1):
    """A serial sweep's task records, as a committed document lists them."""
    outcome = run_sweep(derive_tasks(experiment, grid, base_seed=seed,
                                     repetitions=repetitions))
    return outcome.results_doc()["tasks"]


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
    point = run_fig7_point(seed=42, num_nodes=15, tx_rate_per_s=4.0,
                           workload_duration_s=5.0, drain_s=5.0)
    histogram = Histogram(0.0, 8.0, 10)
    histogram.add_all(point["latencies"])
    density = histogram.density()
    assert len(density) == 10
    width = 8.0 / 10
    mass = sum(d * width for _c, d in density)
    assert math.isclose(mass, 1.0, rel_tol=1e-6)
    task = {"seed": 42, "params": {}, "result": point}
    summary, _density, _hops = fig7_mempool_latency.table([task])
    assert summary[2][-1] == ("samples", len(point["latencies"]))


def test_fig7_table_pools_repetitions_in_seed_order():
    tasks = _tasks("fig7_point", {"num_nodes": [8, 10], "tx_rate_per_s": [3.0],
                                  "workload_duration_s": [3.0],
                                  "drain_s": [3.0]}, seed=5, repetitions=2)
    points = list(fig7_mempool_latency.pooled(tasks))
    # One pool per grid point, each its two repetitions in seed order.
    assert [p["num_nodes"] for p, _l, _h in points] == [8, 10]
    for (params, latencies, hops), pair in zip(points, (tasks[:2], tasks[2:])):
        assert [t["seed"] for t in pair] == [5, 1005]
        assert latencies == (pair[0]["result"]["latencies"]
                             + pair[1]["result"]["latencies"])
        assert hops == pair[0]["result"]["hops"] + pair[1]["result"]["hops"]
        assert len(latencies) > len(pair[0]["result"]["latencies"])
    sections = fig7_mempool_latency.table(tasks)
    assert len(sections) == 6  # summary, density and hops per point
    assert sections[0][2][-1] == ("samples", len(points[0][1]))


def test_fig9_table_ratio_is_against_the_lo_row_of_the_same_seed():
    tasks = _tasks("fig9_point", {
        "protocol": ["flood", "lo"], "num_nodes": [8], "tx_rate_per_s": [3.0],
        "workload_duration_s": [2.0], "drain_s": [1.0]}, seed=5,
        repetitions=2)
    lo = {t["seed"]: t["result"]["overhead_bytes"] for t in tasks
          if t["params"]["protocol"] == "lo"}
    assert len(set(lo.values())) == 2  # the two seeds differ
    ratios = fig9_bandwidth.ratios_vs_lo(tasks)
    for task, ratio in zip(tasks, ratios):
        assert ratio == task["result"]["overhead_bytes"] / lo[task["seed"]]
    assert [r for t, r in zip(tasks, ratios)
            if t["params"]["protocol"] == "lo"] == [1.0, 1.0]
    # Without an LO row there is nothing to divide by.
    assert fig9_bandwidth.ratios_vs_lo(tasks[:2]) == [None, None]
    rows = fig9_bandwidth.table(tasks[:2])[0][2]
    assert [row[4] for row in rows] == ["n/a", "n/a"]


def test_fig8_policy_latency():
    outcome = run_policy("fifo", num_nodes=12, tx_rate_per_s=3.0,
                         workload_duration_s=20.0)
    assert outcome.policy == "fifo"
    assert outcome.summary["count"] > 10
    assert all(lat >= 0 for lat in outcome.latencies)


def test_fig9_rows_complete():
    tasks = _tasks("fig9_point", {
        "protocol": list(fig9_bandwidth.PROTOCOLS), "num_nodes": [15],
        "tx_rate_per_s": [3.0], "workload_duration_s": [5.0],
        "drain_s": [3.0]})
    rows = fig9_bandwidth.table(tasks)[0][2]
    assert [row[0] for row in rows] == ["lo", "flood", "peerreview",
                                        "narwhal"]
    assert rows[0][4] == "1.0x"
    assert all(t["result"]["overhead_bytes"] > 0 for t in tasks)


def test_fig10_point_counts_reconciliations():
    point = run_fig10_point(tx_per_minute=120, num_nodes=12, duration_s=10.0)
    assert point.reconciliations_per_node_per_min > 0
    assert 0 <= point.failure_fraction <= 1


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
    point = run_fig7_point(seed=42, num_nodes=12, tx_rate_per_s=3.0,
                           workload_duration_s=5.0, drain_s=5.0)
    assert point["hops"] and min(point["hops"]) >= 1.0
