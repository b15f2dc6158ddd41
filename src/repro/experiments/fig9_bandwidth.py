"""Fig. 9: bandwidth overhead of LO vs Flood, PeerReview and Narwhal.

Same workload, topology and latencies for all four protocols; transaction
content bytes are excluded ("we omit the bandwidth overhead for sharing
transactions, as it is the same for all three protocols").  The paper's
comparison ran Narwhal at 200 nodes; the expected ordering is

    LO  <  Flood (>=4x LO)  <  Narwhal (7-10x LO)  <  PeerReview (~20x LO)

with Narwhal trading its bandwidth for 1-2 s better latency.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.baselines import (
    BaselineSimulation,
    FloodNode,
    NarwhalNode,
    PeerReviewNode,
)
from repro.experiments.harness import LOSimulation, SimulationParams


@dataclass
class ProtocolBandwidth:
    """One bar of Fig. 9."""

    protocol: str
    overhead_bytes: int
    overhead_bytes_per_node_per_s: float
    mean_latency_s: float


PROTOCOLS = ("lo", "flood", "peerreview", "narwhal")

_BASELINES = {
    "flood": FloodNode,
    "peerreview": PeerReviewNode,
    "narwhal": NarwhalNode,
}


def run_protocol_point(
    protocol: str,
    num_nodes: int = 60,
    tx_rate_per_s: float = 10.0,
    workload_duration_s: float = 15.0,
    drain_s: float = 5.0,
    seed: int = 42,
) -> ProtocolBandwidth:
    """Measure one protocol's overhead/latency on the shared workload.

    The ratio to LO is a cross-protocol quantity: :func:`table` takes it
    against the LO row of the same seed.
    """
    horizon = workload_duration_s + drain_s
    if protocol == "lo":
        sim = LOSimulation(SimulationParams(num_nodes=num_nodes, seed=seed))
        sim.inject_workload(
            rate_per_s=tx_rate_per_s, duration_s=workload_duration_s
        )
        sim.run(horizon)
        latencies = sim.mempool_tracker.all_latencies()
        overhead = sim.total_overhead_bytes()
    else:
        sim = BaselineSimulation(
            _BASELINES[protocol], num_nodes=num_nodes, seed=seed
        )
        sim.inject_workload(tx_rate_per_s, workload_duration_s)
        sim.run(horizon)
        latencies = sim.tracker.all_latencies()
        overhead = sim.total_overhead_bytes()
    return ProtocolBandwidth(
        protocol=protocol,
        overhead_bytes=overhead,
        overhead_bytes_per_node_per_s=overhead / num_nodes / horizon,
        mean_latency_s=statistics.mean(latencies) if latencies else 0.0,
    )


def ratios_vs_lo(tasks: List[Dict[str, Any]]) -> List[Any]:
    """Each task's overhead over the LO task of the same seed and other
    parameters (None without such a row, or when LO sent nothing)."""
    def key(task):
        params = {k: v for k, v in task["params"].items() if k != "protocol"}
        return task["seed"], tuple(sorted(params.items()))

    lo = {key(t): t["result"]["overhead_bytes"] for t in tasks
          if t["result"]["protocol"] == "lo"}
    return [
        t["result"]["overhead_bytes"] / lo[key(t)] if lo.get(key(t)) else None
        for t in tasks
    ]


def table(tasks: List[Dict[str, Any]]):
    """Fig. 9's table: one row per task of a ``fig9_point`` sweep over
    ``protocol``, with its overhead against the same seed's LO row."""
    rows = [
        (r["protocol"], task["seed"], f"{r['overhead_bytes'] / 1e6:.2f}",
         f"{r['overhead_bytes_per_node_per_s'] / 1e3:.2f}",
         "n/a" if ratio is None else f"{ratio:.1f}x",
         f"{r['mean_latency_s']:.2f}")
        for task, ratio in zip(tasks, ratios_vs_lo(tasks))
        for r in [task["result"]]
    ]
    return [(
        "Fig. 9 -- bandwidth overhead (tx content bytes excluded)",
        ("protocol", "seed", "overhead_MB", "KB/node/s", "vs_LO",
         "mean_latency_s"),
        rows,
    )]
