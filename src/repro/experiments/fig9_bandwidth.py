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
from dataclasses import dataclass, field
from typing import Dict, List

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
    ratio_vs_lo: float = 0.0


@dataclass
class Fig9Result:
    """All four protocol measurements."""

    rows: List[ProtocolBandwidth] = field(default_factory=list)

    def by_protocol(self) -> Dict[str, ProtocolBandwidth]:
        return {row.protocol: row for row in self.rows}


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

    ``ratio_vs_lo`` is left at 0.0 -- it is a cross-protocol quantity,
    filled in by :func:`run_fig9` once the LO measurement is known.
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


def run_fig9(
    num_nodes: int = 60,
    tx_rate_per_s: float = 10.0,
    workload_duration_s: float = 15.0,
    drain_s: float = 5.0,
    seed: int = 42,
) -> Fig9Result:
    """Measure overhead for the four protocols on identical workloads."""
    rows = [
        run_protocol_point(protocol=name, num_nodes=num_nodes,
                           tx_rate_per_s=tx_rate_per_s,
                           workload_duration_s=workload_duration_s,
                           drain_s=drain_s, seed=seed)
        for name in PROTOCOLS
    ]
    lo_overhead = rows[0].overhead_bytes
    for row in rows:
        if row.protocol == "lo":
            row.ratio_vs_lo = 1.0
        else:
            row.ratio_vs_lo = (
                row.overhead_bytes / lo_overhead if lo_overhead else 0.0
            )
    return Fig9Result(rows=rows)
