"""Section 6.5: memory overhead of commitments.

Paper numbers: "Under a workload of 120 transactions per minute, the
commitment size is approximately 1.17 KB.  This size increases with the
workload, reaching around 9.36 KB under a workload of 24,000 transactions
per minute.  Notably, even under extreme conditions where a miner may need
to store the commitments of all 10,000 nodes in the network, the total
memory required would only amount to roughly 87 MB"; and from the
abstract/intro: "up to 10 MB of additional storage for a network of 10,000
nodes and a workload of 20 transactions per second".

We measure the same quantities from the running protocol: the average
serialized size of an exchanged commitment (header + adaptively sized
sketch) per workload level, and extrapolations for storing one commitment
per network member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.experiments.harness import LOSimulation, SimulationParams


@dataclass
class MemoryPoint:
    """Commitment-size measurements at one workload level."""

    tx_per_minute: float
    avg_commitment_bytes: float          # mean sync message body (hdr+sketch)
    max_commitment_bytes: int
    per_neighbor_store_bytes: float      # latest commitment per neighbour
    extrapolated_10k_nodes_mb: float     # storing one per 10,000 members


def run_memory_point(
    tx_per_minute: float,
    num_nodes: int = 40,
    duration_s: float = 30.0,
    seed: int = 42,
) -> MemoryPoint:
    """Measure commitment sizes under one workload."""
    sim = LOSimulation(SimulationParams(num_nodes=num_nodes, seed=seed))
    sizes: List[int] = []

    def record(message) -> bool:
        if message.msg_type in ("lo/sync_req", "lo/sync_resp"):
            sizes.append(message.wire_bytes)
        return True

    sim.network.add_delivery_hook(record)
    sim.inject_workload(rate_per_s=tx_per_minute / 60.0, duration_s=duration_s)
    sim.run(duration_s)
    avg = sum(sizes) / len(sizes) if sizes else 0.0
    return MemoryPoint(
        tx_per_minute=tx_per_minute,
        avg_commitment_bytes=avg,
        max_commitment_bytes=max(sizes) if sizes else 0,
        per_neighbor_store_bytes=avg * 8,          # 8 overlay neighbours
        extrapolated_10k_nodes_mb=avg * 10_000 / 1e6,
    )


def table(tasks: List[Dict[str, Any]]):
    """Section 6.5's memory table: one row per ``memory_point`` task."""
    rows = [
        (f"{r['tx_per_minute']:.0f}", task["seed"],
         f"{r['avg_commitment_bytes']:.0f}", r["max_commitment_bytes"],
         f"{r['per_neighbor_store_bytes'] / 1e3:.2f}",
         f"{r['extrapolated_10k_nodes_mb']:.1f}")
        for task in tasks for r in [task["result"]]
    ]
    return [(
        "Sec. 6.5 -- commitment sizes vs workload",
        ("tx/min", "seed", "avg_B", "max_B", "8-neighbor_KB", "10k-node_MB"),
        rows,
    )]
