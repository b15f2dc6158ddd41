"""Fig. 10: average sketch reconciliations per minute vs workload.

Paper section 6.5: with hash-partitioning, the number of sketch decodes per
node per minute grows with the transaction workload but stays bounded --
each failed full-mempool decode is replaced by a handful of cheap
partition decodes instead of a single expensive (or impossible) one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.harness import LOSimulation, SimulationParams


@dataclass
class ReconciliationPoint:
    """One workload point of Fig. 10."""

    tx_per_minute: float
    reconciliations_per_node_per_min: float
    failures_per_node_per_min: float
    failure_fraction: float


@dataclass
class Fig10Result:
    """Full workload sweep."""

    points: List[ReconciliationPoint] = field(default_factory=list)


def run_fig10_point(
    tx_per_minute: float,
    num_nodes: int = 50,
    duration_s: float = 30.0,
    seed: int = 42,
) -> ReconciliationPoint:
    """Measure decode counts at one workload level."""
    sim = LOSimulation(SimulationParams(num_nodes=num_nodes, seed=seed))
    sim.inject_workload(
        rate_per_s=tx_per_minute / 60.0, duration_s=duration_s
    )
    sim.run(duration_s)
    minutes = duration_s / 60.0
    total = sim.counter.total("reconciliations")
    failures = sim.counter.total("reconciliation_failures")
    per_node_min = total / num_nodes / minutes
    return ReconciliationPoint(
        tx_per_minute=tx_per_minute,
        reconciliations_per_node_per_min=per_node_min,
        failures_per_node_per_min=failures / num_nodes / minutes,
        failure_fraction=failures / total if total else 0.0,
    )


def run_fig10(
    workloads_tx_per_minute: Optional[List[float]] = None,
    num_nodes: int = 50,
    duration_s: float = 30.0,
    seed: int = 42,
) -> Fig10Result:
    """Sweep the workload as in Fig. 10."""
    workloads = workloads_tx_per_minute or [30, 120, 300, 600, 1200]
    return Fig10Result(points=[
        run_fig10_point(tx_per_minute=workload, num_nodes=num_nodes,
                        duration_s=duration_s, seed=seed)
        for workload in workloads
    ])
