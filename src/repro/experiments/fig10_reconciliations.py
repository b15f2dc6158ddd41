"""Fig. 10: average sketch reconciliations per minute vs workload.

Paper section 6.5: with hash-partitioning, the number of sketch decodes per
node per minute grows with the transaction workload but stays bounded --
each failed full-mempool decode is replaced by a handful of cheap
partition decodes instead of a single expensive (or impossible) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.experiments.harness import LOSimulation, SimulationParams


@dataclass
class ReconciliationPoint:
    """One workload point of Fig. 10."""

    tx_per_minute: float
    reconciliations_per_node_per_min: float
    failures_per_node_per_min: float
    failure_fraction: float


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


def table(tasks: List[Dict[str, Any]]):
    """Fig. 10's table: one row per point of a ``fig10_point`` sweep."""
    rows = [
        (f"{r['tx_per_minute']:.0f}", task["seed"],
         f"{r['reconciliations_per_node_per_min']:.1f}",
         f"{r['failures_per_node_per_min']:.1f}",
         f"{r['failure_fraction']:.1%}")
        for task in tasks for r in [task["result"]]
    ]
    return [(
        "Fig. 10 -- sketch reconciliations per node per minute",
        ("tx/min", "seed", "recon/node/min", "failures/min", "failure_frac"),
        rows,
    )]
