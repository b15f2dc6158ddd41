"""The ``run`` entry: one plain LO network run, and its table.

The ``run`` CLI verb is one call of :func:`run_plain`; the ablations under
``results/ablation-*`` are sweeps of it over
:class:`~repro.core.config.LOConfig` fields and a constant latency.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

from repro.core.config import LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.net.latency import ConstantLatencyModel


def run_plain(seed: int, num_nodes: int = 20, rate_per_s: float = 10.0,
              duration_s: float = 10.0, drain_s: float = 5.0,
              enable_blocks: bool = False,
              one_way_latency_s: Optional[float] = None,
              **config: Any) -> Dict[str, Any]:
    """A plain LO network run (the ``run`` CLI verb as a sweepable task).

    Any other parameter is an :class:`~repro.core.config.LOConfig` field
    (``--param sync_fanout=1,3,6``), and ``one_way_latency_s`` replaces
    the latency matrix with one constant delay: the ablations are sweeps
    of this entry.
    """
    sim = LOSimulation(SimulationParams(
        num_nodes=num_nodes, seed=seed, config=LOConfig(**config),
        enable_blocks=enable_blocks,
        latency_model=(None if one_way_latency_s is None
                       else ConstantLatencyModel(one_way_latency_s)),
    ))
    count = sim.inject_workload(rate_per_s=rate_per_s, duration_s=duration_s)
    sim.run(duration_s + drain_s)
    latencies = sim.mempool_tracker.all_latencies()
    return {
        "nodes": num_nodes,
        "transactions": count,
        "mean_mempool_latency_s":
            statistics.mean(latencies) if latencies else None,
        "chain_height":
            sim.nodes[0].ledger.height if enable_blocks else None,
        "overhead_bytes": sim.total_overhead_bytes(),
        "reconciliations": sim.counter.total("reconciliations"),
        "reconciliation_failures":
            sim.counter.total("reconciliation_failures"),
        "false_suspicions": sum(
            len(sim.nodes[i].acct.suspected) for i in sim.correct_ids),
        "exposures": sum(len(n.acct.exposed) for n in sim.nodes.values()),
        "events_processed": sim.loop.processed_events,
    }


def table(tasks: List[Dict[str, Any]]):
    """The ``run`` entry's table: one row per task, led by the parameters
    that vary across the sweep."""
    first = tasks[0]["params"]
    axes = [name for name in sorted(first)
            if any(task["params"][name] != first[name] for task in tasks)]

    def s(value) -> str:
        return "n/a" if value is None else f"{value:.2f}"

    rows = [
        tuple(task["params"][name] for name in axes)
        + (task["seed"], r["transactions"], s(r["mean_mempool_latency_s"]),
           f"{r['overhead_bytes'] / 1e6:.2f}", r["reconciliations"],
           r["reconciliation_failures"], r["false_suspicions"],
           r["exposures"])
        for task in tasks for r in [task["result"]]
    ]
    return [(
        "LO network runs",
        tuple(axes) + ("seed", "txs", "mean_latency_s", "overhead_MB",
                       "decodes", "failures", "false_susp", "exposures"),
        rows,
    )]
