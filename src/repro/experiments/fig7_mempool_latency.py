"""Fig. 7: density of the time for a miner to include a tx in its mempool.

Paper: "convergence on the transaction among nodes is achieved after an
interaction with 5 to 6 nodes.  On average, a transaction is discovered by
a node in 1.14 seconds" with the section 6.1 setup (20 tx/s, 250 B txs,
3 reconciliations per node per second).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.stats import Histogram, describe


@dataclass
class Fig7Result:
    """Latency density, summary statistics, and dissemination hop counts.

    ``hops_summary`` covers the paper's companion claim that "convergence
    on the transaction among nodes is achieved after an interaction with 5
    to 6 nodes": for every (transaction, miner) pair we walk the bundle
    provenance chain back to the origin and count the pairwise
    reconciliations involved.
    """

    latencies: List[float]
    summary: Dict[str, float]
    density: List[Tuple[float, float]]  # (bin centre seconds, density)
    hops_summary: Dict[str, float]


def dissemination_hops(sim: LOSimulation, max_txs: int = 200) -> List[int]:
    """Reconciliation-hop counts from each miner back to each tx's origin.

    A transaction's origin committed it in a bundle with no source peer;
    every other miner's bundle names the peer it reconciled with.  The
    per-(tx, miner) hop count is the provenance-chain length -- the number
    of pairwise interactions the transaction crossed.
    """
    hops: List[int] = []
    items = sim.mempool_tracker.items()[:max_txs]
    source_cache: Dict[Tuple[int, int], Optional[int]] = {}

    def source_of(node_id: int, sketch_id: int) -> Optional[int]:
        key = (node_id, sketch_id)
        if key not in source_cache:
            source = None
            for bundle in sim.nodes[node_id].bundles:
                if sketch_id in bundle.ids:
                    source = bundle.source_peer
                    break
            source_cache[key] = source
        return source_cache[key]

    for sketch_id in items:
        for node_id in sim.nodes:
            if sketch_id not in sim.nodes[node_id].log:
                continue
            count = 0
            current = node_id
            seen = {current}
            while True:
                source = source_of(current, sketch_id)
                if source is None or source in seen:
                    break
                count += 1
                seen.add(source)
                current = source
            if count > 0:
                hops.append(count)
    return hops


def run_fig7_point(
    seed: int,
    num_nodes: int = 100,
    tx_rate_per_s: float = 20.0,
    workload_duration_s: float = 20.0,
    drain_s: float = 10.0,
) -> Dict[str, List[float]]:
    """One seed's raw samples: inclusion latencies + dissemination hops.

    Module-level and plain-data so it can cross a process boundary -- this
    is the unit :func:`run_fig7` fans out per repetition seed and the
    ``fig7_point`` entry in :data:`repro.exec.tasks.EXPERIMENTS`.
    """
    sim = LOSimulation(SimulationParams(num_nodes=num_nodes, seed=seed))
    sim.inject_workload(rate_per_s=tx_rate_per_s, duration_s=workload_duration_s)
    sim.run(workload_duration_s + drain_s)
    return {
        "latencies": sim.mempool_tracker.all_latencies(),
        "hops": [float(h) for h in dissemination_hops(sim)],
    }


def run_fig7(
    num_nodes: int = 100,
    tx_rate_per_s: float = 20.0,
    workload_duration_s: float = 20.0,
    drain_s: float = 10.0,
    seed: int = 42,
    bins: int = 40,
    max_latency_s: float = 8.0,
    repetitions: int = 1,
    workers: int = 1,
) -> Fig7Result:
    """Run the workload and collect per-(tx, miner) inclusion latencies.

    ``repetitions > 1`` repeats the run at derived seeds (the paper's
    repetition protocol) and pools every sample into one density;
    ``workers > 1`` fans the repetition simulations across worker
    processes via :func:`repro.exec.map_points`.  Samples come back in
    seed order, so the pooled result is identical to the serial run.
    """
    from repro.exec.engine import map_points
    from repro.experiments.repeat import derive_seeds

    calls = [
        {"seed": s, "num_nodes": num_nodes, "tx_rate_per_s": tx_rate_per_s,
         "workload_duration_s": workload_duration_s, "drain_s": drain_s}
        for s in derive_seeds(seed, repetitions)
    ]
    points = map_points(run_fig7_point, calls, workers=workers)
    latencies = [l for point in points for l in point["latencies"]]
    hops = [h for point in points for h in point["hops"]]
    histogram = Histogram(0.0, max_latency_s, bins)
    histogram.add_all(latencies)
    return Fig7Result(
        latencies=latencies,
        summary=describe(latencies),
        density=histogram.density(),
        hops_summary=describe(hops),
    )
