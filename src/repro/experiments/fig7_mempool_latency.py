"""Fig. 7: density of the time for a miner to include a tx in its mempool.

Paper: "convergence on the transaction among nodes is achieved after an
interaction with 5 to 6 nodes.  On average, a transaction is discovered by
a node in 1.14 seconds" with the section 6.1 setup (20 tx/s, 250 B txs,
3 reconciliations per node per second).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.stats import Histogram, describe


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

    Module-level and plain-data so it can cross a process boundary: the
    ``fig7_point`` entry in :data:`repro.exec.tasks.EXPERIMENTS`, swept
    once per repetition seed and pooled by :func:`pooled`.
    """
    sim = LOSimulation(SimulationParams(num_nodes=num_nodes, seed=seed))
    sim.inject_workload(rate_per_s=tx_rate_per_s, duration_s=workload_duration_s)
    sim.run(workload_duration_s + drain_s)
    return {
        "latencies": sim.mempool_tracker.all_latencies(),
        "hops": [float(h) for h in dissemination_hops(sim)],
    }


def pooled(tasks: List[Dict[str, Any]]):
    """Each grid point's samples, pooled over its repetitions in seed order.

    Yields ``(params, latencies, hops)``: a sweep lists a point's
    repetitions next to each other, in derivation (seed) order.
    """
    for _key, group in itertools.groupby(
            tasks, key=lambda task: sorted(task["params"].items())):
        group = list(group)
        yield (group[0]["params"],
               [x for task in group for x in task["result"]["latencies"]],
               [x for task in group for x in task["result"]["hops"]])


def table(tasks: List[Dict[str, Any]]):
    """Fig. 7's tables per grid point: the pooled latency summary, its
    density over 40 bins up to 8 s shown as 8 averaged bins, and the
    dissemination-hop summary."""
    sections = []
    for params, latencies, hops in pooled(tasks):
        where = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        summary, hop = describe(latencies), describe(hops)
        histogram = Histogram(0.0, 8.0, 40)
        histogram.add_all(latencies)
        density = histogram.density()
        chunks = [density[i:i + 5] for i in range(0, len(density), 5)]
        sections += [
            (f"Fig. 7 -- mempool inclusion latency ({where})",
             ("metric", "seconds"),
             [(name, f"{summary[name]:.3f}")
              for name in ("mean", "p50", "p90", "p99", "max")]
             + [("samples", int(summary["count"]))]),
            ("Fig. 7 -- latency density (coarse bins)",
             ("bin_centre_s", "density"),
             [(f"{sum(c for c, _d in chunk) / len(chunk):.2f}",
               f"{sum(d for _c, d in chunk) / len(chunk):.3f}")
              for chunk in chunks]),
            ("Fig. 7 companion -- reconciliation hops to reach a miner"
             " (paper: converges after interacting with 5-6 nodes)",
             ("metric", "hops"),
             [("mean", f"{hop['mean']:.2f}"), ("p50", f"{hop['p50']:.1f}"),
              ("p90", f"{hop['p90']:.1f}"), ("max", f"{hop['max']:.0f}")]),
        ]
    return sections
