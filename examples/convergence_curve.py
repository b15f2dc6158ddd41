#!/usr/bin/env python3
"""Transaction convergence curves (the story behind Fig. 7).

Tracks single transactions as they spread through the overlay and, once
the run is over, computes from the miners' first-seen times the fraction
of miners that committed each one every 250 ms after its creation.  It
prints the coverage curves plus the reconciliation-hop depth at which
each miner learned them.

Run:  python examples/convergence_curve.py
"""

import statistics

from repro.experiments.fig7_mempool_latency import dissemination_hops
from repro.experiments.harness import LOSimulation, SimulationParams


def main() -> None:
    sim = LOSimulation(SimulationParams(num_nodes=60, seed=17))
    tracked = []

    def create(origin):
        tracked.append(sim.nodes[origin].create_transaction(fee=20))

    for i, origin in enumerate((0, 17, 42)):
        sim.loop.call_at(1.0 + 4.0 * i, create, origin)
    sim.run(25.0)

    tracker = sim.mempool_tracker
    miners = len(sim.nodes)
    print(f"convergence curves (fraction of {miners} miners holding the tx):\n")
    for tx in tracked:
        created = tracker.created_at(tx.sketch_id)
        curve = [
            (0.25 * step,
             tracker.coverage(tx.sketch_id, created + 0.25 * step, miners))
            for step in range(1, 10)
        ]
        points = "  ".join(f"{t:.2f}s:{c:.0%}" for t, c in curve)
        print(f"tx {tx.txid.hex()[:8]}  {points}")
        latencies = tracker.latencies(tx.sketch_id)
        if len(latencies) == miners:
            print(f"  -> full coverage after {max(latencies):.2f}s\n")
        else:
            print(f"  -> {len(latencies)} of {miners} miners by the end\n")

    hops = dissemination_hops(sim)
    print(f"reconciliation hops to reach a miner: mean {statistics.mean(hops):.1f},"
          f" max {max(hops)}")
    print("(paper: convergence after interacting with 5-6 nodes;"
          " mean discovery 1.14 s)")


if __name__ == "__main__":
    main()
