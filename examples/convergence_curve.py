#!/usr/bin/env python3
"""Transaction convergence curves (the story behind Fig. 7).

Tracks single transactions as they spread through the overlay, sampling
the fraction of miners that committed them every 250 ms, and prints the
coverage curve plus the reconciliation-hop depth at which each miner
learned them.

Run:  python examples/convergence_curve.py
"""

import statistics

from repro.experiments.fig7_mempool_latency import dissemination_hops
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.obs.probes import ConvergenceProbe


def main() -> None:
    sim = LOSimulation(SimulationParams(num_nodes=60, seed=17))
    probe = ConvergenceProbe(
        sim.loop, coverage_of=sim.convergence_fraction, period_s=0.25
    )
    probe.start()
    tracked = []

    def create(origin):
        tx = sim.nodes[origin].create_transaction(fee=20)
        probe.track(tx.sketch_id)
        tracked.append(tx)

    for i, origin in enumerate((0, 17, 42)):
        sim.loop.call_at(1.0 + 4.0 * i, create, origin)
    sim.run(25.0)

    print("convergence curves (fraction of 60 miners holding the tx):\n")
    for tx in tracked:
        curve = probe.curve(tx.sketch_id)
        full_at = probe.time_to_coverage(tx.sketch_id)
        points = "  ".join(f"{t:.2f}s:{c:.0%}" for t, c in curve[:9])
        print(f"tx {tx.txid.hex()[:8]}  {points}")
        print(f"  -> full coverage after {full_at:.2f}s\n")

    hops = dissemination_hops(sim)
    print(f"reconciliation hops to reach a miner: mean {statistics.mean(hops):.1f},"
          f" max {max(hops)}")
    print("(paper: convergence after interacting with 5-6 nodes;"
          " mean discovery 1.14 s)")


if __name__ == "__main__":
    main()
