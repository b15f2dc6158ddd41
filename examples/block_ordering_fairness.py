#!/usr/bin/env python3
"""Ordering fairness: FIFO (LO) vs Highest-Fee block building (Fig. 8).

LO's canonical policy includes every committed transaction in received
order; today's fee-priority policy auctions scarce blockspace, starving
low-fee transactions.  This example reproduces the Fig. 8 comparison and
prints an ASCII latency histogram so the fat tail is visible.

Run:  python examples/block_ordering_fairness.py
"""

from repro.experiments.fig8_block_latency import run_policy
from repro.obs.stats import Histogram


def ascii_histogram(latencies, low=0.0, high=60.0, bins=12, width=44):
    hist = Histogram(low, high, bins)
    hist.add_all(latencies)
    peak = max(hist.counts) or 1
    lines = []
    for i, count in enumerate(hist.counts):
        lo = low + i * (high - low) / bins
        bar = "#" * int(round(width * count / peak))
        lines.append(f"  {lo:5.1f}s |{bar:<{width}}| {count}")
    if hist.overflow:
        lines.append(f"  >{high:4.0f}s |{'#' * 3:<{width}}| {hist.overflow}")
    return "\n".join(lines)


def main() -> None:
    print("Fig. 8 reproduction: tx-to-block latency by ordering policy")
    print("(40 nodes, 5 tx/s, 12 s per-miner block time, 4 proposers)\n")
    results = {}
    for policy in ("fifo", "highest_fee"):
        results[policy] = run_policy(
            policy, num_nodes=40, tx_rate_per_s=5.0, workload_duration_s=60.0
        )
    for policy, outcome in results.items():
        s = outcome.summary
        print(f"== {policy} ==")
        print(
            f"mean {s['mean']:.1f}s  p50 {s['p50']:.1f}s  p90 {s['p90']:.1f}s"
            f"  p99 {s['p99']:.1f}s  std {s['std']:.1f}s"
        )
        print(ascii_histogram(outcome.latencies))
        print()
    fifo = results["fifo"].summary
    fee = results["highest_fee"].summary
    print(
        f"mean ratio highest_fee/fifo: {fee['mean'] / fifo['mean']:.1f}x"
        f" (paper: ~2.5x); std ratio: {fee['std'] / fifo['std']:.1f}x"
    )
    print(
        "LO's FIFO serves every transaction within a block or two;"
        " fee priority leaves a starved low-fee tail."
    )


if __name__ == "__main__":
    main()
