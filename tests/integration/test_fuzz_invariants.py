"""Randomized protocol fuzz: core invariants across random small worlds.

Each case randomizes population, workload and fault-free event timing from
a hypothesis-chosen seed, runs the full stack for a short horizon, and
checks the invariants that must hold in ANY all-correct execution:

* no blames (accuracy);
* append-only logs whose sketches match their contents;
* commitment headers self-consistent along each node's own history;
* settled chains identical across nodes when blocks are enabled: heights
  differ by at most one, and every node holds the same blocks up to the
  lowest height any node reached (a block minted within a propagation
  delay of the horizon may not have reached everybody yet).
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.net.latency import ConstantLatencyModel


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=4, max_value=14),
    num_txs=st.integers(min_value=1, max_value=8),
    blocks=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Node 3 mints block 3 less than a propagation delay before the horizon:
# heights 2, 2, 2, 3, 2, one settled chain.
@example(seed=194, num_nodes=5, num_txs=1, blocks=True)
def test_random_correct_worlds_hold_invariants(seed, num_nodes, num_txs, blocks):
    sim = LOSimulation(
        SimulationParams(
            num_nodes=num_nodes,
            seed=seed,
            config=LOConfig(mean_block_time_s=4.0),
            latency_model=ConstantLatencyModel(0.02),
            enable_blocks=blocks,
        )
    )
    for i in range(num_txs):
        sim.inject_at(0.2 + 0.5 * i, (seed + i) % num_nodes, fee=1 + i)
    sim.run(18.0)

    items = set(sim.mempool_tracker.items())
    for node in sim.nodes.values():
        # Accuracy: nobody blamed anybody.
        assert not node.acct.exposed
        # Log integrity: the incremental sketches decode to the log set,
        # and no phantom ids were ever committed.
        known = node.log.known_ids()
        assert known <= items
        assert node.log.full_sketch(capacity=64).decode() == known
        # Own commitment history is internally consistent.
        header = node.header()
        assert header.signature_valid()
        assert header.tx_count == len(node.log)
        assert header.seq == len(node.bundles)
        for earlier_seq in range(0, node.seq, max(1, node.seq // 3)):
            earlier = node.header_at(earlier_seq)
            if earlier is not None:
                assert earlier.consistent_with(header)
    # Convergence: every injected tx reached every node.
    for item in items:
        assert sim.convergence_fraction(item) == 1.0
    # One settled chain: nobody lags by more than the block in flight, and
    # all hold the same block at the lowest height (ledgers are hash-linked,
    # so that block pins the whole common prefix).
    heights = [node.ledger.height for node in sim.nodes.values()]
    assert max(heights) - min(heights) <= 1, heights
    if min(heights) >= 0:
        assert len({node.ledger.block_at(min(heights)).block_hash
                    for node in sim.nodes.values()}) == 1
