"""Scenario tests lifted directly from the paper's figures.

* Fig. 2: node B reconciles with A then C and must build its block with
  A's transactions ordered before C's (bundle order = commitment order).
* Section 4.2 implementation detail: when the set difference exceeds the
  sketch capacity, reconciliation splits and still converges.
"""

from repro.core.config import LOConfig
from tests.conftest import make_sim


def test_fig2_bundle_order_preserved_in_block():
    # Three "regions": A (node 0), B (node 1), C (node 2).  B learns A's
    # transactions first, C's later; its block must order them that way.
    sim = make_sim(num_nodes=3, config=LOConfig(sync_fanout=2))
    a, b, c = sim.nodes[0], sim.nodes[1], sim.nodes[2]
    # Make the triangle explicit regardless of the sampled topology.
    a.neighbors, b.neighbors, c.neighbors = (1,), (0, 2), (1,)

    tx_a = [a.create_transaction(fee=10) for _ in range(2)]
    sim.run(5.0)  # B reconciles with A (and C hears via B)
    a_pos = [b.log.position(t.sketch_id) for t in tx_a]
    assert all(p is not None for p in a_pos)

    tx_c = [c.create_transaction(fee=10) for _ in range(2)]
    sim.run(10.0)
    c_pos = [b.log.position(t.sketch_id) for t in tx_c]
    assert all(p is not None for p in c_pos)
    # Received order: everything from A precedes everything from C.
    assert max(a_pos) < min(c_pos)

    # B builds: A-derived txs appear before C-derived txs in the block.
    b.on_leader_elected()
    sim.run(12.0)
    block = b.ledger.block_at(0)
    body = list(block.tx_ids)
    idx_a = [body.index(t.sketch_id) for t in tx_a]
    idx_c = [body.index(t.sketch_id) for t in tx_c]
    assert max(idx_a) < min(idx_c)
    # And every node accepts it without exposures.
    for node in sim.nodes.values():
        assert not node.acct.exposed


def test_large_divergence_triggers_split_and_converges():
    config = LOConfig(sketch_capacity=16, min_sketch_capacity=16)
    sim = make_sim(num_nodes=10, config=config)
    left = set(range(5))
    right = set(range(5, 10))
    sim.network.partition([left, right])
    # Push enough disjoint transactions on both sides to exceed capacity.
    for i in range(30):
        sim.inject_at(0.1 + 0.05 * i, i % 5, fee=5)
        sim.inject_at(0.12 + 0.05 * i, 5 + (i % 5), fee=5)
    sim.run(15.0)
    sim.network.heal_partition()
    sim.run(60.0)
    assert sim.counter.total("reconciliation_failures") > 0  # splits happened
    # Everyone still converged on all ~60 transactions.
    items = sim.mempool_tracker.items()
    assert len(items) == 60
    for item in items:
        assert sim.convergence_fraction(item) == 1.0
    # Splitting never produced phantom commitments: every committed id is
    # a real transaction.
    real = set(items)
    for node in sim.nodes.values():
        assert node.log.known_ids() <= real
