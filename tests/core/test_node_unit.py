"""Unit-level tests of LONode behaviour on tiny networks."""

import random
from types import SimpleNamespace

import pytest

from repro.bloomclock import BloomClock
from repro.core.config import LOConfig
from repro.core.reconciliation import SplitSpec, full_range_spec
from tests.conftest import make_sim


def drain(sim, seconds=5.0):
    sim.run(sim.loop.now + seconds)


def test_local_transaction_committed_and_stored():
    sim = make_sim(num_nodes=4)
    node = sim.nodes[0]
    tx = node.create_transaction(fee=10)
    assert tx.sketch_id in node.log
    assert node.log.content_of(tx.sketch_id) is tx
    assert node.seq == 1
    assert node.bundles[0].source_peer is None


def test_invalid_client_transaction_rejected():
    sim = make_sim(num_nodes=4)
    node = sim.nodes[0]
    from repro.mempool.transaction import Transaction

    tx = node.create_transaction(fee=10)
    forged = Transaction(
        sender=tx.sender,
        nonce=tx.nonce + 1,
        fee=tx.fee,
        size_bytes=tx.size_bytes,
        created_at=tx.created_at,
        payload=tx.payload,
        signature=tx.signature,
    )
    assert not sim.nodes[1].receive_client_transaction(forged)
    assert forged.sketch_id not in sim.nodes[1].log


def test_duplicate_client_submission_ignored():
    sim = make_sim(num_nodes=4)
    node = sim.nodes[0]
    tx = node.create_transaction(fee=10)
    assert not node.receive_client_transaction(tx)
    assert node.seq == 1


def test_transaction_propagates_to_all_nodes():
    sim = make_sim(num_nodes=8)
    tx = sim.nodes[0].create_transaction(fee=10)
    drain(sim, 8.0)
    for node in sim.nodes.values():
        assert tx.sketch_id in node.log
        assert node.log.content_of(tx.sketch_id) is not None


def test_commitment_headers_observed_by_peers():
    sim = make_sim(num_nodes=6)
    sim.nodes[0].create_transaction(fee=10)
    drain(sim, 6.0)
    key0 = sim.nodes[0].public_key
    observers = sum(
        1
        for nid, node in sim.nodes.items()
        if nid != 0 and node.acct.store_for(key0).latest is not None
    )
    assert observers >= 3  # overlay neighbours saw node 0's commitment


def test_bundle_provenance_recorded():
    sim = make_sim(num_nodes=6)
    tx = sim.nodes[0].create_transaction(fee=10)
    drain(sim, 8.0)
    # Some node learned the tx from a peer: its bundle names that peer.
    for nid, node in sim.nodes.items():
        if nid == 0:
            continue
        bundle = next(
            (b for b in node.bundles if tx.sketch_id in b.ids), None
        )
        assert bundle is not None
        assert bundle.source_peer is not None


def test_header_caching_and_refresh():
    sim = make_sim(num_nodes=4)
    node = sim.nodes[0]
    empty = node.header()
    assert node.header() is empty  # cached
    node.create_transaction(fee=5)
    refreshed = node.header()
    assert refreshed.seq == empty.seq + 1
    assert node.header_at(empty.seq).digests == empty.digests


def test_no_false_accusations_in_correct_network():
    sim = make_sim(num_nodes=10)
    sim.inject_at(0.5, 0, fee=10)
    sim.inject_at(1.0, 3, fee=20)
    drain(sim, 20.0)
    for node in sim.nodes.values():
        assert not node.acct.exposed
        assert not node.acct.suspected


def test_crashed_node_becomes_suspected():
    sim = make_sim(num_nodes=6)
    sim.network.crash(2)
    sim.nodes[0].create_transaction(fee=10)
    drain(sim, 25.0)
    key2 = sim.directory.key_of(2)
    suspecters = sum(
        1
        for nid in sim.nodes
        if nid != 2 and sim.nodes[nid].acct.is_suspected(key2)
    )
    assert suspecters >= len(sim.nodes) - 2  # everyone (suspicion spreads)


def test_recovered_node_is_unsuspected_eventually():
    config = LOConfig()
    sim = make_sim(num_nodes=6, config=config)
    sim.network.crash(2)
    sim.nodes[0].create_transaction(fee=10)
    drain(sim, 25.0)
    key2 = sim.directory.key_of(2)
    assert any(
        sim.nodes[nid].acct.is_suspected(key2) for nid in sim.nodes if nid != 2
    )
    sim.network.recover(2)
    drain(sim, 30.0)
    # Temporal accuracy: the recovered node answers pending requests
    # (through new syncs) and stops being suspected by its contacts.
    still = [
        nid
        for nid in sim.nodes
        if nid != 2 and sim.nodes[nid].acct.is_suspected(key2)
    ]
    assert len(still) < len(sim.nodes) - 2


def test_leader_builds_canonical_block_and_peers_accept():
    sim = make_sim(num_nodes=6)
    txs = [sim.nodes[i % 6].create_transaction(fee=10) for i in range(5)]
    drain(sim, 8.0)
    sim.nodes[3].on_leader_elected()
    drain(sim, 5.0)
    heights = {node.ledger.height for node in sim.nodes.values()}
    assert heights == {0}
    block = sim.nodes[0].ledger.block_at(0)
    assert set(block.tx_ids) == {t.sketch_id for t in txs}
    for node in sim.nodes.values():
        assert not node.acct.exposed  # clean block, no exposures


def test_sequential_blocks_settle_in_order():
    sim = make_sim(num_nodes=6)
    sim.nodes[0].create_transaction(fee=10)
    drain(sim, 5.0)
    sim.nodes[1].on_leader_elected()
    drain(sim, 3.0)
    sim.nodes[2].create_transaction(fee=10)
    drain(sim, 5.0)
    sim.nodes[4].on_leader_elected()
    drain(sim, 3.0)
    for node in sim.nodes.values():
        assert node.ledger.height == 1
    # Second block must not repeat the settled tx of the first.
    b0 = sim.nodes[0].ledger.block_at(0)
    b1 = sim.nodes[0].ledger.block_at(1)
    assert not (set(b0.tx_ids) & set(b1.tx_ids))


def test_highest_fee_policy_flag():
    sim = make_sim(num_nodes=5)
    for node in sim.nodes.values():
        node.block_policy = "highest_fee"
        node.inspection_enabled = False
    fees = [5, 80, 30]
    for i, fee in enumerate(fees):
        sim.nodes[i].create_transaction(fee=fee)
    drain(sim, 6.0)
    sim.nodes[0].on_leader_elected()
    drain(sim, 3.0)
    block = sim.nodes[1].ledger.block_at(0)
    block_fees = [
        sim.nodes[1].log.content_of(i).fee for i in block.tx_ids
    ]
    assert block_fees == sorted(block_fees, reverse=True)


def _counts_of_every_cell(node, spec):
    """Own counts with an entry for every cell of the spec, empty or not."""
    return {
        cell: sum(1 for i in node.log.items_in_cells((cell,))
                  if spec.matches(i))
        for cell in spec.cells
    }


@pytest.mark.parametrize("bit_level", [0, 1])
def test_coverage_verdicts_do_not_need_the_empty_cells(bit_level):
    """Own counts list only cells that hold ids; on random responder
    clocks the coverage verdict equals the one over every cell."""
    rng = random.Random(bit_level)
    node = make_sim(num_nodes=4).nodes[0]
    node.log.append_many(rng.getrandbits(32) for _ in range(24))
    cells = node.config.clock_cells
    specs = [full_range_spec(cells), SplitSpec((1, 4, 9, 17, 30)),
             SplitSpec(tuple(range(cells // 2, cells)))]
    if bit_level:
        specs = [half for spec in specs for cell in spec.cells[:3]
                 for half in SplitSpec((cell,)).split()]
    verdicts = set()
    for _ in range(400):
        spec = rng.choice(specs)
        own = node.log.clock.counters
        clock = BloomClock(cells, [max(0, count + rng.choice((-1, 0, 0, 1)))
                                   for count in own])
        listed = node._own_counts_for_spec(spec)
        assert all(listed.values()) or bit_level
        verdict = node._response_covers(
            SimpleNamespace(pushed_counts=listed), clock)
        assert verdict == node._response_covers(
            SimpleNamespace(pushed_counts=_counts_of_every_cell(node, spec)),
            clock)
        verdicts.add(verdict)
    assert verdicts == {True, False}
