"""Tests for the section 5.4 enforcement policies."""

from repro.attacks.blockattacks import Reorderer, make_block_attacker_factory
from repro.core.enforcement import EnforcementManager, StakeSlashing
from tests.conftest import make_sim


def attacked_sim_with_enforcement():
    sim = make_sim(
        num_nodes=12,
        malicious_ids=[0],
        attacker_factory=make_block_attacker_factory(Reorderer),
    )
    manager = EnforcementManager(sim.directory)
    for node in sim.nodes.values():
        manager.attach(node)
    for i in range(5):
        sim.inject_at(0.2 + 0.2 * i, 1 + (i % 11), fee=10)
    sim.run(8.0)
    sim.nodes[0].on_leader_elected()  # bad block
    sim.run(25.0)
    return sim, manager


def test_slashing_debits_exposed_miner():
    sim, manager = attacked_sim_with_enforcement()
    attacker_key = sim.directory.key_of(0)
    assert manager.slashing.stake_of(attacker_key) < manager.slashing.initial_stake
    assert manager.report.total_slashed > 0


def test_correct_miners_keep_their_stake():
    sim, manager = attacked_sim_with_enforcement()
    for nid in sim.correct_ids:
        key = sim.directory.key_of(nid)
        assert manager.slashing.stake_of(key) == manager.slashing.initial_stake


def test_slashing_is_idempotent_per_evidence():
    slashing = StakeSlashing(initial_stake=100, slash_fraction=0.5)
    from repro.crypto import KeyPair

    key = KeyPair.generate(seed=b"slashed").public_key
    first = slashing.on_exposure(key, ("evidence", 1))
    repeat = slashing.on_exposure(key, ("evidence", 1))
    assert first == 50.0
    assert repeat == 0.0
    assert slashing.stake_of(key) == 50.0


def test_network_eviction_removes_exposed_neighbours():
    sim, manager = attacked_sim_with_enforcement()
    attacker_key = sim.directory.key_of(0)
    for nid in sim.correct_ids:
        node = sim.nodes[nid]
        if node.acct.is_exposed(attacker_key):
            assert 0 not in node.neighbors
    assert manager.report.evictions > 0


def test_leader_eligibility_denied_after_majority_exposure():
    sim, manager = attacked_sim_with_enforcement()
    assert not manager.leader_eligible(0)
    assert manager.leader_eligible(3)
    assert manager.report.leader_elections_denied >= 1


def test_block_rejection_filters_repeat_offender():
    sim, manager = attacked_sim_with_enforcement()
    # Second bad block: every correct node has already exposed the creator,
    # so the new block is rejected before settlement.
    heights_before = {sim.nodes[n].ledger.height for n in sim.correct_ids}
    sim.nodes[0].on_leader_elected()
    sim.run(sim.loop.now + 10.0)
    report = manager.finalize_report()
    assert report.rejected_blocks > 0
    heights_after = {sim.nodes[n].ledger.height for n in sim.correct_ids}
    assert heights_after == heights_before  # nothing new settled


def test_clean_network_no_enforcement_actions():
    sim = make_sim(num_nodes=10)
    manager = EnforcementManager(sim.directory)
    for node in sim.nodes.values():
        manager.attach(node)
    for i in range(4):
        sim.inject_at(0.2 + 0.2 * i, i % 10, fee=10)
    sim.run(15.0)
    report = manager.finalize_report()
    assert report.total_slashed == 0
    assert report.evictions == 0
    assert report.rejected_blocks == 0
