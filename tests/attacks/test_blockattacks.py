"""Detection tests for the three block-building attacks."""

import pytest

from repro.attacks.blockattacks import (
    BlockspaceCensor,
    Injector,
    Reorderer,
    make_block_attacker_factory,
)
from repro.core.policies import ViolationKind
from tests.conftest import make_sim


def run_attack(policy, censor_predicate=None, num_nodes=12):
    factory = make_block_attacker_factory(policy, censor_predicate)
    sim = make_sim(
        num_nodes=num_nodes, malicious_ids=[0], attacker_factory=factory
    )
    for i in range(6):
        sim.inject_at(0.2 + 0.1 * i, (i % (num_nodes - 1)) + 1, fee=10)
    sim.run(10.0)  # converge mempools
    sim.nodes[0].on_leader_elected()  # attacker builds its block
    sim.run(20.0)
    return sim


def exposure_kinds(sim):
    key = sim.directory.key_of(0)
    kinds = set()
    for nid in sim.correct_ids:
        blame = sim.nodes[nid].acct.exposed.get(key)
        if blame is not None and blame.block_violation is not None:
            kinds.add(blame.block_violation.violation.kind)
    return kinds


def recorded_kinds(sim):
    return {kind for _, kind, _ in sim.nodes[0].adversary.record}


def exposed_count(sim):
    key = sim.directory.key_of(0)
    return sum(
        1 for nid in sim.correct_ids if sim.nodes[nid].acct.is_exposed(key)
    )


def test_injection_detected_as_uncommitted_tx():
    sim = run_attack(Injector)
    assert exposed_count(sim) == len(sim.correct_ids)
    assert exposure_kinds(sim) == {ViolationKind.UNCOMMITTED_TX_IN_BODY}


def test_reordering_detected_as_order_deviation():
    sim = run_attack(Reorderer)
    assert exposed_count(sim) == len(sim.correct_ids)
    assert exposure_kinds(sim) == {ViolationKind.ORDER_DEVIATION}
    assert recorded_kinds(sim) == {ViolationKind.ORDER_DEVIATION.value}


def test_blockspace_censorship_detected_as_missing_tx():
    sim = run_attack(BlockspaceCensor, censor_predicate=lambda i: i % 2 == 0)
    censored = {s for _, _, s in sim.nodes[0].adversary.record}
    assert censored  # it actually censored something
    assert all(s % 2 == 0 for s in censored)
    assert exposed_count(sim) == len(sim.correct_ids)
    assert exposure_kinds(sim) == {ViolationKind.MISSING_COMMITTED_TX}
    assert recorded_kinds(sim) == {ViolationKind.MISSING_COMMITTED_TX.value}


def test_attacked_block_still_settles():
    # Inspection is separate from validation: the bad block is in the
    # chain even though its creator is exposed (paper section 4.3).
    sim = run_attack(Reorderer)
    for nid in sim.correct_ids:
        assert sim.nodes[nid].ledger.height == 0


def test_injected_ids_recorded_by_attacker():
    sim = run_attack(Injector)
    attacker = sim.nodes[0]
    block = attacker.ledger.block_at(0)
    injected = [s for _, _, s in attacker.adversary.record]
    assert recorded_kinds(sim) == {ViolationKind.UNCOMMITTED_TX_IN_BODY.value}
    assert len(injected) == 2
    assert tuple(injected) == block.tx_ids[:2]
    assert not set(injected) & set(attacker.log.order)


def test_honest_leader_after_attack_is_clean():
    sim = run_attack(Reorderer)
    sim.inject_at(sim.loop.now + 0.5, 2, fee=10)
    sim.run(sim.loop.now + 8.0)
    sim.nodes[3].on_leader_elected()
    sim.run(sim.loop.now + 10.0)
    key3 = sim.directory.key_of(3)
    for nid in sim.correct_ids:
        assert not sim.nodes[nid].acct.is_exposed(key3)


@pytest.mark.parametrize("policy", [Injector, Reorderer])
def test_a_censor_predicate_is_refused_where_it_has_no_use(policy):
    with pytest.raises(TypeError):
        make_block_attacker_factory(policy, censor_predicate=lambda i: True)


def test_the_attack_block_is_one_fan_out_of_the_honest_announce():
    """The body seam changes the block, not how it is announced."""
    sim = make_sim(num_nodes=12, malicious_ids=[0],
                   attacker_factory=make_block_attacker_factory(Reorderer))
    for i in range(6):
        sim.inject_at(0.2 + 0.1 * i, i + 1, fee=10 + i)
    sim.run(10.0)
    attacker = sim.nodes[0]
    sends = []
    fanout = sim.network.send_fanout

    def spy(sender, recipients, msg_type, *args, **kwargs):
        if sender == 0 and msg_type == "lo/block":
            sends.append(tuple(recipients))
        return fanout(sender, recipients, msg_type, *args, **kwargs)

    sim.network.send_fanout = spy
    attacker.on_leader_elected()
    assert sends == [tuple(attacker._eligible_neighbors())]
    block = attacker.ledger.block_at(0)
    assert block.signature_valid()
    assert attacker.adversary.record  # the fee order is not canonical
