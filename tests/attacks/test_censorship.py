"""Tests for the censoring attacker and its detection."""

from repro.attacks import Censor, make_censor_factory
from repro.net.message import Message
from tests.conftest import make_sim


def censor_sim(num_nodes=16, mal=(0, 1), equivocate=False, **kwargs):
    factory = make_censor_factory(
        set(mal), ignore_sync=True, drop_blames=True, equivocate=equivocate,
        **kwargs,
    )
    return make_sim(
        num_nodes=num_nodes, malicious_ids=mal, attacker_factory=factory
    )


def test_pure_censor_gets_suspected_not_exposed():
    sim = censor_sim()
    sim.inject_at(0.5, 3, fee=10)
    sim.run(30.0)
    keys = [sim.directory.key_of(i) for i in (0, 1)]
    for nid in sim.correct_ids:
        acct = sim.nodes[nid].acct
        for key in keys:
            assert acct.is_suspected(key) or acct.is_exposed(key)
    # No equivocation: nothing provable, so no exposures.
    assert not any(
        sim.nodes[nid].acct.exposed for nid in sim.correct_ids
    )


def test_equivocating_censor_gets_exposed_everywhere():
    sim = censor_sim(equivocate=True)
    # The attackers must have committed to *something* for two forks of
    # their history to exist, so inject through them too (as the random-
    # origin Fig. 6 workload does).
    sim.inject_at(0.3, 0, fee=10)
    sim.inject_at(0.4, 1, fee=10)
    sim.inject_at(0.5, 3, fee=10)
    sim.run(40.0)
    keys = [sim.directory.key_of(i) for i in (0, 1)]
    for nid in sim.correct_ids:
        for key in keys:
            assert sim.nodes[nid].acct.is_exposed(key)


def test_correct_nodes_still_converge_despite_censors():
    sim = censor_sim()
    tx = None

    def capture():
        nonlocal tx
        tx = sim.nodes[5].create_transaction(fee=10)

    sim.loop.call_at(0.5, capture)
    sim.run(25.0)
    holders = sum(
        1 for nid in sim.correct_ids if tx.sketch_id in sim.nodes[nid].log
    )
    assert holders == len(sim.correct_ids)


def test_censor_ids_predicate_blocks_commitment():
    sim = make_sim(num_nodes=10, malicious_ids=[0],
                   attacker_factory=make_censor_factory(
                       {0}, ignore_sync=False, drop_blames=False,
                       censor_predicate=lambda i: True))
    attacker = sim.nodes[0]
    assert isinstance(attacker.adversary, Censor)
    sim.inject_at(0.5, 4, fee=10)
    sim.run(15.0)
    # The attacker refused to commit anything at all.
    assert len(attacker.log) == 0
    refused = {s for _, kind, s in attacker.adversary.record
               if kind == "refuse-commit"}
    assert refused == set(sim.nodes[4].log.order)


def test_colluders_keep_talking_to_each_other():
    sim = censor_sim(num_nodes=14, mal=(0, 1, 2))
    policy = sim.nodes[0].adversary
    assert policy.colluders == {1, 2}
    request = "lo/content_req"
    assert not policy.intercepts(Message(1, 0, request, None, wire_bytes=8))
    assert policy.intercepts(Message(5, 0, request, None, wire_bytes=8))
    assert policy.record == [(sim.loop.now, "withhold-content", 5)]


def test_blame_dropping_swallows_gossip():
    sim = censor_sim()
    attacker = sim.nodes[0]
    before = dict(attacker.acct.exposed)
    attacker.on_message(
        Message(5, 0, "lo/exposure", object(), wire_bytes=10)
    )
    assert attacker.acct.exposed == before  # swallowed, not processed
    assert attacker.adversary.record == [(0.0, "drop-blame", 5)]


def test_record_holds_every_forked_response_the_network_carried():
    """The record is checked against the wire, not against the detector:
    each fork entry is one ``lo/sync_resp`` whose header conflicts with
    the censor's honest chain, sent to that peer at that time."""
    sim = censor_sim(num_nodes=12, equivocate=True)
    forked = {0: [], 1: []}

    def count(message):
        if message.msg_type == "lo/sync_resp" and message.sender in forked:
            header = message.payload.header
            honest = sim.nodes[message.sender].header()
            if header.seq and header.digests[-1] != honest.digests[-1]:
                forked[message.sender].append(
                    (sim.loop.now, message.recipient))
        return True

    sim.network.add_delivery_hook(count)
    sim.inject_at(0.3, 0, fee=10)
    sim.inject_at(0.4, 1, fee=10)
    sim.inject_at(0.5, 3, fee=10)
    sim.run(12.0)
    for censor, sent in forked.items():
        record = sim.nodes[censor].adversary.record
        forks = [(t, peer) for t, kind, peer in record
                 if kind == "equivocation"]
        assert sent and forks == sent
        assert {kind for _, kind, _ in record} <= {
            "equivocation", "drop-blame", "withhold-content"}
