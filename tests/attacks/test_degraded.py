"""Accuracy under degraded behaviour: slow nodes and spam."""

from repro.attacks import Slow, attacker, spam_dust, spam_invalid
from repro.core.config import LOConfig
from tests.conftest import make_sim


def slow_factory(delay):
    return attacker(Slow, extra_delay_s=delay)


def test_slow_node_with_paper_budget_never_exposed():
    # 0.8 s processing delay against a 1 s timeout with 3 retries: slow but
    # within the retry budget once responses start flowing.
    sim = make_sim(
        num_nodes=10, malicious_ids=[4],
        attacker_factory=slow_factory(0.8),
    )
    for i in range(6):
        sim.inject_at(0.2 + 0.3 * i, i % 10, fee=10)
    sim.run(40.0)
    key = sim.directory.key_of(4)
    # No false positives: never exposed.
    for nid in sim.nodes:
        assert not sim.nodes[nid].acct.is_exposed(key)


def test_slow_node_converges_eventually():
    sim = make_sim(
        num_nodes=10, malicious_ids=[4],
        attacker_factory=slow_factory(0.8),
    )
    sim.inject_at(0.5, 0, fee=10)
    sim.run(30.0)
    item = sim.mempool_tracker.items()[0]
    assert item in sim.nodes[4].log


def test_slow_node_not_perpetually_suspected():
    sim = make_sim(
        num_nodes=10, malicious_ids=[4],
        attacker_factory=slow_factory(0.8),
    )
    for i in range(5):
        sim.inject_at(0.2 + 0.3 * i, i % 10, fee=10)
    sim.run(30.0)
    # Quiet period: the slow node answers everything outstanding.
    sim.run(80.0)
    key = sim.directory.key_of(4)
    suspecters = [
        nid for nid in sim.correct_ids if sim.nodes[nid].acct.is_suspected(key)
    ]
    assert not suspecters


def test_slow_node_near_timeout_transiently_suspected_then_cleared():
    # Temporal accuracy (section 3.2): a correct-but-slow node whose
    # processing delay lands just beyond the request timeout IS suspected
    # transiently, is NEVER exposed, and the suspicion clears once its
    # (late) answers land.  Retries are disabled so the first missed
    # deadline already raises the suspicion.
    config = LOConfig(request_timeout_s=1.0, request_retries=0)
    sim = make_sim(
        num_nodes=10, config=config, malicious_ids=[4],
        attacker_factory=slow_factory(1.2),
    )
    for i in range(6):
        sim.inject_at(0.2 + 0.3 * i, i % 10, fee=10)
    key = sim.directory.key_of(4)
    ever_suspected = False
    for checkpoint in range(1, 31):
        sim.run(float(checkpoint))
        ever_suspected = ever_suspected or any(
            sim.nodes[nid].acct.is_suspected(key) for nid in sim.correct_ids
        )
        # No false positives, at every sampled instant.
        assert not any(
            sim.nodes[nid].acct.is_exposed(key) for nid in sim.correct_ids
        )
    assert ever_suspected  # the deadline misses were noticed...
    sim.run(90.0)  # ...and a quiet period lets the late answers clear them
    assert not any(
        sim.nodes[nid].acct.is_suspected(key) for nid in sim.correct_ids
    )
    assert not any(
        sim.nodes[nid].acct.is_exposed(key) for nid in sim.correct_ids
    )
    # The slow node still converged (it is correct, just late).
    for item in sim.mempool_tracker.items():
        assert item in sim.nodes[4].log


def test_invalid_spam_never_committed():
    sim = make_sim(num_nodes=8, malicious_ids=[0])
    spammer = sim.nodes[0]
    accepted = spam_invalid(spammer, count=10)
    assert accepted == 0
    assert len(spammer.log) == 0
    sim.run(10.0)
    # Nothing leaked into the network either.
    for node in sim.nodes.values():
        assert len(node.log) == 0


def test_dust_committed_but_kept_out_of_blocks():
    config = LOConfig(min_fee=5)
    sim = make_sim(num_nodes=8, config=config, malicious_ids=[0])
    dust = spam_dust(sim.nodes[0], count=4, fee=1)
    good = sim.nodes[2].create_transaction(fee=50)
    sim.run(10.0)
    # Dust is committed everywhere (Inclusion of All Transactions)...
    for node in sim.nodes.values():
        for tx in dust:
            assert tx.sketch_id in node.log
    # ...but blocks exclude it, and inspection agrees.
    sim.nodes[3].on_leader_elected()
    sim.run(20.0)
    block = sim.nodes[1].ledger.block_at(0)
    assert good.sketch_id in block.tx_ids
    for tx in dust:
        assert tx.sketch_id not in block.tx_ids
    for node in sim.nodes.values():
        assert not node.acct.exposed


def test_slow_node_records_no_deviation():
    sim = make_sim(
        num_nodes=10, malicious_ids=[4],
        attacker_factory=slow_factory(0.8),
    )
    for i in range(4):
        sim.inject_at(0.2 + 0.3 * i, i % 10, fee=10)
    sim.run(10.0)
    assert sim.network.meters[4].recv_messages > 0  # it did handle traffic
    assert sim.nodes[4].adversary.record == []
