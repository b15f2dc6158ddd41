"""Detection tests for the pure equivocation (fork) attacker."""

from repro.attacks import Equivocator, attacker
from repro.core.accountability import SuspicionBlame
from tests.conftest import make_sim


def equivocator_sim(num_nodes=14):
    return make_sim(
        num_nodes=num_nodes,
        malicious_ids=[0],
        attacker_factory=attacker(Equivocator),
    )


def test_fork_produces_conflicting_headers():
    sim = equivocator_sim()
    node = sim.nodes[0]
    node.create_transaction(fee=10)
    honest = node.adversary.header_for(2, "lo/sync_req")  # even: fork A
    forked = node.adversary.header_for(3, "lo/sync_req")  # odd: fork B
    assert honest is node.header()
    assert node.adversary.record == [(0.0, "equivocation", 3)]
    assert honest.seq == forked.seq
    assert honest.digests != forked.digests
    assert honest.signature_valid() and forked.signature_valid()
    assert not honest.consistent_with(forked)


def test_equivocator_eventually_exposed_network_wide():
    sim = equivocator_sim()
    sim.inject_at(0.3, 0, fee=10)  # attacker originates a tx -> must commit
    sim.inject_at(0.6, 5, fee=10)
    sim.run(45.0)
    key = sim.directory.key_of(0)
    exposed = sum(
        1 for nid in sim.correct_ids if sim.nodes[nid].acct.is_exposed(key)
    )
    assert exposed == len(sim.correct_ids)


def test_exposure_evidence_is_equivocation():
    sim = equivocator_sim()
    sim.inject_at(0.3, 0, fee=10)
    sim.inject_at(0.6, 5, fee=10)
    sim.run(45.0)
    key = sim.directory.key_of(0)
    blames = [
        sim.nodes[nid].acct.exposed.get(key) for nid in sim.correct_ids
    ]
    assert all(b is not None and b.equivocation is not None for b in blames)
    assert all(b.verify() for b in blames)


def test_correct_nodes_not_exposed_alongside():
    sim = equivocator_sim()
    sim.inject_at(0.3, 2, fee=10)
    sim.run(45.0)
    correct_keys = {sim.directory.key_of(i) for i in sim.correct_ids}
    for nid in sim.correct_ids:
        assert correct_keys.isdisjoint(sim.nodes[nid].acct.exposed)


def test_every_header_to_an_odd_peer_is_the_fork():
    """Sync requests and their retries, sync responses and commit updates
    all carry fork B to odd peers and the honest chain to even ones.
    (Commit updates it relays for other signers are not its headers.)"""
    sim = equivocator_sim()
    node = sim.nodes[0]
    shown = []

    def watch(message):
        if message.sender == 0 and message.msg_type in (
                "lo/sync_req", "lo/sync_resp", "lo/commit_upd"):
            payload = message.payload
            header = getattr(payload, "header", payload)
            if header.seq and header.signer == node.public_key:
                honest = node.header()
                assert header.seq == honest.seq
                kind = message.msg_type
                if getattr(payload, "is_retry", False):
                    kind += " retry"
                shown.append((kind, message.recipient % 2,
                              header.digests[-1] != honest.digests[-1]))
        return True

    def suspect_it(accuser):
        blame = SuspicionBlame(
            accuser=sim.directory.key_of(accuser), accused=node.public_key,
            kind="sync", detail=(), last_known=None, raised_at=sim.loop.now,
        )
        sim.network.send(accuser, 0, "lo/suspicion", blame, blame.wire_size())

    sim.network.add_delivery_hook(watch)
    sim.inject_at(0.3, 0, fee=10)
    sim.inject_at(0.6, 5, fee=10)
    # A suspected node answers its accuser with a commit update.
    for accuser in (3, 4):
        sim.loop.call_at(20.0, suspect_it, accuser)
    sim.run(45.0)
    assert shown and all(forked == bool(odd) for _, odd, forked in shown)
    kinds = {(kind, odd) for kind, odd, _ in shown}
    for kind in ("lo/sync_req", "lo/sync_req retry", "lo/sync_resp",
                 "lo/commit_upd"):
        assert (kind, 1) in kinds, kinds
    forks = [(kind, odd) for kind, odd, forked in shown if forked]
    assert len(forks) == len(node.adversary.record)
