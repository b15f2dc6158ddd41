"""Byzantine ingress hardening: malformed payloads never crash a node.

Acceptance: randomly corrupted payloads for EVERY ``lo/*`` message type
are fed to a live node -- the simulation keeps running with zero
unhandled exceptions, every violation is counted and attributed to the
(authenticated) sending peer, and repeated garbage quarantines the peer
with exponential backoff before re-admission.
"""

import random

import pytest

from repro.attacks import Garbage, attacker
from repro.core.accountability import ExposureBlame, SuspicionBlame
from repro.core.commitment import EquivocationEvidence
from repro.core.config import LOConfig
from repro.core.node import LONode
from repro.core.reconciliation import (
    BlockAnnounce,
    ContentRequest,
    ContentResponse,
    SplitSpec,
    SyncRequest,
    SyncResponse,
    sketch_for_spec,
)
from repro.core.wire import validate_payload
from repro.crypto.keys import KeyPair
from repro.mempool.transaction import make_transaction
from repro.net.chaos import corrupt_payload
from repro.net.message import Message
from tests.conftest import make_sim

ALL_TYPES = tuple(sorted(LONode._HANDLERS))

# A threshold no fuzz run reaches: every violation stays countable instead
# of the peer being silently dropped at the quarantine gate.
NO_QUARANTINE = LOConfig(quarantine_threshold=1_000_000)


def well_formed_payloads(sim):
    """One legitimate payload per lo/* message type, built from node 1."""
    node = sim.nodes[1]
    other = sim.nodes[2]
    header = node.header()
    spec = SplitSpec(tuple(range(sim.params.config.clock_cells)))
    sketch = sketch_for_spec(node.log, spec, 16)
    tx = make_transaction(node.keypair, 999, fee=5, created_at=0.0)
    block = node.builder.build(node.log, node.bundles, node.ledger, created_at=0.0)
    return {
        "lo/sync_req": SyncRequest(0, header, spec, sketch),
        "lo/sync_resp": SyncResponse(0, header, "ok", (1,), (2,)),
        "lo/content_req": ContentRequest(0, (1, 2, 3)),
        "lo/content_resp": ContentResponse(0, (tx,)),
        "lo/suspicion": SuspicionBlame(
            accuser=node.public_key, accused=other.public_key, kind="sync",
            detail=(), last_known=None, raised_at=0.0,
        ),
        "lo/exposure": ExposureBlame(
            accused=other.public_key,
            equivocation=EquivocationEvidence(
                accused=other.public_key, header_a=header, header_b=header,
            ),
        ),
        "lo/commit_upd": header,
        "lo/block": BlockAnnounce(block=block, header=header, bundle_ids=()),
        "lo/block_req": 0,
        "lo/client_submit": tx,
        "lo/status_query": (1_000_000, 42),
    }


def test_fuzzed_payloads_on_every_handler_never_crash():
    sim = make_sim(num_nodes=8, config=NO_QUARANTINE)
    sim.run(2.0)  # let real traffic flow first
    target = sim.nodes[0]
    rng = random.Random(0xC0FFEE)
    legitimate = well_formed_payloads(sim)
    assert set(legitimate) == set(ALL_TYPES)

    attackers = [1, 2, 3]
    injected = 0
    for trial in range(60):
        sender = attackers[trial % len(attackers)]
        for msg_type in ALL_TYPES:
            payload = corrupt_payload(legitimate[msg_type], rng)
            if rng.random() < 0.3:
                payload = corrupt_payload(payload, rng)  # double mangle
            # Deliver straight into the hardened ingress; any unhandled
            # exception propagates and fails the test here.
            target.on_message(
                Message(sender, 0, msg_type, payload, wire_bytes=64)
            )
            injected += 1
    # The node survived; the simulation still runs.
    sim.run(4.0)
    assert injected == 60 * len(ALL_TYPES)
    violations = sim.counter.per_node("wire_violations").get(0, 0)
    assert violations > injected // 2
    # Attribution: every attacking peer was counted individually, and the
    # per-peer counts add up to the node's total.
    per_peer = {peer: target.quarantine.violations_of(peer)
                for peer in attackers}
    assert all(count > 0 for count in per_peer.values())
    assert sum(per_peer.values()) == violations
    # Fully-correct peers were never blamed.
    for honest in (4, 5, 6, 7):
        assert target.quarantine.violations_of(honest) == 0


def test_unknown_message_types_and_raw_garbage_contained():
    sim = make_sim(num_nodes=6, config=NO_QUARANTINE)
    target = sim.nodes[0]
    rng = random.Random(7)
    for _ in range(50):
        garbage = corrupt_payload(rng.getrandbits(16), rng)
        msg_type = rng.choice(ALL_TYPES + ("lo/evil", "nonsense", ""))
        target.on_message(Message(1, 0, msg_type, garbage, wire_bytes=8))
    sim.run(2.0)
    # Nearly all garbage is a violation; the rare exception is garbage that
    # happens to satisfy a trivial schema (e.g. an int for lo/block_req).
    assert target.quarantine.violations_of(1) >= 45


def test_schema_valid_but_handler_hostile_payload_contained():
    # A suspicion about a key no directory maps anywhere passes the schema
    # but breaks the handler's local-verification probe (Fig. 4) --
    # containment must turn that into an attributed violation.
    sim = make_sim(num_nodes=6)
    sim.run(1.5)
    target = sim.nodes[0]
    stranger = KeyPair.generate(seed=b"nobody-knows-me").public_key
    blame = SuspicionBlame(
        accuser=sim.nodes[1].public_key, accused=stranger, kind="content",
        detail=(1, 2), last_known=None, raised_at=0.0,
    )
    assert validate_payload("lo/suspicion", blame) is None
    target.on_message(Message(1, 0, "lo/suspicion", blame, wire_bytes=64))
    assert target.quarantine.violations_of(1) == 1
    assert not target.acct.is_suspected(stranger)
    sim.run(2.0)  # still alive


def test_repeated_garbage_quarantines_then_readmits():
    config = LOConfig(
        quarantine_threshold=3, quarantine_base_s=4.0, quarantine_max_s=64.0
    )
    sim = make_sim(num_nodes=6, config=config)
    target = sim.nodes[0]
    for _ in range(3):
        target.on_message(Message(1, 0, "lo/evil", None, wire_bytes=8))
    assert target.quarantine.is_quarantined(1, target.now)
    # Accountability heard about it: the offender is now suspected.
    assert target.acct.is_suspected(sim.directory.key_of(1))
    # While quarantined: inbound messages dropped before they are even
    # counted, and the peer is excluded from outbound sync.
    target.on_message(Message(1, 0, "lo/evil", None, wire_bytes=8))
    assert target.quarantine.violations_of(1) == 3
    if 1 in target.neighbors:
        assert 1 not in target._eligible_neighbors()
    # Backoff expires -> re-admission on probation.
    sim.run(4.5)
    assert not target.quarantine.is_quarantined(1, target.now)
    # Next episode doubles.
    for _ in range(3):
        target.on_message(Message(1, 0, "lo/evil", None, wire_bytes=8))
    release = target.quarantine.release_time(1)
    assert release == pytest.approx(target.now + 8.0)


def test_garbage_node_flood_is_survived_and_quarantined():
    config = LOConfig(
        quarantine_threshold=3, quarantine_base_s=8.0, quarantine_max_s=128.0
    )
    sim = make_sim(
        num_nodes=10, config=config, malicious_ids=[4],
        attacker_factory=attacker(Garbage),
    )
    for i in range(6):
        sim.inject_at(0.3 + 0.4 * i, (5 + i) % 10, fee=10)
    sim.run(30.0)
    flooder = sim.nodes[4]
    assert flooder.adversary.record
    assert {kind for _, kind, _ in flooder.adversary.record} == {"garbage"}
    # The flooded neighbours survived, attributed the garbage, and at
    # least one of them quarantined the flooder.
    victims = sorted(set(flooder.neighbors) & set(sim.correct_ids))
    assert victims
    assert all(
        sim.nodes[nid].quarantine.violations_of(4) > 0 for nid in victims
    )
    assert any(
        sim.nodes[nid].quarantine.episodes.get(4, 0) >= 1 for nid in victims
    )
    # The flood never broke convergence for honest traffic.
    for item in sim.mempool_tracker.items():
        assert sim.convergence_fraction(item) == 1.0
    # No correct node was ever exposed (garbage is not proof of anything).
    for a in sim.correct_ids:
        for b in sim.correct_ids:
            assert not sim.nodes[a].acct.is_exposed(sim.directory.key_of(b))
