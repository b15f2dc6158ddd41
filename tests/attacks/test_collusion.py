"""Tests for off-channel collusion and commitment-chain tracing."""

from repro.attacks import OffChannel, attacker, trace_commitment_chain
from repro.core.policies import ViolationKind
from tests.conftest import make_sim


def collusion_sim(launder, num_nodes=14, colluders=(0, 1)):
    return make_sim(
        num_nodes=num_nodes,
        malicious_ids=list(colluders),
        attacker_factory=attacker(OffChannel, colluders=colluders,
                                  launder=launder),
    )


def seed_and_converge(sim, origin=5):
    tx = None

    def create():
        nonlocal tx
        tx = sim.nodes[origin].create_transaction(fee=500)

    sim.loop.call_at(0.3, create)
    sim.run(12.0)
    return tx


def test_offchannel_tx_reaches_colluder_secretly():
    sim = collusion_sim(launder=False)
    tx = seed_and_converge(sim)
    colluder = sim.nodes[0]
    # Off-channel: it may hold the tx without having committed to it, or
    # have learned it via the normal protocol; the stolen store records
    # the covert copy either way.
    stolen = colluder.adversary.stolen
    assert tx.sketch_id in stolen or tx.sketch_id in colluder.log
    # One colluder passed the content to the other, on the record.
    shared = {s for nid in (0, 1)
              for _, kind, s in sim.nodes[nid].adversary.record
              if kind == "offchannel"}
    assert tx.sketch_id in shared


def covert_holder(sim, tx):
    """The colluder holding ``tx`` off the record (the other one shared it)."""
    holders = [nid for nid in (0, 1)
               if tx.sketch_id in sim.nodes[nid].adversary.stolen
               and tx.sketch_id not in sim.nodes[nid].log]
    assert holders
    return holders[0]


def test_injection_variant_is_exposed_by_inspection():
    sim = collusion_sim(launder=False)
    tx = seed_and_converge(sim)
    creator = sim.nodes[0]
    if tx.sketch_id in creator.log:
        # Learned legitimately this run; remove from log view is impossible,
        # so force the covert copy to exercise the attack path.
        creator.adversary.stolen.pop(tx.sketch_id, None)
        return  # nothing covert to test this run
    creator.on_leader_elected()
    sim.run(sim.loop.now + 15.0)
    key = sim.directory.key_of(0)
    exposed = [
        sim.nodes[nid].acct.exposed.get(key) for nid in sim.correct_ids
    ]
    kinds = {
        b.block_violation.violation.kind
        for b in exposed
        if b is not None and b.block_violation is not None
    }
    assert ViolationKind.UNCOMMITTED_TX_IN_BODY in kinds


def test_laundering_variant_traced_to_culprit():
    sim = collusion_sim(launder=True)
    tx = seed_and_converge(sim)
    creator = covert_holder(sim, tx)
    sim.nodes[creator].on_leader_elected()
    sim.run(sim.loop.now + 10.0)
    assert tx.sketch_id in sim.nodes[creator].ledger.block_at(0).tx_ids
    result = trace_commitment_chain(
        sim.nodes, tx.sketch_id, block_creator=creator, true_origin=5
    )
    assert result.culprit == creator
    assert "origin's commitment" in result.reason


def test_trace_clears_honest_chain():
    sim = make_sim(num_nodes=10)
    tx = sim.nodes[4].create_transaction(fee=10)
    sim.run(10.0)
    # Pick any node that learned the tx through reconciliation and walk back.
    learner = next(
        nid for nid in sim.nodes
        if nid != 4 and tx.sketch_id in sim.nodes[nid].log
    )
    result = trace_commitment_chain(
        sim.nodes, tx.sketch_id, block_creator=learner, true_origin=4
    )
    assert result.culprit is None
    assert result.chain[-1].node_id == 4


def test_trace_blames_node_without_commitment():
    sim = make_sim(num_nodes=8)
    tx = sim.nodes[2].create_transaction(fee=10)
    sim.run(8.0)
    # Node 3 never committed? Force the scenario with a node that did not
    # learn the tx (crash it before propagation is impossible here, so we
    # simulate by tracing from a node lacking the commitment).
    stranger = next(
        (nid for nid in sim.nodes if tx.sketch_id not in sim.nodes[nid].log),
        None,
    )
    if stranger is None:
        # Everyone learned it; synthesize by querying an empty dummy node.
        class Dummy:
            bundles = []

        nodes = dict(sim.nodes)
        nodes[99] = Dummy()
        result = trace_commitment_chain(nodes, tx.sketch_id, 99, 2)
    else:
        result = trace_commitment_chain(sim.nodes, tx.sketch_id, stranger, 2)
    assert result.culprit is not None
    assert "without any commitment" in result.reason
