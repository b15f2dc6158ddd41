"""Tests for light clients (stage I submission and status queries)."""

from repro.core.client import LightClient
from tests.conftest import make_sim


def client_in(sim, seed=b"test-client"):
    return LightClient(sim.loop, sim.network, seed=seed)


def test_submit_gets_signed_acks():
    sim = make_sim(num_nodes=6)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    client.submit(tx, miners=[0, 1, 2])
    sim.run(2.0)
    acks = client.acks_for(tx)
    assert len(acks) == 3
    assert all(ack.accepted and ack.verify() for ack in acks)


def test_submitted_tx_enters_mempools_and_propagates():
    sim = make_sim(num_nodes=8)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    client.submit(tx, miners=[0])
    sim.run(10.0)
    for node in sim.nodes.values():
        assert tx.sketch_id in node.log


def test_status_query_lifecycle():
    sim = make_sim(num_nodes=6)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    # Before submission: unknown.
    client.query_status(tx.sketch_id, miner=3)
    sim.run(1.0)
    assert client.latest_status(tx.sketch_id).status == "unknown"
    # After submission and propagation: content-held at a remote miner.
    client.submit(tx, miners=[0])
    sim.run(8.0)
    client.query_status(tx.sketch_id, miner=3)
    sim.run(9.0)
    assert client.latest_status(tx.sketch_id).status == "content-held"


def test_status_settled_after_block():
    sim = make_sim(num_nodes=6)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    client.submit(tx, miners=[0])
    sim.run(6.0)
    sim.nodes[2].on_leader_elected()
    sim.run(10.0)
    client.query_status(tx.sketch_id, miner=4)
    sim.run(11.0)
    assert client.latest_status(tx.sketch_id).status == "settled"


def test_invalid_submission_not_acked_as_accepted():
    sim = make_sim(num_nodes=6)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    from repro.mempool.transaction import Transaction

    forged = Transaction(
        sender=tx.sender, nonce=tx.nonce, fee=tx.fee + 1,
        size_bytes=tx.size_bytes, created_at=tx.created_at,
        payload=tx.payload, signature=tx.signature,
    )
    client.submit(forged, miners=[0])
    sim.run(2.0)
    acks = client.acks_for(forged)
    assert len(acks) == 1
    assert not acks[0].accepted


def test_duplicate_submission_still_acked():
    sim = make_sim(num_nodes=6)
    client = client_in(sim)
    tx = client.make_transaction(fee=25)
    client.submit(tx, miners=[0])
    sim.run(1.0)
    client.submit(tx, miners=[0])
    sim.run(2.0)
    acks = client.acks_for(tx)
    assert len(acks) == 2
    assert all(ack.accepted for ack in acks)


def test_contradicted_ack_detects_stage1_censorship():
    from repro.attacks import OffChannel, attacker

    # Steals anything juicy.
    factory = attacker(OffChannel, launder=True, intercept_fee_min=100)
    sim = make_sim(num_nodes=8, malicious_ids=[0], attacker_factory=factory)
    client = client_in(sim)
    tx = client.make_transaction(fee=500)
    client.submit(tx, miners=[0])
    sim.run(2.0)
    # Fake ack arrives...
    assert client.acks_for(tx) and client.acks_for(tx)[0].accepted
    # ...but the status query reveals the miner never committed it.
    client.query_status(tx.sketch_id, miner=0)
    sim.run(4.0)
    assert client.latest_status(tx.sketch_id).status == "unknown"
    suspicious = client.contradicted_acks(tx)
    assert len(suspicious) == 1
    assert suspicious[0].verify()  # transferable client-side evidence


def test_multiple_clients_are_distinct():
    sim = make_sim(num_nodes=6)
    a = client_in(sim, seed=b"a")
    b = client_in(sim, seed=b"b")
    assert a.node_id != b.node_id
    assert a.keypair.public_key != b.keypair.public_key


def test_a_client_id_depends_on_its_network_not_on_the_process():
    """Each build of one seeded simulation gives its client the same id,
    so the latency model puts the client in the same city and the same
    submission arrives after the same latencies."""
    from repro.experiments.harness import LOSimulation, SimulationParams

    def build_and_submit():
        sim = LOSimulation(SimulationParams(num_nodes=12, seed=21))
        client = LightClient(sim.loop, sim.network, seed=b"demo-client")
        client.submit(client.make_transaction(fee=750), miners=[0, 3])
        sim.run(3.0)
        return client.node_id, sorted(sim.mempool_tracker.all_latencies())

    runs = [build_and_submit() for _ in range(3)]
    assert runs[0][0] == 1_000_000
    assert runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_client_never_reuses_an_id_its_network_has_seen():
    sim = make_sim(num_nodes=6)
    first = client_in(sim, seed=b"a")
    sim.network.unregister(first.node_id)  # its meter stays
    second = client_in(sim, seed=b"b")
    assert (first.node_id, second.node_id) == (1_000_000, 1_000_001)
