"""Integration: mempool convergence under the full protocol stack."""

import statistics

from tests.conftest import make_sim


def test_all_nodes_converge_on_all_transactions():
    sim = make_sim(num_nodes=20)
    sim.inject_workload = None  # guard: use explicit injections below
    txs = []

    def create(origin, fee):
        txs.append(sim.nodes[origin].create_transaction(fee=fee))

    for i in range(10):
        sim.loop.call_at(0.2 + 0.3 * i, create, i % 20, 10 + i)
    sim.run(20.0)
    for tx in txs:
        assert sim.convergence_fraction(tx.sketch_id) == 1.0
    # Contents too, not just commitments.
    for node in sim.nodes.values():
        assert node.log.missing_content() == []


def test_mempool_latency_is_seconds_scale():
    sim = make_sim(num_nodes=25, constant_latency=0.05)
    for i in range(8):
        sim.inject_at(0.2 + 0.25 * i, i % 25, fee=10)
    sim.run(25.0)
    latencies = sim.mempool_tracker.all_latencies()
    assert latencies
    mean = statistics.mean(latencies)
    # Paper reports ~1.14 s mean with its setup; ours must land in the
    # same seconds-scale ballpark on a small overlay.
    assert 0.1 < mean < 5.0


def test_logs_agree_on_content_not_order():
    # Received order is per-node ("local partial ordering"); the SET of
    # known transactions converges.
    sim = make_sim(num_nodes=10)
    for i in range(6):
        sim.inject_at(0.2 + 0.2 * i, i % 10, fee=5)
    sim.run(15.0)
    id_sets = {frozenset(node.log.known_ids()) for node in sim.nodes.values()}
    assert len(id_sets) == 1


def test_sketch_state_matches_log_contents():
    sim = make_sim(num_nodes=8)
    for i in range(5):
        sim.inject_at(0.2 + 0.2 * i, i % 8, fee=5)
    sim.run(12.0)
    for node in sim.nodes.values():
        assert node.log.full_sketch().decode() == node.log.known_ids()


def test_commitment_stores_track_peers_accurately():
    sim = make_sim(num_nodes=8)
    sim.inject_at(0.2, 0, fee=5)
    sim.run(12.0)
    # The ids recorded for a peer must be a subset of that peer's log.
    for nid, node in sim.nodes.items():
        for peer_key, store in node.acct.stores.items():
            peer = sim.directory.id_of(peer_key)
            assert store.known_ids() <= sim.nodes[peer].log.known_ids()


def test_deterministic_replay():
    a = make_sim(num_nodes=10, seed=77)
    a.inject_at(0.5, 2, fee=9)
    a.run(10.0)
    b = make_sim(num_nodes=10, seed=77)
    b.inject_at(0.5, 2, fee=9)
    b.run(10.0)
    assert a.total_overhead_bytes() == b.total_overhead_bytes()
    assert a.loop.processed_events == b.loop.processed_events
    for nid in a.nodes:
        assert list(a.nodes[nid].log.order) == list(b.nodes[nid].log.order)
