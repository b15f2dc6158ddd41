"""Tests for the shared simulation harness."""

import pytest

from repro.attacks import Equivocator, attacker, make_censor_factory
from repro.core.config import LOConfig
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.net.latency import ConstantLatencyModel


def tiny(num_nodes=8, **kwargs):
    kwargs.setdefault("latency_model", ConstantLatencyModel(0.02))
    return LOSimulation(SimulationParams(num_nodes=num_nodes, seed=3, **kwargs))


def test_builds_requested_population():
    sim = tiny(num_nodes=9)
    assert len(sim.nodes) == 9
    assert sim.correct_ids == list(range(9))
    assert all(sim.topology[n] for n in range(9))


def test_directory_maps_all_nodes():
    sim = tiny()
    for nid, node in sim.nodes.items():
        assert sim.directory.key_of(nid) == node.public_key
        assert sim.directory.id_of(node.public_key) == nid


def test_malicious_factory_applied():
    factory = make_censor_factory({0, 1})
    sim = tiny(num_nodes=10, malicious_ids=[0, 1], attacker_factory=factory)
    from repro.attacks import Censor

    assert isinstance(sim.nodes[0].adversary, Censor)
    assert isinstance(sim.nodes[1].adversary, Censor)
    assert sim.nodes[2].adversary is None
    assert sim.correct_ids == list(range(2, 10))


def test_workload_injection_counts():
    sim = tiny()
    count = sim.inject_workload(rate_per_s=10.0, duration_s=5.0)
    assert 20 <= count <= 90  # ~50 expected
    sim.run(8.0)
    assert len(sim.mempool_tracker.items()) == count


def test_inject_at_single():
    sim = tiny()
    sim.inject_at(1.0, origin=2, fee=42)
    sim.run(5.0)
    items = sim.mempool_tracker.items()
    assert len(items) == 1
    node = sim.nodes[2]
    tx = node.log.content_of(items[0])
    assert tx.fee == 42


def test_convergence_helpers():
    sim = tiny()
    sim.inject_at(0.5, 0, fee=10)
    sim.run(10.0)
    item = sim.mempool_tracker.items()[0]
    assert sim.convergence_fraction(item) == 1.0
    assert sim.all_suspected_or_exposed([]) is True
    assert sim.all_exposed([]) is True


def test_blocks_disabled_by_default():
    sim = tiny()
    assert sim.leader_schedule is None
    sim2 = tiny(enable_blocks=True)
    assert sim2.leader_schedule is not None


def test_deterministic_topology_per_seed():
    a = tiny(num_nodes=12)
    b = tiny(num_nodes=12)
    assert a.topology == b.topology


def test_config_propagates():
    config = LOConfig(sync_fanout=1)
    sim = tiny(config=config)
    assert all(node.config.sync_fanout == 1 for node in sim.nodes.values())


# ---------------------------------------------- leader eligibility / caching


class _ScanCountingNodes(dict):
    """Dict proxy that records bulk scans of the node table."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bulk_scans = 0
        self.lookups = 0

    def values(self):
        self.bulk_scans += 1
        return super().values()

    def items(self):
        self.bulk_scans += 1
        return super().items()

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_can_propose_does_not_scan_all_ledgers():
    # Regression: _can_propose used to recompute max(ledger.height) over
    # every node, making each leader slot O(num_nodes).  It must now
    # consult the incrementally maintained canonical height and touch only
    # the queried node.
    sim = tiny(num_nodes=10, enable_blocks=True)
    sim.inject_workload(rate_per_s=5.0, duration_s=3.0)
    sim.run(5.0)
    counting = _ScanCountingNodes(sim.nodes)
    sim.nodes = counting
    for node_id in range(10):
        sim._can_propose(node_id)
    assert counting.bulk_scans == 0
    assert counting.lookups <= 10  # one lookup per eligibility query


def test_canonical_height_tracks_block_creation():
    sim = tiny(num_nodes=10, enable_blocks=True)
    assert sim.canonical_height == -1  # no blocks yet
    sim.inject_workload(rate_per_s=5.0, duration_s=5.0)
    sim.run(20.0)
    true_max = max(node.ledger.height for node in sim.nodes.values())
    assert sim.canonical_height == true_max
    assert sim.canonical_height >= 0


def test_can_propose_excludes_stale_nodes():
    sim = tiny(num_nodes=8, enable_blocks=True)
    sim.inject_workload(rate_per_s=5.0, duration_s=5.0)
    sim.run(25.0)
    assert sim.canonical_height >= 1
    for node_id in range(8):
        expected = (
            sim.nodes[node_id].ledger.height == sim.canonical_height
        )
        assert sim._can_propose(node_id) == expected


def test_cache_stats_reset_per_simulation():
    """One seed built and run three times in one process reports the same
    metrics snapshot each time, every cache's counters and size included:
    a build empties the process-wide caches, so no run inherits an earlier
    one's decodes, syndromes or verdicts."""

    def snapshot():
        sim = tiny(num_nodes=8)
        sim.inject_workload(rate_per_s=5.0, duration_s=3.0)
        sim.run(6.0)
        return sim.metrics_snapshot()["counters"]

    first = snapshot()
    assert first["caches.sketch.decode.misses"] > 0
    assert first["caches.sketch.syndromes.size"] > 0
    assert snapshot() == first
    assert snapshot() == first


def test_a_build_mid_run_changes_no_outcome_of_the_running_simulation():
    """Another build empties the caches under a simulation that is half
    way through its run, and the run's outcome does not change: the caches
    memoise pure functions (decodes, syndromes, schema and signature
    verdicts), so they decide only how fast the run gets there."""

    def outcome(build_between):
        sim = LOSimulation(SimulationParams(
            num_nodes=12, seed=5, malicious_ids=[0],
            attacker_factory=attacker(Equivocator)))
        sim.inject_at(0.3, 0, fee=10)  # the equivocator commits: exposable
        sim.inject_workload(rate_per_s=5.0, duration_s=8.0)
        sim.run(5.0)
        if build_between:
            tiny(num_nodes=6)
        sim.run(15.0)
        return {
            "events": sim.loop.processed_events,
            "latencies": sorted(sim.mempool_tracker.all_latencies()),
            "overhead": sim.total_overhead_bytes(),
            "net": sim.network.collect_metrics(),
            "exposures": sorted(
                (node.node_id, sim.directory.id_of(key))
                for node in sim.correct_nodes() for key in node.acct.exposed
            ),
        }

    alone = outcome(build_between=False)
    assert alone["exposures"] and alone["latencies"]
    assert outcome(build_between=True) == alone
