"""The harness and CPython's cyclic collector: states and counts, no timings.

``LOSimulation`` builds its network and runs it with the collector
paused; each ends with one young pass when the caller's collector was on.
Both must be invisible afterwards: the caller's collector state comes
back, cycles made during a run are freed, a dropped simulation is still
reclaimed -- and an idle network allocates no per-node state.
"""

import gc
import random
import sys
import weakref

import pytest

from repro import obs
from repro.attacks import make_censor_factory
from repro.core.config import LOConfig
from repro.crypto import keys
from repro.crypto.keys import KeyPair
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.mempool.admission import AdmissionConfig
from repro.mempool.transaction import make_transaction
from repro.net.chaos import ChaosPlan
from repro.obs.caches import reset_caches
from repro.obs.timeline import TimelineRecorder


@pytest.fixture(autouse=True)
def _collector_state():
    """Start from a settled heap; put the collector back afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _failing_factory(**kwargs):
    raise RuntimeError("attacker refused to build")


@pytest.mark.parametrize("enabled", [True, False])
def test_construction_restores_the_callers_collector_state(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    LOSimulation(SimulationParams(num_nodes=6, seed=1))
    assert gc.isenabled() is enabled
    with pytest.raises(RuntimeError, match="refused"):
        LOSimulation(SimulationParams(
            num_nodes=6, seed=1, malicious_ids=[3],
            attacker_factory=_failing_factory,
        ))
    assert gc.isenabled() is enabled


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _young_middle_full():
    return [gen["collections"] for gen in gc.get_stats()]


def _watch_collector(sim, at=(0.5,)):
    """Record ``gc.isenabled()`` from inside the run at each time in ``at``."""
    seen = []
    for when in at:
        sim.loop.call_at(when, lambda: seen.append(gc.isenabled()))
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_off_inside_a_run_and_comes_back(enabled):
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
    _set_collector(enabled)
    seen = _watch_collector(sim, at=(0.5,))
    before = _young_middle_full()
    sim.run(1.0)
    assert seen == [False] and gc.isenabled() is enabled
    with obs.recording(tracer=obs.Tracer()):  # the traced branch of run()
        seen = _watch_collector(sim, at=(1.5,))
        sim.run(2.0)
    assert seen == [False] and gc.isenabled() is enabled
    if not enabled:
        assert _young_middle_full() == before  # no pass forced


@pytest.mark.parametrize("enabled", [True, False])
def test_each_run_until_steady_leg_pauses_the_collector(enabled):
    with obs.recording(timeline=TimelineRecorder(interval_s=0.5, bins=64)):
        sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
        legs, checks = [], []
        run_until = sim.loop.run_until

        def leg(until):
            legs.append(gc.isenabled())
            run_until(until)

        sim.loop.run_until = leg
        monitor = obs.SteadyStateMonitor(obs.TIMELINE)
        check = monitor.check

        def checked():
            checks.append(gc.isenabled())  # between two legs
            return check()

        monitor.check = checked
        _set_collector(enabled)
        seen = _watch_collector(sim, at=(0.5, 2.5, 3.5))
        before = _young_middle_full()
        sim.run_until_steady(4.0, monitor=monitor, check_every_s=1.0)
        after = _young_middle_full()
    assert len(legs) == 4 and seen == [False] * 3
    assert checks == [enabled] * len(legs)
    assert gc.isenabled() is enabled
    if enabled:  # one young pass per leg
        assert after[0] - before[0] == len(legs)
    else:
        assert after == before


@pytest.mark.parametrize("enabled", [True, False])
def test_a_callback_that_raises_restores_the_callers_collector(enabled):
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))

    def boom():
        raise RuntimeError("callback failed")

    sim.loop.call_later(0.5, boom)
    _set_collector(enabled)
    before = _young_middle_full()
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run(1.0)
    after = _young_middle_full()
    assert gc.isenabled() is enabled
    if not enabled:
        assert after == before  # no pass forced on a caller who turned it off


def test_a_run_makes_exactly_one_young_pass():
    sim = LOSimulation(SimulationParams(num_nodes=30, seed=3))
    sim.inject_workload(rate_per_s=5.0, duration_s=3.0)
    gc.enable()
    before = _young_middle_full()
    sim.run(5.0)
    after = _young_middle_full()
    assert sim.loop.processed_events > 1000
    assert [b - a for a, b in zip(before, after)] == [1, 0, 0]


def test_nothing_stays_frozen_when_a_callback_raises_out_of_run():
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))

    def boom():
        raise RuntimeError("callback failed")

    sim.loop.call_later(0.5, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run(1.0)
    assert gc.get_freeze_count() == 0


def _blocks():
    sim = LOSimulation(SimulationParams(
        num_nodes=10, seed=2, enable_blocks=True,
        config=LOConfig(mean_block_time_s=1.0),
    ))
    sim.inject_workload(rate_per_s=4.0, duration_s=3.0)
    sim.run(5.0)
    assert sim.canonical_height > 0
    return sim


def _admission_with_rbf():
    sim = LOSimulation(SimulationParams(
        num_nodes=8, seed=4, config=LOConfig(admission=AdmissionConfig()),
    ))
    sim.inject_open_loop(rate_per_s=15.0, duration_s=3.0, arrivals="bursty",
                         hot_fraction=0.6, rbf_fraction=0.3)
    sim.run(5.0)
    breakdown = sim.admission_breakdown()
    assert breakdown["replaced"] + breakdown["replace_underpriced"] > 0
    return sim


def _equivocating_censor():
    censors = {0, 1}
    sim = LOSimulation(SimulationParams(
        num_nodes=12, seed=5, malicious_ids=sorted(censors),
        attacker_factory=make_censor_factory(censors, equivocate=True),
    ))
    for index in range(6):
        sim.inject_at(0.2 + 0.4 * index, index % 12, fee=5 + index)
    sim.run(8.0)
    assert any(node.acct.exposed for node in sim.nodes.values())
    return sim


def _chaos():
    sim = LOSimulation(SimulationParams(
        num_nodes=10, seed=13,
        chaos_plan=ChaosPlan(seed=3, drop_rate=0.05, duplicate_rate=0.1,
                             reorder_rate=0.1, corrupt_rate=0.05),
    ))
    sim.inject_workload(rate_per_s=4.0, duration_s=3.0)
    sim.run(6.0)
    assert sim.wire_violation_totals()  # corrupted copies reached ingress
    return sim


@pytest.mark.parametrize("scenario", [
    _blocks, _admission_with_rbf, _equivocating_censor, _chaos,
], ids=lambda scenario: scenario.__name__.strip("_"))
def test_a_run_leaves_no_cyclic_garbage(scenario):
    """Why the pause costs nothing: with the collector off for the whole
    build and run, a full pass afterwards finds no unreachable cycle."""
    gc.disable()
    gc.collect()
    sim = scenario()
    assert sim.loop.processed_events > 400
    assert gc.collect() == 0


def test_objects_frozen_by_the_caller_stay_frozen():
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
    gc.freeze()
    try:
        sim.run(1.0)
        # Not 0: the run did not unfreeze what it had not frozen (the
        # count still shrinks as frozen objects die by reference count).
        assert gc.get_freeze_count() > 1000
    finally:
        gc.unfreeze()


def test_a_dropped_simulation_is_reclaimed_after_a_run():
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
    sim.inject_at(0.1, 0)
    sim.run(2.0)
    node = weakref.ref(sim.nodes[3])
    del sim
    gc.collect()
    assert node() is None


def test_garbage_made_during_a_run_is_still_collected():
    """``freeze`` is not ``disable``: a run that makes cycles sheds them."""
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
    probes = []

    class Cycle:
        def __init__(self):
            self.me = self

    def churn():
        probes.append(weakref.ref(Cycle()))
        for _ in range(5000):
            Cycle()
        if len(probes) < 4:
            sim.loop.call_later(0.1, churn)

    sim.loop.call_later(0.1, churn)
    sim.run(1.0)
    assert len(probes) == 4
    assert probes[0]() is None


def test_building_2000_nodes_triggers_no_full_collection():
    before = [gen["collections"] for gen in gc.get_stats()]
    LOSimulation(SimulationParams(num_nodes=2000, seed=1234))
    after = [gen["collections"] for gen in gc.get_stats()]
    assert after[2] == before[2]
    # At most the one young pass that re-enabling the collector allows.
    assert sum(after) - sum(before) <= 1


@pytest.mark.gate
def test_building_10000_nodes_costs_no_full_collection_and_18_objects_a_node(
        monkeypatch):
    """Before the collector was paused for the build it made 8 full passes
    over a graph that only grows, and every node carried 68
    collector-tracked objects, 32 of them empty lists; then 31, six of
    them empty sets and the node's own instance dict; then 23, six of
    them empty lists and its topology neighbour set.  A node now carries
    16: an eager per-node container or a lost pause fails here instead of
    silently doubling set-up.  (The run of
    ``test_a_10000_node_run_makes_one_young_pass_that_frees_nothing`` is
    too short to show the run-side passes.)"""
    # Start from a fresh process's heap: the build empties the caches, and
    # would otherwise free an earlier run's memo entries (and key pairs)
    # inside the count, which would drop.
    gc.enable()
    reset_caches()
    monkeypatch.setattr(keys, "_VERIFIERS", {})
    gc.collect()
    tracked = len(gc.get_objects())
    full_passes = gc.get_stats()[2]["collections"]
    sim = LOSimulation(SimulationParams(num_nodes=10_000, seed=1234))
    full_passes = gc.get_stats()[2]["collections"] - full_passes
    per_node = (len(gc.get_objects()) - tracked) / 10_000
    assert len(sim.nodes) == 10_000
    assert full_passes == 0, full_passes
    assert per_node <= 18, per_node


@pytest.mark.gate
def test_a_10000_node_run_makes_one_young_pass_that_frees_nothing():
    """The run pauses the collector and ends with one young pass; before,
    a run this size made hundreds of passes over the static network, all
    with collected == 0.  A lost pause shows as extra passes, and a run
    that starts making cyclic garbage shows as collected > 0."""
    gc.enable()
    sim = LOSimulation(SimulationParams(num_nodes=10_000, seed=1234))
    client = KeyPair.generate(seed=b"ci-client")
    rng = random.Random(1234)

    def share(nonce, targets):
        tx = make_transaction(client, nonce, 10, sim.loop.now, 250)
        for target in targets:
            sim.nodes[target].receive_client_transaction(tx)

    for nonce in range(1, 5):
        sim.loop.call_at(0.2 * nonce, share, nonce,
                         rng.sample(range(10_000), 25))
    passes = []

    def hook(phase, info):
        if phase == "stop":
            passes.append((info["generation"], info["collected"]))

    before = _young_middle_full()
    gc.callbacks.append(hook)
    try:
        sim.run(1.0)
    finally:
        gc.callbacks.remove(hook)
    delta = [b - a for a, b in zip(before, _young_middle_full())]
    committed = sum(len(node.log) for node in sim.nodes.values())
    assert committed > 100, committed
    assert delta == [1, 0, 0], delta
    assert passes == [(0, 0)], passes


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 every instance also owns a tracked __dict__",
)
def test_a_fresh_node_costs_at_most_36_tracked_objects():
    nodes = 1000
    gc.disable()  # what the build allocates stays in the young generation
    LOSimulation(SimulationParams(num_nodes=4, seed=1))  # warm shared caches
    gc.collect()
    sim = LOSimulation(SimulationParams(num_nodes=nodes, seed=1234))
    per_node = len(gc.get_objects(generation=0)) / nodes
    assert len(sim.nodes) == nodes
    assert per_node <= 36, per_node


def test_an_idle_network_materialises_no_per_peer_state():
    sim = LOSimulation(SimulationParams(num_nodes=50, seed=5))
    sim.run(5.5)  # five sync ticks per node, nothing to reconcile
    nodes = list(sim.nodes.values())
    assert sim.loop.processed_events >= 5 * len(nodes)
    assert sum(len(node.acct.stores) for node in nodes) == 0
    assert not any(node.log._cell_masks for node in nodes)
