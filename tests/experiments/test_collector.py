"""The harness and CPython's cyclic collector: states and counts, no timings.

``LOSimulation`` builds its network with the collector paused and runs
with everything that was alive before the run frozen out of the
collector's reach.  Both must be invisible afterwards: the caller's
collector state comes back, nothing stays frozen, a dropped simulation is
still reclaimed -- and an idle network allocates no per-node state.
"""

import gc
import sys
import weakref

import pytest

from repro import obs
from repro.experiments.harness import LOSimulation, SimulationParams
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


def test_run_freezes_the_graph_and_leaves_nothing_frozen():
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
    frozen_inside = []
    sim.loop.call_later(
        0.5, lambda: frozen_inside.append(gc.get_freeze_count())
    )
    sim.run(1.0)
    assert frozen_inside[0] > 0
    assert gc.get_freeze_count() == 0
    with obs.use_tracer(obs.Tracer()):  # the traced branch of run()
        sim.loop.call_later(
            0.5, lambda: frozen_inside.append(gc.get_freeze_count())
        )
        sim.run(2.0)
    assert frozen_inside[1] > 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_nothing_stays_frozen_when_a_callback_raises_out_of_run():
    sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))

    def boom():
        raise RuntimeError("callback failed")

    sim.loop.call_later(0.5, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run(1.0)
    assert gc.get_freeze_count() == 0


def test_run_until_steady_leaves_nothing_frozen():
    with obs.use_timeline(TimelineRecorder(interval_s=0.5, bins=64)):
        sim = LOSimulation(SimulationParams(num_nodes=6, seed=1))
        frozen_inside = []
        sim.loop.call_later(
            0.5, lambda: frozen_inside.append(gc.get_freeze_count())
        )
        sim.run_until_steady(4.0)
    assert frozen_inside[0] > 0
    assert gc.get_freeze_count() == 0


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
    assert not any(node.log._cell_items for node in nodes)
