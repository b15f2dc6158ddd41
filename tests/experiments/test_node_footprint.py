"""A node costs what it holds: the per-node state of a freshly built node.

At 10,000 nodes the per-node bytes times the node count is the simulator's
memory; each assertion here pins one way that state used to grow without
holding anything (docs/performance.md, "A node costs what it holds").
"""

import gc
import tracemalloc

from repro.core.node import LONode
from repro.experiments.harness import LOSimulation, SimulationParams

#: Traced bytes a node of a 1,000-node build allocated when the slots and
#: the shared neighbour sets went in (8,225 B on CPython 3.11; 3.9 and 3.12
#: read 8,116 and 8,209).  Before, a node cost 12,070 B.
MEASURED_BYTES_PER_NODE = 8_225


def _fields(obj):
    """Every attribute value an object holds, slotted or in a dict."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(cls.__dict__.get("__slots__", ()))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def test_an_honest_node_keeps_every_attribute_in_a_slot():
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    for node in sim.nodes.values():
        # An attribute added outside LONode.__slots__ would land here.
        assert node.__dict__ == {}
        assert sorted(_fields(node)) == sorted(LONode.__slots__)


def test_a_node_holds_the_topologys_own_neighbour_set():
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    for node_id, node in sim.nodes.items():
        assert sim.topology[node_id] is node.neighbors


def test_a_fresh_node_holds_no_set():
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    node = sim.nodes[0]
    shared = sim.topology[0]  # the topology's set, not the node's own
    for owner in (node, node.log, node.acct, node.ledger):
        sets = [name for name, value in _fields(owner).items()
                if isinstance(value, set) and value is not shared]
        assert sets == [], (type(owner).__name__, sets)


def test_a_1000_node_build_costs_what_was_measured_a_node():
    nodes = 1000
    LOSimulation(SimulationParams(num_nodes=4, seed=1))  # warm shared caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = LOSimulation(SimulationParams(num_nodes=nodes, seed=1234))
        per_node = (tracemalloc.get_traced_memory()[0] - before) / nodes
    finally:
        tracemalloc.stop()
    assert len(sim.nodes) == nodes
    assert per_node <= 1.10 * MEASURED_BYTES_PER_NODE, per_node
