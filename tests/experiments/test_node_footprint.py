"""A node costs what it holds: the per-node state of a freshly built node.

At 10,000 nodes the per-node bytes times the node count is the simulator's
memory; each assertion here pins one way that state used to grow without
holding anything (docs/performance.md, "A node costs what it holds").
"""

import gc
import tracemalloc

from repro.core.node import LONode
from repro.empty import EMPTY_MAP
from repro.experiments.harness import LOSimulation, SimulationParams

#: Traced bytes a node of a 1,000-node build allocated once its containers
#: were made by their first write and its neighbours became a sorted tuple
#: (5,428 B on CPython 3.11).  Before, a node cost 8,225 B, and 12,070 B
#: before the slots went in.
MEASURED_BYTES_PER_NODE = 5_428


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
    # A sorted tuple, the only copy: ``sim.topology`` reads it through the
    # node, so a rebind (shuffler, eviction) is what the topology says.
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    for node_id, node in sim.nodes.items():
        assert type(node.neighbors) is tuple
        assert list(node.neighbors) == sorted(set(node.neighbors))
        assert sim.topology[node_id] is node.neighbors
    node = sim.nodes[0]
    node.neighbors = node.neighbors[1:]
    assert sim.topology[0] is node.neighbors


def test_a_fresh_node_holds_no_empty_container_of_its_own():
    # Every list or map a node has not written is the shared empty (``()``
    # or EMPTY_MAP), and no field is a set.
    sim = LOSimulation(SimulationParams(num_nodes=8, seed=3))
    node = sim.nodes[0]
    owners = (node, node.log, node.acct, node.ledger, node.quarantine)
    for owner in owners:
        fields = _fields(owner)
        made = [name for name, value in fields.items()
                if isinstance(value, set)
                or isinstance(value, (dict, list)) and not value]
        assert made == [], (type(owner).__name__, made)
        shared = [name for name, value in fields.items()
                  if value is EMPTY_MAP or value == ()]
        assert shared, type(owner).__name__


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
