"""The memoised eligible-neighbour list equals a from-scratch recompute.

``LONode._eligible_neighbors`` keeps its answer between calls and must
notice every change of its inputs: an adopted exposure, a quarantine
episode opening or expiring with the clock, and the neighbour tuple being
rebound by the shuffler, enforcement or a test.  The oracle below is the
plain rule, recomputed on every call.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.accountability import ExposureBlame
from repro.core.commitment import EquivocationEvidence
from repro.core.config import LOConfig
from repro.core.enforcement import EnforcementManager
from repro.gossip import NeighborShuffler, PeerSampler
from repro.net.message import Message
from tests.conftest import make_sim
from tests.core.test_accountability import make_header

NODES = 10


def recompute(node):
    """The eligibility rule with no memory (the oracle)."""
    out = []
    for peer in node.neighbors:
        if node.quarantine.is_quarantined(peer, node.now):
            continue
        if not node.acct.is_exposed(node.directory.key_of(peer)):
            out.append(peer)
    return sorted(out)


def equivocation_by(keypair):
    """A verifiable exposure of ``keypair``'s owner."""
    evidence = EquivocationEvidence(
        keypair.public_key,
        make_header([[1], [2]], keypair),
        make_header([[1], [3]], keypair),
    )
    return ExposureBlame(keypair.public_key, equivocation=evidence)


peers = st.integers(min_value=1, max_value=NODES - 1)
operations = st.one_of(
    st.tuples(st.just("expose"), peers),
    # threshold 3: short of it, exactly at it, and past it
    st.tuples(st.just("violate"), peers, st.integers(1, 4)),
    # episodes last 4 s, then 8 s: stay inside one, or step across its end
    st.tuples(st.just("advance"), st.sampled_from([0.3, 1.1, 4.5, 9.0])),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("evict")),
    st.tuples(st.just("restart")),
    st.tuples(st.just("rewire"), peers),
)


@given(
    ops=st.lists(st.tuples(operations, st.booleans()), max_size=14),
    seed=st.integers(0, 3),
)
@example(
    # Every peer quarantined, the list asked for meanwhile, then the clock
    # steps past the expiry and the oracle re-admits them first.
    ops=[(("violate", peer, 3), False) for peer in range(1, NODES)]
    + [(("advance", 4.5), True)],
    seed=0,
)
@example(
    # The first exposure ends the unfiltered shortcut for good.
    ops=[(("expose", 3), False), (("advance", 1.1), True),
         (("expose", 5), True), (("rotate",), False)],
    seed=1,
)
@example(
    # A quarantine opens and closes mid-run with nobody exposed: the list
    # is filtered while it is open and whole again once it has closed.
    ops=[(("advance", 0.3), False), (("violate", 2, 3), True),
         (("advance", 1.1), False), (("advance", 4.5), True),
         (("rewire", 2), False), (("rewire", 2), True)],
    seed=2,
)
@settings(max_examples=80, deadline=None)
def test_memoised_eligible_neighbours_equal_a_recompute(ops, seed):
    sim = make_sim(num_nodes=NODES, seed=seed, config=LOConfig(
        quarantine_threshold=3, quarantine_base_s=4.0, quarantine_max_s=64.0,
    ))
    node = sim.nodes[0]
    # Until a "restart" nothing but this test asks node 0: its own ticks
    # would refresh the list at every expiry and hide a stale one.
    node.stop()
    manager = EnforcementManager(sim.directory)
    manager.attach(node)
    shuffler = NeighborShuffler(
        sim.loop, node_id=0, owner=node,
        sampler=PeerSampler(range(NODES), random.Random(seed)),
        rng=random.Random(seed + 1), target_degree=4,
        blocklist=sim._blocklist_ids(node),
    )
    assert list(node._eligible_neighbors()) == recompute(node)
    for op, oracle_first in ops:
        kind = op[0]
        if kind == "expose":
            node._broadcast_exposure(equivocation_by(sim.nodes[op[1]].keypair))
        elif kind == "violate":
            for _ in range(op[2]):
                node.on_message(Message(op[1], 0, "lo/evil", None, wire_bytes=8))
        elif kind == "advance":
            sim.loop.run_until(sim.loop.now + op[1])
        elif kind == "rotate":
            shuffler.tick()
        elif kind == "evict":
            manager.eviction.apply(node, sim.directory)
        elif kind == "restart":
            node.restart()
        else:  # rebind, as the shuffler and eviction do
            node.neighbors = tuple(sorted(set(node.neighbors) ^ {op[1]}))
        # The oracle's is_quarantined() re-admits expired peers as a side
        # effect; the memo must be right whichever of the two looks first.
        if oracle_first:
            expected = recompute(node)
            assert list(node._eligible_neighbors()) == expected
        else:
            assert list(node._eligible_neighbors()) == recompute(node)
        for other in sim.nodes.values():
            assert list(other._eligible_neighbors()) == recompute(other)


def test_the_list_is_reused_while_nothing_changed_and_replaced_when_it_did():
    sim = make_sim(num_nodes=NODES)
    node = sim.nodes[0]
    # Nobody exposed, no quarantine: the neighbour tuple itself.
    assert node._eligible_neighbors() is node.neighbors
    everyone = node.neighbors
    node._broadcast_exposure(equivocation_by(sim.nodes[everyone[0]].keypair))
    first = node._eligible_neighbors()
    assert list(first) == list(everyone[1:])
    assert node._eligible_neighbors() is first
    node.neighbors = everyone[:-1]  # a rebind, as the shuffler does
    second = node._eligible_neighbors()
    assert list(second) == list(everyone[1:-1]) and second is not first
    assert list(first) == list(everyone[1:])  # not mutated either
    node._broadcast_exposure(equivocation_by(sim.nodes[second[0]].keypair))
    assert list(node._eligible_neighbors()) == list(everyone[2:-1])
