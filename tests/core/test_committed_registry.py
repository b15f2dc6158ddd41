"""The simulation's registry of committed sketch ids (``Directory.committed``)."""

from repro.core.reconciliation import SyncRequest, full_range_spec
from repro.net.message import Message
from repro.sketch import PinSketch
from repro.sketch.gf import GF2m

from tests.conftest import make_sim


def _request_with(requester, ids, capacity):
    """A sync request whose sketch carries exactly ``ids``."""
    sketch = PinSketch(capacity, requester.config.sketch_bits)
    sketch.add_all(ids)
    spec = full_range_spec(requester.config.clock_cells)
    request = SyncRequest(request_id=1, header=requester.header(), spec=spec,
                          sketch=sketch)
    return Message(requester.node_id, 1, "lo/sync_req", request,
                   request.wire_size())


def test_registry_holds_every_committed_id_and_nothing_else():
    sim = make_sim(num_nodes=6, seed=3)
    sim.inject_workload(rate_per_s=8.0, duration_s=2.0)
    sim.run(5.0)
    committed = set()
    for node in sim.nodes.values():
        committed.update(node.log.known_ids())
    assert committed and set(sim.directory.committed) == committed
    assert len(sim.directory.committed) == len(committed)  # once each


def test_an_id_inside_a_received_sketch_enters_only_once_committed(
        monkeypatch):
    import repro.core.node as node_module

    sim = make_sim(num_nodes=4)
    requester, responder = sim.nodes[0], sim.nodes[1]
    registry = sim.directory.committed
    seen_at_decode = []
    decode_difference = node_module.decode_difference

    def spying(local, remote, candidates=()):
        assert candidates is registry  # the registry itself, not a copy
        seen_at_decode.append(set(candidates))
        return decode_difference(local, remote, candidates)

    monkeypatch.setattr(node_module, "decode_difference", spying)
    # Far more foreign ids than the sketch holds: the decode fails, the
    # responder answers "split" and commits nothing.
    overloaded = list(range(7_000_001, 7_000_041))
    responder._handle_sync_request(_request_with(requester, overloaded, 16))
    assert not set(overloaded) & set(registry)
    # A decodable one: the responder commits the id it lacked, and only
    # that commit puts it in the registry.
    foreign = 7_100_001
    responder._handle_sync_request(_request_with(requester, [foreign], 16))
    assert [foreign in ids for ids in seen_at_decode] == [False, False]
    assert foreign in responder.log and list(registry)[-1] == foreign
    assert foreign not in requester.log


def test_registry_keeps_the_newest_ids_in_first_commit_order():
    sim = make_sim(num_nodes=3)
    first, second = sim.nodes[0], sim.nodes[1]
    cap = GF2m.MAX_TESTED_CANDIDATES
    assert cap == 1024
    first._commit_bundle(list(range(1, 1101)), source_peer=None)
    # Re-committed ids keep their first-commit place; new ones go last.
    second._commit_bundle(list(range(500, 1200)), source_peer=None)
    assert list(sim.directory.committed) == list(range(1200 - cap, 1200))
    # An evicted id committed again by a third node is new again.
    sim.nodes[2]._commit_bundle([3], source_peer=None)
    assert list(sim.directory.committed) == list(range(1201 - cap, 1200)) + [3]


def test_two_simulations_do_not_share_a_registry():
    a, b = make_sim(num_nodes=3, seed=1), make_sim(num_nodes=3, seed=1)
    assert a.directory.committed is not b.directory.committed
    a.nodes[0]._commit_bundle([11, 12], source_peer=None)
    assert list(a.directory.committed) == [11, 12]
    assert list(b.directory.committed) == []


def test_restart_leaves_the_registry_intact():
    sim = make_sim(num_nodes=4)
    node = sim.nodes[2]
    node._commit_bundle([21, 22, 23], source_peer=None)
    sim.nodes[0]._commit_bundle([24], source_peer=None)
    before = list(sim.directory.committed)
    node.restart()
    assert list(sim.directory.committed) == before == [21, 22, 23, 24]
