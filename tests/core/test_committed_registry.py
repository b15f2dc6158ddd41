"""The simulation's registry of committed sketch ids (``Directory.committed``)."""

from repro.core.reconciliation import SyncRequest, full_range_spec
from repro.net.message import Message
from repro.sketch import PinSketch
from repro.sketch.registry import MAX_CANDIDATES

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
    cap = MAX_CANDIDATES
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


def test_a_registry_past_a_window_eliminates_only_inside_it(monkeypatch):
    """A capacity-16 basis covers the newest 256 of 1,024 ids: a difference
    of those decodes by elimination, one holding an older or evicted id by
    Berlekamp--Massey, both exactly, and the basis is rebuilt once per at
    least half a window of new ids."""
    import random

    from repro.sketch.gf import GF2Tower32
    from repro.sketch.pinsketch import clear_decode_cache
    from repro.sketch.registry import _Basis

    runs, builds = [], []
    berlekamp_massey = GF2Tower32.berlekamp_massey
    extend = _Basis.extend

    def counting_bm(self, odd):
        runs.append(len(odd))
        return berlekamp_massey(self, odd)

    def counting_extend(basis, fresh):
        if not basis.ids:  # the first build, or a rebuild
            builds.append(len(fresh))
        return extend(basis, fresh)

    monkeypatch.setattr(GF2Tower32, "berlekamp_massey", counting_bm)
    monkeypatch.setattr(_Basis, "extend", counting_extend)
    sim = make_sim(num_nodes=3)
    registry = sim.directory.committed
    rnd = random.Random(5)
    ids = rnd.sample(range(1, 1 << 32), 3000)
    evicted = []
    for start in range(0, len(ids), 25):
        before = set(registry)
        sim.nodes[start % 3]._commit_bundle(ids[start:start + 25], None)
        evicted += sorted(before - set(registry))
        held = list(registry)
        newest = rnd.sample(held[-256:], 9)
        older = held[:-256] + evicted[-50:]
        cases = [(newest, 0)]
        if older:
            cases.append((newest[:8] + [rnd.choice(older)], 1))
        for difference, searched in cases:
            sketch = PinSketch(16, 32)
            sketch.add_all(difference)
            clear_decode_cache()
            del runs[:]
            assert sketch.decode(registry) == set(difference)
            assert len(runs) == searched
    assert len(registry) == MAX_CANDIDATES and len(evicted) > 1000
    assert 2 <= len(builds) <= 1 + len(ids) // 128
