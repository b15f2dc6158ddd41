"""Unit tests for reconciliation messages and adaptive sizing."""

import pytest

from repro.core.config import LOConfig
from repro.core.reconciliation import (
    SplitSpec,
    adaptive_capacity,
    decode_difference,
    ids_for_spec,
    sketch_for_spec,
)
from repro.crypto import KeyPair
from repro.mempool import TransactionLog, make_transaction
from repro.sketch import PinSketch

CLIENT = KeyPair.generate(seed=b"recon-client")


def filled_log(n=20):
    log = TransactionLog(sketch_capacity=64)
    ids = []
    for i in range(1, n + 1):
        tx = make_transaction(CLIENT, i, 10, created_at=0.0)
        log.append(tx.sketch_id)
        ids.append(tx.sketch_id)
    return log, ids


def test_split_spec_cell_halving():
    spec = SplitSpec(tuple(range(8)))
    left, right = spec.split()
    assert left.cells == (0, 1, 2, 3)
    assert right.cells == (4, 5, 6, 7)
    assert left.bit_level == right.bit_level == 0


def test_split_spec_bit_descent():
    spec = SplitSpec((3,))
    left, right = spec.split()
    assert left.cells == right.cells == (3,)
    assert left.bit_level == right.bit_level == 1
    assert left.bit_index == 0 and right.bit_index == 1
    ll, lr = left.split()
    assert ll.bit_level == 2
    assert {ll.bit_index, lr.bit_index} == {0, 2}


def test_split_spec_matches_bits():
    spec = SplitSpec((0,), bit_level=2, bit_index=0b10)
    assert spec.matches(0b0110)
    assert not spec.matches(0b0111)
    assert SplitSpec((0,)).matches(12345)  # level 0 matches all


def test_split_partition_is_exact():
    spec = SplitSpec((1, 2), bit_level=1, bit_index=1)
    left, right = spec.split()
    for value in range(1, 64):
        in_parent = spec.matches(value)
        assert in_parent == (left.matches(value) or right.matches(value))
        assert not (left.matches(value) and right.matches(value))


def test_sketch_for_spec_cells_matches_manual():
    log, ids = filled_log()
    spec = SplitSpec(tuple(range(16)))
    sketch = sketch_for_spec(log, spec, capacity=32)
    expected = set(ids_for_spec(log, spec))
    assert sketch.decode() == expected


def test_sketch_for_spec_bit_refined():
    log, ids = filled_log()
    spec = SplitSpec(tuple(range(32)), bit_level=1, bit_index=0)
    sketch = sketch_for_spec(log, spec, capacity=32)
    expected = {i for i in ids if i % 2 == 0}
    assert sketch.decode() == expected
    assert set(ids_for_spec(log, spec)) == expected


def test_adaptive_capacity_scaling():
    config = LOConfig(min_sketch_capacity=16, sketch_capacity=100,
                      sketch_safety_factor=2.0)
    assert adaptive_capacity(1, config) == 16          # floor
    assert adaptive_capacity(20, config) == 64         # 40 -> next pow2
    assert adaptive_capacity(500, config) == 100       # ceiling


def test_adaptive_capacity_power_of_two():
    config = LOConfig()
    for estimate in (1, 3, 9, 17, 33):
        capacity = adaptive_capacity(estimate, config)
        assert capacity & (capacity - 1) == 0 or capacity == config.sketch_capacity


def test_decode_difference_success_and_failure():
    a = PinSketch(8, 32)
    b = PinSketch(8, 32)
    a.add_all({101, 102})
    b.add_all({102, 103})
    assert decode_difference(a, b) == {101, 103}
    overloaded = PinSketch(2, 32)
    other = PinSketch(2, 32)
    import random

    overloaded.add_all(random.Random(5).sample(range(1, 2 ** 31), 30))
    result = decode_difference(overloaded, other)
    assert result is None or len(result) <= 2  # None, or an aliased decode


def test_message_wire_sizes():
    from repro.core.reconciliation import (
        ContentRequest,
        ContentResponse,
        SyncResponse,
    )

    request = ContentRequest(request_id=1, ids=(1, 2, 3))
    assert request.wire_size() == 8 + 12
    tx = make_transaction(CLIENT, 99, 5, created_at=0.0, size_bytes=250)
    response = ContentResponse(request_id=1, txs=(tx,))
    assert response.wire_size() == 8 + 250


# ------------------------------------------- the responder's own slice (held)


def _outcome(sim):
    """Everything a run decided, as one digest plus the stores' id sets."""
    import hashlib
    import json

    known = {
        node_id: {
            key.hex(): sorted(store.known_ids())
            for key, store in sorted(node.acct.stores.items())
        }
        for node_id, node in sim.nodes.items()
    }
    summary = {
        "events": sim.loop.processed_events,
        "delivered": sim.network.delivered_messages,
        "overhead_bytes": sim.total_overhead_bytes(),
        "latencies": sim.mempool_tracker.all_latencies(),
        "orders": {n: list(node.log.order) for n, node in sim.nodes.items()},
        "headers": {n: node.header().signature.hex()
                    for n, node in sim.nodes.items()},
        "known_ids": known,
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), known


def _run_counting(monkeypatch, build, blind):
    """Run ``build()``, counting eliminations and Frobenius chains.

    ``blind`` forces the candidates every responder decodes with to ``()``,
    so each difference is searched for instead of eliminated.  Returns
    ``(outcome, 1 per elimination that found the set else 0, chain count)``.
    """
    import repro.core.node as node_module
    from repro.sketch import CandidateRegistry
    from repro.sketch.gf import GF2Tower32

    tested, chains = [], []
    combination = CandidateRegistry.combination
    frobenius_chain = GF2Tower32.frobenius_chain

    def counting(self, packed, capacity, m):
        found = combination(self, packed, capacity, m)
        tested.append(int(found is not None))
        return found

    def counting_chain(self, q):
        chains.append(len(q) - 1)
        return frobenius_chain(self, q)

    monkeypatch.setattr(CandidateRegistry, "combination", counting)
    monkeypatch.setattr(GF2Tower32, "frobenius_chain", counting_chain)
    if blind:
        monkeypatch.setattr(
            node_module, "decode_difference",
            lambda local, remote, candidates=(): decode_difference(
                local, remote),
        )
    sim = build()
    return _outcome(sim), tested, len(chains)


def _with_and_without_candidates(monkeypatch, build):
    with monkeypatch.context() as patch:
        seen = _run_counting(patch, build, blind=False)
    with monkeypatch.context() as patch:
        blind = _run_counting(patch, build, blind=True)
    return seen, blind


def _sixteen_nodes():
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=16, seed=11)
    sim.inject_workload(rate_per_s=40.0, duration_s=3.0)
    sim.run(8.0)
    return sim


def test_same_seed_run_is_identical_with_held_forced_empty(monkeypatch):
    """The committed-id registry changes what a decode costs, never a
    result: forcing the responders' candidates to ``()`` gives the same run."""
    ((digest, known), tested, _), ((blind_digest, blind_known), blind, _) = \
        _with_and_without_candidates(monkeypatch, _sixteen_nodes)
    assert tested and all(tested)  # every miss was one elimination
    assert blind == []      # ... and without candidates none ran
    assert known == blind_known
    assert digest == blind_digest


def _corrupting_chaos():
    from repro.core.config import LOConfig
    from repro.experiments.harness import LOSimulation, SimulationParams
    from repro.net.chaos import ChaosPlan

    sim = LOSimulation(SimulationParams(
        num_nodes=14, seed=13,
        config=LOConfig(quarantine_base_s=2.0, quarantine_max_s=8.0),
        chaos_plan=ChaosPlan(seed=9, duplicate_rate=0.1, reorder_rate=0.1,
                             corrupt_rate=0.08),
    ))
    sim.inject_workload(rate_per_s=60.0, duration_s=3.0)
    sim.run(8.0)
    return sim


def _garbage_neighbour():
    from repro.attacks import Garbage, attacker
    from repro.core.config import LOConfig
    from repro.experiments.harness import LOSimulation, SimulationParams

    sim = LOSimulation(SimulationParams(
        num_nodes=12, seed=3,
        config=LOConfig(quarantine_base_s=1.0, quarantine_max_s=4.0),
        malicious_ids=[4],
        attacker_factory=attacker(Garbage),
    ))
    sim.inject_workload(rate_per_s=60.0, duration_s=3.0)
    sim.run(8.0)
    return sim


@pytest.mark.parametrize("build", [_corrupting_chaos, _garbage_neighbour])
def test_candidates_change_no_outcome_where_the_search_still_runs(
        monkeypatch, build):
    """Corrupted copies and a garbage-sending neighbour: some sketches
    (over-capacity ones) are no combination of committed ids, so the
    Frobenius chain still runs with the registry in place -- and the run
    is the same as one that searches for every difference."""
    ((digest, known), tested, chains), ((blind_digest, blind_known), _,
                                        blind_chains) = \
        _with_and_without_candidates(monkeypatch, build)
    assert sum(tested) > 0
    assert chains >= 1                # not vacuous: the search ran
    assert blind_chains > chains
    assert known == blind_known
    assert digest == blind_digest


def test_sync_request_records_old_slice_and_difference():
    """``known_ids`` after a round: what the responder held in the spec
    before the round plus the decoded difference -- the union the two
    ``ids_for_spec`` reads (before / after the commit) both give."""
    from repro.core.reconciliation import SyncRequest, full_range_spec
    from repro.net.message import Message
    from tests.conftest import make_sim

    sim = make_sim(num_nodes=4)
    requester, responder = sim.nodes[0], sim.nodes[1]
    shared = [responder.create_transaction(fee=5) for _ in range(6)]
    for tx in shared[:4]:
        requester.receive_client_transaction(tx)
    only_requester = [requester.create_transaction(fee=7) for _ in range(5)]
    spec = full_range_spec(responder.config.clock_cells)
    held_before = set(ids_for_spec(responder.log, spec))
    difference = {tx.sketch_id for tx in shared[4:] + only_requester}
    request = SyncRequest(
        request_id=1, header=requester.header(), spec=spec,
        sketch=sketch_for_spec(requester.log, spec, 16),
    )
    responder._handle_sync_request(
        Message(0, 1, "lo/sync_req", request, request.wire_size()))
    store = responder.acct.store_for(requester.public_key)
    assert store.known_ids() == held_before | difference
    assert store.known_ids() == set(ids_for_spec(responder.log, spec))
    assert all(tx.sketch_id in responder.log for tx in only_requester)


def test_full_range_spec_is_one_shared_instance():
    """Every whole-clock probe carries the same spec object, so a receiver
    checks its 32 cells once, not once per request."""
    from repro.core import wire
    from repro.core.reconciliation import full_range_spec
    from tests.conftest import make_sim

    assert full_range_spec(32) is full_range_spec(32)
    assert full_range_spec(32) == SplitSpec(tuple(range(32)))
    assert full_range_spec(8).cells == tuple(range(8))
    sim = make_sim(num_nodes=4)
    node = sim.nodes[0]
    shared = full_range_spec(node.config.clock_cells)
    assert node._flagged_spec(1) is shared and node._flagged_spec(2) is shared
    sim.nodes[1].create_transaction(fee=3)
    sim.run(4.0)
    stats = wire._CLEAN_SPECS.stats
    assert stats.hits > 0 and id(shared) in wire._CLEAN_SPECS.entries
