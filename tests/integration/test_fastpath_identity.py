"""Shortcuts on vs off: same seed, byte-identical observable output.

``Network.send_fanout`` skips its fault checks as a whole while no fault
is installed; installing any fault (here: a delivery hook that approves
every message) makes every message pass through them.  The two must be
*observably indistinguishable*: identical simulation results, identical
event counts and identical ``repro.trace/1`` trace exports, line for line.
The same standard holds for the phase profiler, the memoised eligible
neighbours and the memoised, table-dispatched ingress below.
"""

import json

import pytest

import repro.experiments.harness as harness
from repro import obs
from repro.attacks import Censor, Garbage, attacker, make_censor_factory
from repro.core import wire
from repro.core.config import LOConfig
from repro.core.node import LONode
from repro.experiments.harness import LOSimulation, SimulationParams
from repro.mempool.admission import AdmissionConfig
from repro.obs.caches import cache_stats
from repro.net import Endpoint, Network
from repro.net.chaos import ChaosPlan
from repro.obs import TimelineRecorder, Tracer, trace_lines
from repro.sim import EventLoop
from repro.sketch.pinsketch import clear_decode_cache
from tests.core.test_eligible_memo import recompute


def _traced_run(approve_all_hook: bool):
    """One small simulation; returns (summary dict, trace lines)."""
    tracer, timeline = Tracer(), TimelineRecorder()
    with obs.use_tracer(tracer), obs.use_timeline(timeline):
        sim = LOSimulation(SimulationParams(
            num_nodes=10, seed=1234, config=LOConfig(),
        ))
        if approve_all_hook:
            sim.network.add_delivery_hook(lambda message: True)
        injected = sim.inject_workload(rate_per_s=8.0, duration_s=4.0)
        sim.run(6.0)
        summary = {
            "injected": injected,
            "events_processed": sim.loop.processed_events,
            "now": sim.loop.now,
            "delivered": sim.network.delivered_messages,
            "dropped": sim.network.dropped_messages,
            "overhead_bytes": sim.total_overhead_bytes(),
            "latencies": sim.mempool_tracker.all_latencies(),
            "exposures": sorted(
                (node_id, sorted(peer.hex() for peer in node.acct.exposed))
                for node_id, node in sim.nodes.items()
            ),
        }
    # meta=None keeps the export free of wall-clock fields; every line is
    # then a pure function of the simulation.
    return summary, trace_lines(tracer, timeline=timeline)


def test_fast_and_slow_send_paths_are_byte_identical():
    """An approve-all hook changes no summary field and no trace line."""
    clean_summary, clean_trace = _traced_run(approve_all_hook=False)
    hooked_summary, hooked_trace = _traced_run(approve_all_hook=True)
    assert json.dumps(clean_summary, sort_keys=True) == \
        json.dumps(hooked_summary, sort_keys=True)
    assert clean_summary["events_processed"] > 0
    assert clean_trace == hooked_trace  # line-for-line identical export


def test_telemetry_slots_are_read_per_call():
    """Objects built before an instrument is installed still report to it:
    every profiled site reads ``obs.PROFILER`` and the network reads
    ``obs.TRACER`` on each call, and nothing is charged once the slot is
    cleared again."""
    import gc

    from repro.crypto.keys import KeyPair, verify
    from repro.mempool.admission import Mempool
    from repro.mempool.transaction import make_transaction
    from repro.sketch.pinsketch import PinSketch

    class Sink(Endpoint):
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, message):
            pass

    loop = EventLoop()
    network = Network(loop)
    network.register(Sink(0))
    network.register(Sink(1))
    pool = Mempool()
    keypair = KeyPair.generate(seed=b"telemetry-slots")
    txs = [make_transaction(keypair, nonce, 100, 0.0) for nonce in range(3)]
    sketch = PinSketch(capacity=8, m=32)
    sketch.add_all([11, 22, 33])
    clear_decode_cache()
    decode_stats = cache_stats()["sketch.decode"]

    profiler = obs.PhaseProfiler()
    with obs.use_profiler(profiler):
        assert obs._gc_phase in gc.callbacks
        signatures = [keypair.sign(b"m%d" % i) for i in range(4)]
        assert profiler.calls == {"crypto": 4}
        for i, signature in enumerate(signatures):
            assert verify(keypair.public_key, b"m%d" % i, signature)
        assert profiler.calls == {"crypto": 8}
        for tx in txs:
            pool.admit(tx, now=0.0)
        assert profiler.calls["mempool"] == 3
        for _ in range(3):
            assert sketch.decode() == {11, 22, 33}
        misses = cache_stats()["sketch.decode"]["misses"] \
            - decode_stats["misses"]
        assert misses == 1
        assert profiler.calls["sketch"] == misses
    charged = dict(profiler.calls)
    assert obs._gc_phase not in gc.callbacks
    keypair.sign(b"after")
    pool.admit(make_transaction(keypair, 3, 100, 0.0), now=0.0)
    clear_decode_cache()
    sketch.decode()
    assert profiler.calls == charged

    tracer = Tracer()
    obs.set_tracer(tracer)
    try:
        network.send(0, 1, "ping", None, wire_bytes=64)
        loop.run_for(1.0)
    finally:
        obs.clear_tracer()
    assert [r["name"] for r in tracer.records] == ["net.send", "net.deliver"]
    network.send(0, 1, "ping", None, wire_bytes=64)
    loop.run_for(1.0)
    assert len(tracer.records) == 2


def test_profiled_run_is_byte_identical_to_unprofiled():
    """The phase profiler reads the wall clock but must never leak into
    deterministic artifacts: a profiled run's trace export and summary
    are line-for-line identical to an unprofiled run's."""
    plain_summary, plain_trace = _traced_run(approve_all_hook=False)
    profiler = obs.PhaseProfiler()
    with obs.use_profiler(profiler):
        profiled_summary, profiled_trace = _traced_run(approve_all_hook=False)
    assert json.dumps(plain_summary, sort_keys=True) == \
        json.dumps(profiled_summary, sort_keys=True)
    assert plain_trace == profiled_trace
    # ...while the profiler itself did observe the run
    assert profiler.self_s
    assert sum(profiler.calls.values()) > 0


def test_fast_path_reenables_after_faults_clear():
    """Each fault drops while installed and stops dropping once cleared."""
    class Sink(Endpoint):
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, message):
            pass

    loop = EventLoop()
    network = Network(loop)
    for node_id in range(4):
        network.register(Sink(node_id))

    def probe():
        """Every ordered pair once; returns (newly delivered, new drops)."""
        delivered = network.delivered_messages
        drops = network.drop_breakdown()
        for sender in range(4):
            network.send_fanout(
                sender, [peer for peer in range(4) if peer != sender],
                "test/probe", None, wire_bytes=1,
            )
        loop.run_until(loop.now + 1.0)
        return (network.delivered_messages - delivered,
                {reason: count - drops.get(reason, 0)
                 for reason, count in network.drop_breakdown().items()
                 if count != drops.get(reason, 0)})

    assert probe() == (12, {})
    network.crash(0)
    assert probe() == (6, {"crashed": 6})
    network.recover(0)
    assert probe() == (12, {})
    network.block_link(1, 2)
    network.partition([{0, 1}, {2, 3}])
    assert probe() == (4, {"blocked_link": 1, "partition": 7})
    network.unblock_link(1, 2)
    assert probe() == (4, {"partition": 8})  # partition still installed
    network.heal_partition()
    assert probe() == (12, {})


# ------------------------------------------- memoised eligible neighbours


class _AlwaysRecompute:
    """The eligibility rule with no memory: the oracle for the memo."""

    def _eligible_neighbors(self):
        return recompute(self)


class _RecomputingNode(_AlwaysRecompute, LONode):
    pass


def _shuffled_censor_run(monkeypatch, node_cls):
    """Rotating neighbours around an equivocating censor: full outcome."""
    monkeypatch.setattr(harness, "LONode", node_cls)

    def censor(**kwargs):
        node = node_cls(**kwargs)
        node.adversary = Censor(node, equivocate=True)
        return node

    sim = LOSimulation(SimulationParams(
        num_nodes=14, seed=21, config=LOConfig(),
        malicious_ids=[0], attacker_factory=censor,
        enable_shuffling=True, shuffle_period_s=1.5,
    ))
    assert type(sim.nodes[1]) is node_cls and type(sim.nodes[0]) is node_cls
    assert sim.nodes[0].adversary is not None
    # The first transaction is the censor's own: a fork needs a commitment.
    for index in range(8):
        sim.inject_at(0.2 + 0.4 * index, index % 14, fee=5 + index)
    sim.run(14.0)
    return {
        "events": sim.loop.processed_events,
        "delivered": sim.network.delivered_messages,
        "net": sim.network.collect_metrics(),
        "overhead_bytes": sim.total_overhead_bytes(),
        "latencies": sim.mempool_tracker.all_latencies(),
        "logs": [list(sim.nodes[i].log.order) for i in sorted(sim.nodes)],
        "neighbors": [sorted(sim.nodes[i].neighbors) for i in sorted(sim.nodes)],
        "counters": sorted(sim.counter.totals().items()),
        "exposures": sorted(
            (node_id, sorted(peer.hex() for peer in node.acct.exposed))
            for node_id, node in sim.nodes.items()
        ),
    }


def test_memoised_eligible_neighbours_do_not_change_a_shuffled_censor_run(
        monkeypatch):
    """Exposures, evictions by the shuffler and rotations all invalidate
    the memoised list; RNG draws and message order -- so every outcome --
    must match a node that recomputes the list on every call."""
    memoised = _shuffled_censor_run(monkeypatch, LONode)
    recomputed = _shuffled_censor_run(monkeypatch, _RecomputingNode)
    assert json.dumps(memoised, sort_keys=True) == \
        json.dumps(recomputed, sort_keys=True)
    # The run exercised what the memo has to notice.
    assert any(exposed for _, exposed in memoised["exposures"])
    assert memoised["events"] > 1000


# ---------------------------------- sync bookkeeping on occupied cells only


def _ids_cell_by_cell(log, spec):
    """A spec's ids walking every cell, full range or not."""
    items = []
    for cell in spec.cells:
        items.extend(i for i in log.items_in_cells((cell,)) if spec.matches(i))
    return items


class _EveryCell(_AlwaysRecompute):
    """The all-cell formulas: the oracle for the occupied-cell shortcuts
    (and, through the base, the filtered neighbour list)."""

    def _cell_gap(self, spec, clock):
        ours, theirs = self.log.clock.counters, clock.counters
        return sum(abs(ours[c] - theirs[c]) for c in spec.cells)

    def _own_counts_for_spec(self, spec):
        if spec.bit_level:
            return super()._own_counts_for_spec(spec)
        return {cell: len(self.log.items_in_cells((cell,)))
                for cell in spec.cells}

    def _slice_mask(self, spec):
        return self.log.mask_of(_ids_cell_by_cell(self.log, spec))


class _EveryCellNode(_EveryCell, LONode):
    pass


def _admission_run(monkeypatch, node_cls):
    """Admission, RBF and split rounds: full outcome."""
    monkeypatch.setattr(harness, "LONode", node_cls)
    sim = LOSimulation(SimulationParams(
        num_nodes=10, seed=8, enable_blocks=True,
        config=LOConfig(admission=AdmissionConfig(), min_sketch_capacity=2),
    ))
    sim.inject_open_loop(rate_per_s=25.0, duration_s=4.0, arrivals="bursty",
                         hot_fraction=0.6, rbf_fraction=0.2)
    sim.run(8.0)
    return {
        "events": sim.loop.processed_events,
        "net": sim.network.collect_metrics(),
        "overhead_bytes": sim.total_overhead_bytes(),
        "latencies": sim.mempool_tracker.all_latencies(),
        "admission": sim.admission_breakdown(),
        "logs": [list(sim.nodes[i].log.order) for i in sorted(sim.nodes)],
        "counters": sorted(sim.counter.totals().items()),
    }


def test_occupied_cell_bookkeeping_changes_no_outcome(monkeypatch):
    """The cell gap, own counts, the held slices recorded as cell masks
    and the unfiltered neighbour list must drive every round as the
    all-cell formulas (a slice recorded id by id) do."""
    fast = (
        _shuffled_censor_run(monkeypatch, LONode),
        _admission_run(monkeypatch, LONode),
    )
    every_cell = (
        _shuffled_censor_run(monkeypatch, _EveryCellNode),
        _admission_run(monkeypatch, _EveryCellNode),
    )
    assert json.dumps(fast, sort_keys=True) == \
        json.dumps(every_cell, sort_keys=True)
    censor, admission = fast
    assert any(exposed for _, exposed in censor["exposures"])
    counters = dict(admission["counters"])
    assert counters["reconciliations"] > 100
    assert counters["reconciliation_failures"] > 0  # split rounds ran


# ------------------------------------------------- ingress: memo + dispatch


def _plain_on_message(self, message):
    """Ingress with no memory: every delivery pays the quarantine lookup,
    the full schema check and a ``getattr`` dispatch.  The oracle for
    ``LONode.on_message`` + ``wire.validate_payload``, behind the same
    adversary inbound filter."""
    if self.adversary is not None and self.adversary.intercepts(message):
        return
    if self.quarantine.is_quarantined(message.sender, self.now):
        if self.counter is not None:
            self.counter.increment("quarantine_drops", node=self.node_id)
        return
    handler = self._HANDLERS.get(message.msg_type)
    if handler is None:
        self._record_wire_violation(
            message, f"unknown message type {message.msg_type!r}"
        )
        return
    try:
        error = wire.VALIDATORS[message.msg_type](message.payload)
    except Exception as exc:
        error = f"validator error: {type(exc).__name__}: {exc}"
    if error is not None:
        self._record_wire_violation(message, error)
        return
    try:
        getattr(self, handler.__name__)(message)
    except Exception as exc:
        self._record_wire_violation(
            message, f"handler error: {type(exc).__name__}: {exc}"
        )


def _storm():
    """lobench's ``censor_storm`` in small: ids 1-2 pure censors, id 0 forks."""
    censors = {0, 1, 2}
    pure = make_censor_factory(censors, equivocate=False)
    forking = make_censor_factory(censors, equivocate=True)
    sim = LOSimulation(SimulationParams(
        num_nodes=32, seed=5,
        config=LOConfig(verify_suspicions_locally=False),
        malicious_ids=sorted(censors),
        attacker_factory=lambda **kwargs: (
            forking if kwargs["node_id"] == 0 else pure
        )(**kwargs),
    ))
    for index in range(8):
        sim.inject_at(0.3 + 0.5 * index, index % 32, fee=5 + index)
    sim.run(12.0)
    return sim


def _garbage():
    sim = LOSimulation(SimulationParams(
        num_nodes=12, seed=9,
        config=LOConfig(quarantine_base_s=1.0, quarantine_max_s=4.0),
        malicious_ids=[4],
        attacker_factory=attacker(Garbage),
    ))
    for index in range(6):
        sim.inject_at(0.2 + 0.6 * index, index % 12, fee=3 + index)
    sim.run(15.0)
    return sim


def _chaos():
    sim = LOSimulation(SimulationParams(
        num_nodes=14, seed=13,
        config=LOConfig(quarantine_base_s=2.0, quarantine_max_s=8.0),
        chaos_plan=ChaosPlan(seed=3, duplicate_rate=0.1, reorder_rate=0.1,
                             corrupt_rate=0.08),
    ))
    for index in range(6):
        sim.inject_at(0.2 + 0.7 * index, index % 14, fee=3 + index)
    sim.run(12.0)
    return sim


def _ingress_outcome(scenario):
    sim = scenario()
    nodes = [sim.nodes[i] for i in sorted(sim.nodes)]
    return {
        "events": sim.loop.processed_events,
        "delivered": sim.network.delivered_messages,
        "net": sim.network.collect_metrics(),
        "meters": [
            (m.sent_messages, m.recv_messages, m.sent_overhead, m.sent_payload,
             m.recv_overhead, m.recv_payload, sorted(m.by_type.items()))
            for m in (sim.network.meters[n.node_id] for n in nodes)
        ],
        "counters": sorted(sim.counter.totals().items()),
        "violations": sorted(sim.wire_violation_totals().items()),
        "quarantine": [sorted(n.quarantine.snapshot().items()) for n in nodes],
        "exposures": [sorted(k.hex() for k in n.acct.exposed) for n in nodes],
        "suspicions": [sorted(k.hex() for k in n.acct.suspected) for n in nodes],
        "latencies": sim.mempool_tracker.all_latencies(),
        "logs": [list(n.log.order) for n in nodes],
    }


@pytest.mark.parametrize("scenario", [_storm, _garbage, _chaos])
def test_memoised_table_dispatched_ingress_changes_no_outcome(
        monkeypatch, scenario):
    """Duplicates answered from the clean-verdict memo, corrupted copies,
    garbage and quarantine episodes: every meter, counter and verdict must
    match a node that re-validates each delivery and looks its handler up
    by name."""
    fast = _ingress_outcome(scenario)
    memo = cache_stats()["wire.validate"]
    monkeypatch.setattr(LONode, "on_message", _plain_on_message)
    plain = _ingress_outcome(scenario)
    assert json.dumps(fast, sort_keys=True) == json.dumps(plain, sort_keys=True)
    # The runs exercised what they are here for.
    assert memo["hits"] > 0 and memo["evictions"] > 0
    assert cache_stats()["wire.validate"]["hits"] == 0
    counters = dict(fast["counters"])
    if scenario is _storm:
        assert any(fast["exposures"]) and any(fast["suspicions"])
        # Gossip duplicates are answered from the memo: 6,127 hits for
        # 1,642 first sights at this seed.
        assert memo["hits"] > 3 * memo["misses"]
    else:
        assert counters["wire_violations"] > 0
    if scenario is _garbage:
        assert counters["peers_quarantined"] > 0
        assert counters["quarantine_drops"] > 0


def _lonode_subclasses(cls=LONode):
    for sub in cls.__subclasses__():
        yield sub
        yield from _lonode_subclasses(sub)


def test_no_repro_class_subclasses_lonode():
    """Every attack is a policy in the ``adversary`` slot, so ingress's
    one dispatch table, built for ``LONode``, is every node's."""
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found = [c.__qualname__ for c in _lonode_subclasses()
             if c.__module__.startswith("repro.")]
    assert found == []
