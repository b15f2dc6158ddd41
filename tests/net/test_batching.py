"""Fan-outs: one call is the same messages sent one ``send`` at a time.

``Network.send_fanout`` meters the sender once and reads the installed
faults once for the whole call; ``send_many`` is a loop of one-recipient
fan-outs.  Both must be *observationally identical* to issuing the same
messages through ``send`` one by one: same delivery stream (times,
``msg_id`` order, payloads), same per-type byte meters, same drop
reasons, same processed-event counts -- with no fault installed and
under each kind of fault, a seeded ``ChaosInjector`` included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ChaosInjector, ChaosPlan, CityLatencyModel, Network
from repro.net.latency import ConstantLatencyModel
from repro.net.message import Message
from repro.net.network import Endpoint
from repro.sim import EventLoop


class _Sink(Endpoint):
    def __init__(self, node_id, loop, stream):
        self.node_id = node_id
        self.loop = loop
        self.stream = stream

    def on_message(self, message):
        # repr(payload): a corrupted payload may be NaN, which is != itself.
        self.stream.append((
            self.loop.now, self.node_id, message.sender, message.msg_type,
            repr(message.payload), message.wire_bytes, message.is_overhead,
            message.msg_id,
        ))


def _install_fault(net, loop, fault, num_nodes):
    if fault == "hook":
        net.add_delivery_hook(lambda message: True)
    elif fault == "blocked_link":
        net.block_link(0, 1)
        net.block_link(3, 2)
    elif fault == "crashed":
        net.crash(2)
    elif fault == "partition":
        half = num_nodes // 2
        net.partition([set(range(half)), set(range(half, num_nodes))])
    elif fault == "chaos":
        net.set_fault_injector(ChaosInjector(
            ChaosPlan(seed=5, drop_rate=0.1, duplicate_rate=0.15,
                      reorder_rate=0.3, corrupt_rate=0.1),
            clock=loop,
        ))
    else:
        assert fault == "clean", fault


_FAULTS = ("clean", "hook", "blocked_link", "crashed", "partition", "chaos")


def _collect(num_nodes, script, fault, one_at_a_time):
    """Run ``script`` against a fresh network and return all observables."""
    loop = EventLoop()
    net = Network(loop, CityLatencyModel(num_nodes, random.Random(99)))
    stream = []
    for node_id in range(num_nodes):
        net.register(_Sink(node_id, loop, stream))
    _install_fault(net, loop, fault, num_nodes)
    # msg_ids come from a process-wide counter: compare them relative to
    # the first id this run could have drawn.
    first_id = Message(0, 0, "", None, 0).msg_id + 1
    for op in script:
        kind = op[0]
        if kind == "fanout":
            _, sender, recipients, wire, *overhead = op
            if one_at_a_time:
                for recipient in recipients:
                    net.send(sender, recipient, "t/fanout", "shared", wire,
                             *overhead)
            else:
                net.send_fanout(sender, recipients, "t/fanout", "shared",
                                wire, *overhead)
        elif kind == "many":
            _, sender, sends = op
            if one_at_a_time:
                for entry in sends:
                    net.send(sender, *entry)
            else:
                net.send_many(sender, sends)
        elif kind == "send":
            _, sender, recipient, wire = op
            net.send(sender, recipient, "t/one", "solo", wire)
        elif kind == "advance":
            loop.run_until(loop.now + op[1])
    loop.run_until(loop.now + 5.0)
    meters = {
        node_id: {
            "by_type": dict(meter.by_type),
            "counts": (meter.sent_messages, meter.recv_messages),
            "bytes": (meter.sent_overhead, meter.sent_payload,
                      meter.recv_overhead, meter.recv_payload),
        }
        for node_id, meter in net.meters.items()
    }
    injector = net._fault_injector
    return {
        "stream": [entry[:-1] + (entry[-1] - first_id,) for entry in stream],
        "meters": meters,
        "events": loop.processed_events,
        "delivered": net.delivered_messages,
        "drops": net.drop_breakdown(),
        "chaos": injector.counters.as_dict() if injector else None,
    }


_SHAPES = [
    # (name, script): hand-picked fan-out shapes -- duplicate recipients,
    # self-sends, interleaved ops, links the faults above sit on.
    ("single_fanout", [("fanout", 0, [1, 2, 3, 4, 5], 64)]),
    ("duplicate_recipients", [("fanout", 0, [1, 1, 2, 2, 1], 16)]),
    ("back_to_back", [
        ("fanout", 0, [1, 2, 3], 32),
        ("fanout", 1, [0, 2, 3], 32),
        ("advance", 0.05),
        ("fanout", 2, [0, 1], 32),
    ]),
    ("mixed_ops", [
        ("send", 0, 1, 8),
        ("many", 1, [(2, "t/m", "pa", 10, True), (3, "t/m", "pb", 12, False),
                     (0, "t/m", "pc", 14, True)]),
        ("advance", 0.2),
        ("fanout", 3, [0, 1, 2, 0, 1], 48),
    ]),
    ("wide_fanout", [("fanout", 0, list(range(1, 12)) * 2, 24)]),
    # The fan-out is metered once: nothing for an empty one (not even a
    # zero ``by_type`` key), payload bytes when asked.
    ("empty_fanout", [("fanout", 0, [], 64), ("fanout", 1, [], 64, False)]),
    ("payload_fanout", [
        ("fanout", 0, [1, 2, 3, 1], 40, False),
        ("fanout", 0, [4, 5], 40, True),
    ]),
]


@pytest.mark.parametrize("name,script", _SHAPES, ids=[s[0] for s in _SHAPES])
def test_batched_matches_unbatched_fixed_shapes(name, script):
    for fault in _FAULTS:
        fanned = _collect(12, script, fault, one_at_a_time=False)
        single = _collect(12, script, fault, one_at_a_time=True)
        assert fanned == single, fault


def test_the_fixed_shapes_meet_every_fault():
    # The equivalence above is vacuous for a fault no shape runs into.
    script = [op for _name, shape in _SHAPES for op in shape]
    reasons = set()
    for fault in _FAULTS:
        outcome = _collect(12, script, fault, one_at_a_time=False)
        reasons.update(outcome["drops"])
        if fault == "chaos":
            assert all(outcome["chaos"][kind] > 0 for kind in
                       ("dropped", "duplicated", "reordered", "corrupted"))
    assert reasons == {"blocked_link", "crashed", "partition", "chaos"}


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("fanout"),
                st.integers(0, 9),
                st.lists(st.integers(0, 9), min_size=0, max_size=12),
                st.sampled_from([8, 64, 256]),
                st.booleans(),
            ),
            st.tuples(
                st.just("many"),
                st.integers(0, 9),
                st.lists(
                    st.tuples(st.integers(0, 9),
                              st.sampled_from(["t/m", "t/n"]),
                              st.sampled_from(["pa", "pb"]),
                              st.sampled_from([10, 12]),
                              st.booleans()),
                    max_size=6,
                ),
            ),
            st.tuples(
                st.just("send"),
                st.integers(0, 9),
                st.integers(0, 9),
                st.sampled_from([8, 64]),
            ),
            st.tuples(st.just("advance"),
                      st.sampled_from([0.0, 0.01, 0.13, 1.0])),
        ),
        min_size=1,
        max_size=12,
    ),
    fault=st.sampled_from(_FAULTS),
)
def test_batched_matches_unbatched_property(ops, fault):
    # Property form of the same identity: arbitrary interleavings of
    # fan-outs (empty ones, self-sends, duplicates, overhead and payload
    # bytes), ``send_many`` lists, unicasts and time advances, under any
    # one fault.
    fanned = _collect(10, ops, fault, one_at_a_time=False)
    single = _collect(10, ops, fault, one_at_a_time=True)
    assert fanned == single


def test_a_fanout_is_one_heap_entry_per_recipient():
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.05))
    stream = []
    for node_id in range(9):
        net.register(_Sink(node_id, loop, stream))
    net.send_fanout(0, list(range(1, 9)), "t", None, 16)
    assert loop.pending_events == 8
    loop.run_until(1.0)
    assert loop.processed_events == 8
    assert [entry[1] for entry in stream] == list(range(1, 9))
    assert all(net.meters[i].recv_messages == 1 for i in range(1, 9))


def test_kept_envelopes_are_never_reused():
    # Any endpoint may hold on to a delivered Message (the Slow policy
    # re-queues it for a later callback): later traffic must leave it
    # untouched.
    class Keeper(Endpoint):
        def __init__(self, node_id):
            self.node_id = node_id
            self.kept = []

        def on_message(self, message):
            self.kept.append(message)

    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.01))
    keeper = Keeper(1)
    net.register(Keeper(0))
    net.register(keeper)
    for index in range(5):
        net.send(0, 1, f"t{index}", index, wire_bytes=4 + index)
        loop.run_until(loop.now + 1.0)
    net.send_fanout(0, [1, 1], "t/fanout", "shared", 8)
    loop.run_until(loop.now + 1.0)
    assert len({id(message) for message in keeper.kept}) == 7
    assert [(m.msg_type, m.payload, m.wire_bytes) for m in keeper.kept[:5]] \
        == [(f"t{index}", index, 4 + index) for index in range(5)]
    ids = [message.msg_id for message in keeper.kept]
    assert ids == sorted(set(ids))  # strictly increasing, never reused
