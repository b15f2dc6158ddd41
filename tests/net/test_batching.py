"""Batched delivery engine: loop batches, envelope pooling, identity.

The batched fast path (``Network.send_many`` / ``send_fanout`` collapsing
same-delay deliveries into one heap entry, plus pooled ``Message``
envelopes) must be *observationally identical* to per-message scheduling:
same delivery order, same per-type byte meters, same processed-event
counts.  ``Network(batching_enabled=False)`` degrades every batched call
to a per-message ``send`` loop, which gives us the reference behaviour to
compare against -- including under Hypothesis-generated fan-out shapes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import CityLatencyModel, ConstantLatencyModel, Network
from repro.net.message import Message
from repro.net.network import Endpoint
from repro.sim import EventLoop
from repro.sim.loop import _BATCH


# --------------------------------------------------------------- loop batches


def test_schedule_batch_runs_items_in_order():
    loop = EventLoop()
    seen = []
    loop.schedule_batch_at(1.0, lambda tag: seen.append(tag),
                           [("a",), ("b",), ("c",)])
    loop.run_until(2.0)
    assert seen == ["a", "b", "c"]


def test_batch_counts_each_item_as_one_event():
    # Identity with per-item scheduling extends to the processed-event
    # counter: a 3-item batch is 3 events, not 1.
    loop = EventLoop()
    loop.schedule_batch_later(0.5, lambda _i: None, [(0,), (1,), (2,)])
    loop.call_later(1.0, lambda: None)
    loop.run_until(2.0)
    assert loop.processed_events == 4
    # ...but it occupies a single heap entry while pending.
    loop2 = EventLoop()
    loop2.schedule_batch_later(0.5, lambda _i: None, [(0,), (1,), (2,)])
    assert loop2.pending_events == 1


def test_batch_interleaves_with_plain_events_by_seq():
    # A batch scheduled *before* a plain event at the same time fires
    # first (heap order is (time, seq)), and vice versa.
    loop = EventLoop()
    seen = []
    loop.schedule_batch_at(1.0, lambda t: seen.append(t), [("b1",), ("b2",)])
    loop.schedule_at(1.0, lambda: seen.append("plain"))
    loop.run_until(1.5)
    assert seen == ["b1", "b2", "plain"]

    loop = EventLoop()
    seen = []
    loop.schedule_at(1.0, lambda: seen.append("plain"))
    loop.schedule_batch_at(1.0, lambda t: seen.append(t), [("b1",), ("b2",)])
    loop.run_until(1.5)
    assert seen == ["plain", "b1", "b2"]


def test_step_runs_whole_batch_as_one_step():
    loop = EventLoop()
    seen = []
    loop.schedule_batch_later(0.25, lambda t: seen.append(t),
                              [("x",), ("y",)])
    event = loop.step()
    assert event is not None
    assert seen == ["x", "y"]
    assert loop.processed_events == 2
    assert loop.step() is None


def test_schedule_batch_rejects_past_and_negative():
    from repro.sim.loop import SimulationError

    loop = EventLoop()
    loop.run_until(1.0)
    with pytest.raises(SimulationError):
        loop.schedule_batch_at(0.5, lambda: None, [()])
    with pytest.raises(SimulationError):
        loop.schedule_batch_later(-0.1, lambda: None, [()])


def test_batch_sentinel_is_not_a_valid_user_callback():
    # _BATCH is an internal marker; it must never be callable so a stray
    # dispatch through the normal path fails loudly rather than silently.
    assert not callable(_BATCH)


# ------------------------------------------------------------ envelope pool


class _Sink(Endpoint):
    RETAINS_ENVELOPES = False

    def __init__(self, node_id):
        self.node_id = node_id
        self.seen = []

    def on_message(self, message):
        # Copy fields out; the envelope may be recycled after we return.
        self.seen.append((message.sender, message.msg_type, message.payload,
                          message.wire_bytes, message.msg_id))


class _Keeper(Endpoint):
    # RETAINS_ENVELOPES defaults to True: the safe contract for endpoints
    # that hold on to the Message object itself.
    def __init__(self, node_id):
        self.node_id = node_id
        self.kept = []

    def on_message(self, message):
        self.kept.append(message)


def test_pool_recycles_envelopes_for_releasing_endpoints():
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.01))
    net.register(_Sink(0))
    net.register(_Sink(1))
    net.send(0, 1, "a", "p1", wire_bytes=8)
    loop.run_until(1.0)
    assert len(net._pool) == 1
    recycled = net._pool[0]
    assert recycled.payload is None  # payload dropped on release
    net.send(0, 1, "b", "p2", wire_bytes=8)
    loop.run_until(2.0)
    assert not any(
        isinstance(entry, Message) for entry in net._pool[1:]
    )  # pool did not grow: the envelope was reused
    envelope = net._pool[0]
    assert envelope is recycled


def test_pooled_msg_ids_stay_monotonic():
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.01))
    sinks = [_Sink(0), _Sink(1)]
    for s in sinks:
        net.register(s)
    for i in range(5):
        net.send(0, 1, "t", i, wire_bytes=4)
        loop.run_until(loop.now + 1.0)
    ids = [msg_id for (_s, _t, _p, _w, msg_id) in sinks[1].seen]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5  # recycling never reuses an id


def test_retaining_endpoints_keep_their_envelopes():
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.01))
    net.register(_Sink(0))
    keeper = _Keeper(1)
    net.register(keeper)
    net.send(0, 1, "a", "payload", wire_bytes=8)
    net.send(0, 1, "b", "payload", wire_bytes=8)
    loop.run_until(1.0)
    assert net._pool == []  # nothing recycled
    assert [m.msg_type for m in keeper.kept] == ["a", "b"]
    assert keeper.kept[0].payload == "payload"  # still intact


def test_pool_is_bounded():
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.01))
    net.POOL_MAX = 2
    net.register(_Sink(0))
    net.register(_Sink(1))
    net.send_fanout(0, [1] * 8, "t", None, 4)
    loop.run_until(1.0)
    assert len(net._pool) <= 2


# ----------------------------------------------- batched vs unbatched runs


def _collect(num_nodes, script, batching):
    """Run ``script`` against a network and return all observables."""
    loop = EventLoop()
    net = Network(
        loop,
        CityLatencyModel(num_nodes, random.Random(99)),
        batching_enabled=batching,
    )
    sinks = [_Sink(i) for i in range(num_nodes)]
    for sink in sinks:
        net.register(sink)
    for op in script:
        kind = op[0]
        if kind == "fanout":
            _, sender, recipients, wire, *overhead = op
            net.send_fanout(sender, recipients, "t/fanout", "shared", wire,
                            *overhead)
        elif kind == "many":
            _, sender, sends = op
            net.send_many(sender, sends)
        elif kind == "send":
            _, sender, recipient, wire = op
            net.send(sender, recipient, "t/one", "solo", wire)
        elif kind == "advance":
            loop.run_until(loop.now + op[1])
    loop.run_until(loop.now + 5.0)
    deliveries = [
        (sink.node_id, s, t, p, w)
        for sink in sinks
        for (s, t, p, w, _msg_id) in sink.seen
    ]
    meters = {
        node_id: {
            "by_type": dict(meter.by_type),
            "counts": (meter.sent_messages, meter.recv_messages),
            "bytes": (meter.sent_overhead, meter.sent_payload,
                      meter.recv_overhead, meter.recv_payload),
        }
        for node_id, meter in net.meters.items()
    }
    return deliveries, meters, loop.processed_events


_SHAPES = [
    # (name, script): hand-picked fan-out shapes covering the grouping
    # corners -- duplicate recipients, singleton groups, interleaved ops.
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
    # The fan-out is metered once, after its loop: nothing for an empty
    # one (not even a zero ``by_type`` key), payload bytes when asked.
    ("empty_fanout", [("fanout", 0, [], 64), ("fanout", 1, [], 64, False)]),
    ("payload_fanout", [
        ("fanout", 0, [1, 2, 3, 1], 40, False),
        ("fanout", 0, [4, 5], 40, True),
    ]),
]


@pytest.mark.parametrize("name,script", _SHAPES, ids=[s[0] for s in _SHAPES])
def test_batched_matches_unbatched_fixed_shapes(name, script):
    batched = _collect(12, script, batching=True)
    unbatched = _collect(12, script, batching=False)
    assert batched == unbatched


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
    )
)
def test_batched_matches_unbatched_property(ops):
    # Property form of the same identity: arbitrary interleavings of
    # fan-outs (empty ones, self-sends, duplicates, overhead and payload
    # bytes), unicasts, and time advances produce byte-identical delivery
    # streams, per-type meters, and processed-event counts with batching
    # on and off.
    batched = _collect(10, ops, batching=True)
    unbatched = _collect(10, ops, batching=False)
    assert batched == unbatched


def test_batched_fanout_uses_fewer_heap_entries():
    # The point of batching: k same-delay deliveries share one heap entry.
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(0.05))
    for i in range(9):
        net.register(_Sink(i))
    net.send_fanout(0, list(range(1, 9)), "t", None, 16)
    assert loop.pending_events == 1
    loop.run_until(1.0)
    assert loop.processed_events == 8  # still one event per delivery
    assert all(net.meters[i].recv_messages == 1 for i in range(1, 9))
