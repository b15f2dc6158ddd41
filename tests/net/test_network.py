"""Unit tests for the simulated network."""

import random

import pytest

from repro.net import ConstantLatencyModel, Network, UniformLatencyModel
from repro.net.network import Endpoint
from repro.sim import EventLoop


class Recorder(Endpoint):
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(n=3, delay=0.05):
    loop = EventLoop()
    net = Network(loop, ConstantLatencyModel(delay))
    nodes = [Recorder(i) for i in range(n)]
    for node in nodes:
        net.register(node)
    return loop, net, nodes


def test_delivery_after_latency():
    loop, net, nodes = make_net(delay=0.2)
    net.send(0, 1, "ping", "hello", wire_bytes=10)
    loop.run_until(0.1)
    assert nodes[1].received == []
    loop.run_until(0.3)
    assert len(nodes[1].received) == 1
    assert nodes[1].received[0].payload == "hello"


def test_duplicate_registration_rejected():
    loop, net, nodes = make_net()
    with pytest.raises(ValueError):
        net.register(Recorder(0))


def test_unknown_recipient_dropped():
    loop, net, nodes = make_net()
    net.send(0, 99, "ping", None, wire_bytes=1)
    loop.run_until(1.0)
    assert net.dropped_messages == 1


def test_crash_blocks_both_directions():
    loop, net, nodes = make_net()
    net.crash(1)
    net.send(0, 1, "a", None, wire_bytes=1)
    net.send(1, 0, "b", None, wire_bytes=1)
    loop.run_until(1.0)
    assert nodes[0].received == [] and nodes[1].received == []
    net.recover(1)
    net.send(0, 1, "c", None, wire_bytes=1)
    loop.run_until(2.0)
    assert len(nodes[1].received) == 1


def test_crash_during_flight_drops_delivery():
    loop, net, nodes = make_net(delay=0.5)
    net.send(0, 1, "a", None, wire_bytes=1)
    loop.run_until(0.1)
    net.crash(1)
    loop.run_until(1.0)
    assert nodes[1].received == []


def test_blocked_link_is_directional():
    loop, net, nodes = make_net()
    net.block_link(0, 1)
    net.send(0, 1, "a", None, wire_bytes=1)
    net.send(1, 0, "b", None, wire_bytes=1)
    loop.run_until(1.0)
    assert nodes[1].received == []
    assert len(nodes[0].received) == 1
    net.unblock_link(0, 1)
    net.send(0, 1, "c", None, wire_bytes=1)
    loop.run_until(2.0)
    assert len(nodes[1].received) == 1


def test_partition_and_heal():
    loop, net, nodes = make_net(n=4)
    net.partition([{0, 1}, {2, 3}])
    net.send(0, 2, "x", None, wire_bytes=1)
    net.send(0, 1, "y", None, wire_bytes=1)
    loop.run_until(1.0)
    assert nodes[2].received == []
    assert len(nodes[1].received) == 1
    net.heal_partition()
    net.send(0, 2, "z", None, wire_bytes=1)
    loop.run_until(2.0)
    assert len(nodes[2].received) == 1


def test_delivery_hook_can_drop():
    loop, net, nodes = make_net()
    net.add_delivery_hook(lambda m: m.msg_type != "spam")
    net.send(0, 1, "spam", None, wire_bytes=1)
    net.send(0, 1, "ham", None, wire_bytes=1)
    loop.run_until(1.0)
    assert [m.msg_type for m in nodes[1].received] == ["ham"]


def test_bandwidth_accounting_split():
    loop, net, nodes = make_net()
    net.send(0, 1, "ctl", None, wire_bytes=100, is_overhead=True)
    net.send(0, 1, "data", None, wire_bytes=250, is_overhead=False)
    loop.run_until(1.0)
    meter = net.meters[0]
    assert meter.sent_overhead == 100
    assert meter.sent_payload == 250
    assert net.meters[1].recv_overhead == 100
    assert net.meters[1].recv_payload == 250
    assert net.total_overhead_bytes() == 100
    assert net.total_payload_bytes() == 250
    assert net.overhead_by_type()["ctl"] == 100


def test_sender_metered_even_when_dropped():
    loop, net, nodes = make_net()
    net.crash(1)
    net.send(0, 1, "x", None, wire_bytes=50)
    loop.run_until(1.0)
    assert net.meters[0].sent_overhead == 50


def test_negative_wire_bytes_rejected():
    loop, net, nodes = make_net()
    with pytest.raises(ValueError):
        net.send(0, 1, "x", None, wire_bytes=-1)


def test_delivered_message_count():
    loop, net, nodes = make_net()
    for _ in range(3):
        net.send(0, 1, "x", None, wire_bytes=1)
    loop.run_until(1.0)
    assert net.delivered_messages == 3
    assert net.meters[1].recv_messages == 3


def test_drop_reason_breakdown():
    loop, net, nodes = make_net(n=4)
    net.crash(3)
    net.send(0, 3, "a", None, wire_bytes=1)          # crashed
    net.recover(3)
    net.block_link(0, 1)
    net.send(0, 1, "b", None, wire_bytes=1)          # blocked link
    net.unblock_link(0, 1)
    net.partition([{0}, {1, 2, 3}])
    net.send(0, 1, "c", None, wire_bytes=1)          # partition
    net.heal_partition()
    net.add_delivery_hook(lambda m: m.msg_type != "spam")
    net.send(0, 1, "spam", None, wire_bytes=1)       # hook
    net.send(0, 99, "d", None, wire_bytes=1)         # no endpoint
    loop.run_until(2.0)
    assert net.drop_breakdown() == {
        "crashed": 1,
        "blocked_link": 1,
        "partition": 1,
        "hook": 1,
        "no_endpoint": 1,
    }
    assert net.dropped_messages == 5


def test_unregister_clears_fault_state_for_reused_id():
    loop, net, nodes = make_net()
    net.crash(1)
    net.block_link(0, 1)
    net.block_link(1, 2)
    net.partition([{0, 1}, {2}])
    net.unregister(1)
    # A fresh node re-registered under the old id must not inherit faults.
    fresh = Recorder(1)
    net.register(fresh)
    net.partition([{0, 1, 2}])
    net.send(0, 1, "hello", None, wire_bytes=1)
    net.send(1, 2, "relay", None, wire_bytes=1)
    loop.run_until(1.0)
    assert len(fresh.received) == 1
    assert len(nodes[2].received) == 1
    assert not net.is_crashed(1)


def test_unregister_removes_id_from_live_partition():
    loop, net, nodes = make_net(n=3)
    net.partition([{0, 1}, {2}])
    net.send(2, 0, "before", None, wire_bytes=1)     # crosses: dropped
    net.unregister(2)
    replacement = Recorder(2)
    net.register(replacement)
    # Old group membership is gone: the reused id belongs to no partition
    # group any more, so its own sends are not partition-filtered.
    net.send(2, 0, "after", None, wire_bytes=1)
    loop.run_until(1.0)
    assert [m.msg_type for m in nodes[0].received] == ["after"]


def test_reregistered_id_keeps_its_byte_history():
    # Regression: ``unregister`` documents "meter is retained", but a later
    # ``register`` under the same id replaced it with a fresh one, so the
    # network-wide totals went backwards across a detach / re-attach.
    loop, net, nodes = make_net()
    net.send(1, 0, "ctl", None, wire_bytes=100)
    net.send(1, 0, "data", None, wire_bytes=40, is_overhead=False)
    net.send(0, 1, "ctl", None, wire_bytes=7)
    loop.run_until(1.0)
    before = (net.total_overhead_bytes(), net.total_payload_bytes(),
              net.overhead_by_type())
    assert before == (107, 40, {"ctl": 107})
    net.unregister(1)
    assert net.total_overhead_bytes() == 107
    net.register(Recorder(1))
    assert (net.total_overhead_bytes(), net.total_payload_bytes(),
            net.overhead_by_type()) == before
    assert net.meters[1].recv_overhead == 7
    net.send(1, 0, "ctl", None, wire_bytes=1)
    assert net.meters[1].sent_overhead == 101


def test_a_dropped_message_draws_no_delay():
    # UniformLatencyModel draws from its RNG the first time a pair is asked
    # for, so *when* the network asks is part of the seeded outcome: only
    # for a message that survived the fault checks, in send order.
    def run(blocked):
        rng = random.Random(17)
        loop = EventLoop()
        net = Network(loop, UniformLatencyModel(0.01, 0.1, rng))
        for i in range(4):
            net.register(Recorder(i))
        if blocked:
            net.block_link(0, 2)
        net.send_fanout(0, [1, 2, 3], "x", None, wire_bytes=1)
        return net, rng

    net, rng = run(blocked=True)
    reference = random.Random(17)
    assert net.latency_model.delay(0, 1) == reference.uniform(0.01, 0.1)
    assert net.latency_model.delay(0, 3) == reference.uniform(0.01, 0.1)
    assert rng.getstate() == reference.getstate()  # (0, 2) drew nothing
    assert net.drop_breakdown() == {"blocked_link": 1}
    net, rng = run(blocked=False)
    reference.seed(17)
    assert [net.latency_model.delay(0, i) for i in (1, 2, 3)] == \
        [reference.uniform(0.01, 0.1) for _ in range(3)]
