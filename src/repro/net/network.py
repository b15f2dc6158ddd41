"""The simulated network: endpoints, delivery, and bandwidth accounting.

Nodes implement the :class:`Endpoint` interface and register with a
:class:`Network`.  ``send`` schedules an ``on_message`` callback on the
recipient after the latency-model delay.  The network tracks per-node and
per-message-type byte counters, split into protocol overhead vs transaction
payload, which is exactly the accounting Fig. 9 needs.

Fault injection: nodes can be crashed (drop everything), partitioned
(drop messages crossing the partition), or have per-link drops installed --
used by the accountability experiments where faulty miners "avoid
interacting with some other nodes" (section 3.1).  Richer fault models
(probabilistic drop, duplication, reordering, payload corruption) plug in
through :meth:`Network.set_fault_injector`; see :mod:`repro.net.chaos`.

Every dropped message is attributed to a reason in ``drop_reasons``
(``crashed`` / ``blocked_link`` / ``partition`` / ``hook`` / ``chaos`` /
``no_endpoint``); ``dropped_messages`` remains the running total.

One delivery path
-----------------

:meth:`Network.send_fanout` is the only place a message is sent from:
it meters the sender once for the whole fan-out, then per recipient
builds the :class:`~repro.net.message.Message`, traces ``net.send``,
applies the installed faults (crash, blocked link, partition, hooks --
in that order, first match names the drop reason), asks the latency
model for the delay of a message that survived them, lets the chaos
injector rewrite the delivery, and pushes one
:meth:`~repro.sim.loop.EventLoop.schedule_later` entry per delivery.
:meth:`Network.send` and :meth:`Network.send_many` are fan-outs of one.
Clean runs and fault runs execute this same body; with no fault
installed the fault checks are skipped as a whole, nothing else differs.

Node state is plain ``dict`` / ``set`` keyed by node id.  The tracer
guard is hoisted: a module-level ``_TRACE`` binding is rebound by
:func:`repro.obs.on_tracer_change` and is ``None`` whenever tracing is
off, so the per-message tracing cost with tracing disabled is one global
load and branch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.net.latency import ConstantLatencyModel, LatencyModel
from repro.net.message import Message
from repro.sim.loop import EventLoop

NodeId = int

#: The installed tracer when tracing is enabled, ``None`` otherwise.
#: Rebound by :func:`_rebind_tracer` on every ``obs.set_tracer``; hot
#: call sites test ``_TRACE is not None`` instead of re-reading
#: ``obs.TRACER.enabled`` per message.
_TRACE = None


def _rebind_tracer(tracer) -> None:
    """Keep the module-level ``_TRACE`` guard current."""
    global _TRACE
    _TRACE = tracer if tracer.enabled else None


obs.on_tracer_change(_rebind_tracer)


class Endpoint:
    """Interface every simulated node implements."""

    node_id: NodeId

    def on_message(self, message: Message) -> None:
        """Handle a delivered message."""
        raise NotImplementedError


class BandwidthMeter:
    """Byte counters for one node, split by direction and overhead flag."""

    __slots__ = ("sent_overhead", "sent_payload", "recv_overhead", "recv_payload",
                 "sent_messages", "recv_messages", "by_type")

    def __init__(self) -> None:
        self.sent_overhead = 0
        self.sent_payload = 0
        self.recv_overhead = 0
        self.recv_payload = 0
        self.sent_messages = 0
        self.recv_messages = 0
        self.by_type: Dict[str, int] = defaultdict(int)

    def record_fanout(
        self, count: int, msg_type: str, wire_bytes: int, is_overhead: bool
    ) -> None:
        """``count`` (>= 1) equal messages leaving this node."""
        self.sent_messages += count
        if is_overhead:
            # by_type is an *overhead* breakdown (feeds Fig. 9); payload
            # bytes are tracked in aggregate only.
            self.by_type[msg_type] += count * wire_bytes
            self.sent_overhead += count * wire_bytes
        else:
            self.sent_payload += count * wire_bytes

    def record_recv(self, message: Message) -> None:
        self.recv_messages += 1
        if message.is_overhead:
            self.recv_overhead += message.wire_bytes
        else:
            self.recv_payload += message.wire_bytes

    @property
    def total_overhead(self) -> int:
        """Overhead bytes crossing this node's interface, both directions."""
        return self.sent_overhead + self.recv_overhead


class Network:
    """Message router over an event loop.

    >>> from repro.sim import EventLoop
    >>> loop = EventLoop()
    >>> net = Network(loop)
    >>> class Echo(Endpoint):
    ...     def __init__(self, node_id):
    ...         self.node_id = node_id
    ...         self.seen = []
    ...     def on_message(self, message):
    ...         self.seen.append(message.payload)
    >>> a, b = Echo(0), Echo(1)
    >>> net.register(a); net.register(b)
    >>> net.send(0, 1, "ping", {"x": 1}, wire_bytes=64)
    >>> loop.run_for(1.0); b.seen
    [{'x': 1}]
    """

    def __init__(self, loop: EventLoop,
                 latency_model: Optional[LatencyModel] = None):
        self.loop = loop
        self.latency_model = latency_model or ConstantLatencyModel(0.05)
        self.nodes: Dict[NodeId, Endpoint] = {}
        # Outlives the endpoint: a detached node's bytes stay counted.
        self.meters: Dict[NodeId, BandwidthMeter] = {}
        self._crashed: Set[NodeId] = set()
        self._blocked_links: Set[Tuple[NodeId, NodeId]] = set()
        self._partition: Optional[List[Set[NodeId]]] = None
        self.dropped_messages = 0
        self.delivered_messages = 0
        self.drop_reasons: Dict[str, int] = defaultdict(int)
        self._delivery_hooks: List[Callable[[Message], bool]] = []
        # Optional injector consulted at scheduling time; maps one logical
        # send to zero or more (delay, message) deliveries (repro.net.chaos).
        self._fault_injector: Optional[
            Callable[[Message, float], List[Tuple[float, Message]]]
        ] = None

    # ----------------------------------------------------------- membership

    def register(self, endpoint: Endpoint) -> None:
        """Attach an endpoint; its ``node_id`` must be unique.

        An id that was attached before keeps its meter, so the bytes it
        sent and received before :meth:`unregister` stay in the totals.
        """
        node_id = endpoint.node_id
        if node_id in self.nodes:
            raise ValueError(f"node id {node_id} already registered")
        self.nodes[node_id] = endpoint
        if node_id not in self.meters:
            self.meters[node_id] = BandwidthMeter()

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (it stops receiving); meter is retained.

        Any fault state referring to the id is cleared as well, so a later
        :meth:`register` under the same id starts from a clean slate instead
        of silently inheriting old crashes, blocked links or partitions.
        """
        self.nodes.pop(node_id, None)
        self._crashed.discard(node_id)
        self._blocked_links = {
            link for link in self._blocked_links if node_id not in link
        }
        if self._partition is not None:
            for group in self._partition:
                group.discard(node_id)

    # ------------------------------------------------------- fault injection

    def crash(self, node_id: NodeId) -> None:
        """Silently drop all traffic to and from ``node_id``."""
        self._crashed.add(node_id)

    def recover(self, node_id: NodeId) -> None:
        """Undo :meth:`crash`."""
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether a node is currently crashed (offline)."""
        return node_id in self._crashed

    def block_link(self, sender: NodeId, recipient: NodeId) -> None:
        """Drop messages on one directed link."""
        self._blocked_links.add((sender, recipient))

    def unblock_link(self, sender: NodeId, recipient: NodeId) -> None:
        """Undo :meth:`block_link`."""
        self._blocked_links.discard((sender, recipient))

    def partition(self, groups: List[Set[NodeId]]) -> None:
        """Install a partition: messages between different groups are dropped."""
        self._partition = groups

    def heal_partition(self) -> None:
        """Remove any installed partition."""
        self._partition = None

    def add_delivery_hook(self, hook: Callable[[Message], bool]) -> None:
        """Register a predicate consulted per message; ``False`` drops it."""
        self._delivery_hooks.append(hook)

    def set_fault_injector(
        self,
        injector: Optional[Callable[[Message, float], List[Tuple[float, Message]]]],
    ) -> None:
        """Install (or clear, with ``None``) the chaos fault injector.

        The injector sees every message that survived the crash / link /
        partition / hook checks, together with its modelled delay, and
        returns the deliveries that should actually happen: an empty list
        drops the message (counted under ``chaos``), several entries
        duplicate it, altered delays reorder it and altered payloads
        corrupt it.
        """
        self._fault_injector = injector

    def _drop(self, reason: str, message: Message) -> None:
        self.dropped_messages += 1
        self.drop_reasons[reason] += 1
        if _TRACE is not None:
            _TRACE.event("net.drop", t=self.loop.now,
                         node_id=message.recipient, reason=reason,
                         msg_type=message.msg_type, sender=message.sender,
                         recipient=message.recipient)

    def drop_breakdown(self) -> Dict[str, int]:
        """Per-reason drop counts (copy); reasons never hit are absent."""
        return dict(self.drop_reasons)

    def _crosses_partition(self, sender: NodeId, recipient: NodeId) -> bool:
        if self._partition is None:
            return False
        for group in self._partition:
            if sender in group:
                return recipient not in group
        return False

    def _fault_drop_reason(self, message: Message) -> Optional[str]:
        """Why the installed faults lose ``message``, or ``None`` if they don't."""
        sender, recipient = message.sender, message.recipient
        if sender in self._crashed or recipient in self._crashed:
            return "crashed"
        if (sender, recipient) in self._blocked_links:
            return "blocked_link"
        if self._crosses_partition(sender, recipient):
            return "partition"
        for hook in self._delivery_hooks:
            if not hook(message):
                return "hook"
        return None

    # --------------------------------------------------------------- sending

    def send(
        self,
        sender: NodeId,
        recipient: NodeId,
        msg_type: str,
        payload: Any,
        wire_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        """Queue a message for delivery after the modelled latency.

        Sends are never errors: unknown or crashed recipients just lose the
        message, as over UDP.  Sender-side bytes are metered even when the
        message is dropped downstream (the bytes left the sender's NIC).
        """
        self.send_fanout(sender, (recipient,), msg_type, payload, wire_bytes,
                         is_overhead)

    def send_many(
        self,
        sender: NodeId,
        sends: Sequence[Tuple[NodeId, str, Any, int, bool]],
    ) -> None:
        """:meth:`send` each ``(recipient, msg_type, payload, wire_bytes,
        is_overhead)`` tuple of ``sends``, in order."""
        for recipient, msg_type, payload, wire_bytes, is_overhead in sends:
            self.send_fanout(sender, (recipient,), msg_type, payload,
                             wire_bytes, is_overhead)

    def send_fanout(
        self,
        sender: NodeId,
        recipients: Sequence[NodeId],
        msg_type: str,
        payload: Any,
        wire_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        """:meth:`send` one shared payload to every recipient, in order.

        The one delivery path (see the module docstring).  Which faults
        are installed is read once per call, not once per recipient.
        """
        if wire_bytes < 0:
            raise ValueError(f"negative wire_bytes: {wire_bytes}")
        if not recipients:
            return  # an empty fan-out must add no by_type key
        meter = self.meters.get(sender)
        if meter is not None:
            meter.record_fanout(len(recipients), msg_type, wire_bytes,
                                is_overhead)
        faults = bool(self._crashed or self._blocked_links
                      or self._partition is not None or self._delivery_hooks)
        injector = self._fault_injector
        delay_of = self.latency_model.delay
        schedule = self.loop.schedule_later
        deliver = self._deliver
        trace = _TRACE
        now = self.loop.now
        for recipient in recipients:
            message = Message(sender, recipient, msg_type, payload,
                              wire_bytes, is_overhead)
            if trace is not None:
                trace.message_event("net.send", now, msg_type, sender,
                                    recipient, wire_bytes)
            if faults:
                reason = self._fault_drop_reason(message)
                if reason is not None:
                    self._drop(reason, message)
                    continue
            # Asked only for messages that survive: a model that draws on
            # first use (UniformLatencyModel) must not draw for a drop.
            delay = delay_of(sender, recipient)
            if injector is None:
                schedule(delay, deliver, message)
                continue
            deliveries = injector(message, delay)
            if not deliveries:
                self._drop("chaos", message)
            for when, mutated in deliveries:
                schedule(when, deliver, mutated)

    def _deliver(self, message: Message) -> None:
        recipient = message.recipient
        if recipient in self._crashed:
            self._drop("crashed", message)
            return
        endpoint = self.nodes.get(recipient)
        if endpoint is None:
            self._drop("no_endpoint", message)
            return
        self.meters[recipient].record_recv(message)
        self.delivered_messages += 1
        if _TRACE is not None:
            _TRACE.message_event("net.deliver", self.loop.now,
                                 message.msg_type, message.sender, recipient,
                                 message.wire_bytes)
        endpoint.on_message(message)

    # ------------------------------------------------------------ statistics

    def total_overhead_bytes(self) -> int:
        """Sum of overhead bytes sent by all nodes."""
        return sum(meter.sent_overhead for meter in self.meters.values())

    def total_payload_bytes(self) -> int:
        """Sum of transaction-payload bytes sent by all nodes."""
        return sum(meter.sent_payload for meter in self.meters.values())

    def overhead_by_type(self) -> Dict[str, int]:
        """Overhead bytes aggregated per message type across all nodes."""
        totals: Dict[str, int] = defaultdict(int)
        for meter in self.meters.values():
            for msg_type, count in meter.by_type.items():
                totals[msg_type] += count
        return dict(totals)

    def collect_metrics(self) -> Dict[str, int]:
        """Flat counter dict for the unified metrics registry (``net.*``).

        Absorbs the message totals, per-reason drop counters and the
        per-type byte meters into one snapshot-friendly namespace.
        """
        out: Dict[str, int] = {
            "delivered": self.delivered_messages,
            "dropped": self.dropped_messages,
            "bytes.overhead": self.total_overhead_bytes(),
            "bytes.payload": self.total_payload_bytes(),
        }
        for reason, count in self.drop_reasons.items():
            out[f"drop.{reason}"] = count
        for msg_type, total in self.overhead_by_type().items():
            out[f"bytes.type.{msg_type}"] = total
        return out
