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

Hot path: when no fault of any kind is installed (no crashes, blocked
links, partition, delivery hooks or chaos injector -- the common case for
clean runs), ``send`` takes a precomputed fast path that skips the whole
branch chain.  Installing *any* fault flips the flag off; clearing them
all flips it back on.  The tracer guard is likewise hoisted: a
module-level ``_TRACE`` binding is rebound by
:func:`repro.obs.on_tracer_change` and is ``None`` whenever tracing is
off, so the per-message tracing cost with tracing disabled is one global
load and branch.

Batched delivery engine (paper-scale overlays)
----------------------------------------------

Three structural optimisations keep a 10,000-node overlay affordable
while preserving same-seed byte-identity with the per-message path
(``tests/integration/test_fastpath_identity.py`` and the batched-vs-
unbatched property in ``tests/net/test_batching.py`` are the gates):

* **Batched fan-outs** -- :meth:`send_many` / :meth:`send_fanout` group a
  whole fan-out by modelled delay and push one
  :meth:`repro.sim.loop.EventLoop.schedule_batch_later` entry per
  distinct delivery time, collapsing heap traffic from O(messages) to
  O(distinct delays); with a city latency model that is at most 32
  groups no matter the fan-out.  Delays for the whole fan-out come from
  one :meth:`LatencyModel.delays_batch` call when the model declares
  ``CHEAP_DELAY``.
* **Pooled envelopes** -- the fault-free path recycles
  :class:`~repro.net.message.Message` instances through a free list.  An
  envelope returns to the pool after ``on_message`` unless the endpoint
  class sets ``RETAINS_ENVELOPES = True`` (the safe default) to declare
  it holds references across callbacks.  Recycled envelopes re-stamp
  ``msg_id`` from the global counter, so ids stay identical to fresh
  allocation.
* **Struct-of-arrays overlay state** -- routes, meters, crash flags and
  partition membership for ids below :data:`DENSE_ID_LIMIT` live in
  index-addressed arrays, so the send/deliver path does a bounds check
  plus list index instead of hashing every message.  Sparse ids (light
  clients register above one million) fall back to the original dicts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.net.latency import ConstantLatencyModel, LatencyModel
from repro.net.message import Message, _message_counter
from repro.sim.loop import EventLoop

NodeId = int

#: Node ids below this bound get struct-of-arrays state (index-addressed
#: routes/meters/crash/partition); ids at or above it -- light clients
#: start at 1,000,000 -- use the dict fallback.  Covers 10,000-node
#: overlays with room to spare while bounding array memory.
DENSE_ID_LIMIT = 1 << 18

#: The installed tracer when tracing is enabled, ``None`` otherwise.
#: Rebound by :func:`_rebind_tracer` on every ``obs.set_tracer``; hot
#: call sites test ``_TRACE is not None`` instead of re-reading
#: ``obs.TRACER.enabled`` per message.
_TRACE = None


def _rebind_tracer(tracer) -> None:
    """Keep the module-level ``_TRACE`` fast-path guard current."""
    global _TRACE
    _TRACE = tracer if tracer.enabled else None


obs.on_tracer_change(_rebind_tracer)


class Endpoint:
    """Interface every simulated node implements."""

    node_id: NodeId

    #: Whether this endpoint may keep a reference to a delivered
    #: :class:`Message` after ``on_message`` returns.  ``True`` (the safe
    #: default) exempts its deliveries from envelope pooling; endpoints
    #: that only read the envelope synchronously override with ``False``
    #: to let the network recycle it.
    RETAINS_ENVELOPES = True

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

    def record_send(self, message: Message) -> None:
        self.sent_messages += 1
        if message.is_overhead:
            # by_type is an *overhead* breakdown (feeds Fig. 9); payload
            # bytes are tracked in aggregate only.
            self.by_type[message.msg_type] += message.wire_bytes
            self.sent_overhead += message.wire_bytes
        else:
            self.sent_payload += message.wire_bytes

    def record_fanout(
        self, count: int, msg_type: str, wire_bytes: int, is_overhead: bool
    ) -> None:
        """``count`` (>= 1) :meth:`record_send` calls of equal messages."""
        self.sent_messages += count
        if is_overhead:
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

    #: Free-list bound: beyond this many idle envelopes, released ones
    #: are left to the garbage collector instead.
    POOL_MAX = 1024

    def __init__(
        self,
        loop: EventLoop,
        latency_model: Optional[LatencyModel] = None,
        batching_enabled: bool = True,
    ):
        self.loop = loop
        self.latency_model = latency_model or ConstantLatencyModel(0.05)
        #: When ``False``, :meth:`send_many` / :meth:`send_fanout` degrade
        #: to per-message :meth:`send` loops -- the unbatched reference the
        #: equivalence tests compare against.
        self.batching_enabled = batching_enabled
        self.nodes: Dict[NodeId, Endpoint] = {}
        self.meters: Dict[NodeId, BandwidthMeter] = {}
        # (endpoint, meter, releasable) per registered node, bound once at
        # register time so delivery costs one lookup instead of three.
        self._routes: Dict[
            NodeId, Tuple[Endpoint, BandwidthMeter, bool]
        ] = {}
        # Struct-of-arrays mirrors of the dicts above for dense ids; grown
        # on registration, indexed by node id.
        self._route_a: List[
            Optional[Tuple[Endpoint, BandwidthMeter, bool]]
        ] = []
        self._meter_a: List[Optional[BandwidthMeter]] = []
        self._crashed: Set[NodeId] = set()
        self._crashed_a = bytearray()
        self._blocked_links: Set[Tuple[NodeId, NodeId]] = set()
        self._partition: Optional[List[Set[NodeId]]] = None
        # Dense partition encoding: _group_a[id] is the group index or -1,
        # or None when no partition is installed / ids are not all dense.
        self._group_a: Optional[List[int]] = None
        self.dropped_messages = 0
        self.delivered_messages = 0
        self.drop_reasons: Dict[str, int] = defaultdict(int)
        self._delivery_hooks: List[Callable[[Message], bool]] = []
        # Optional injector consulted at scheduling time; maps one logical
        # send to zero or more (delay, message) deliveries (repro.net.chaos).
        self._fault_injector: Optional[
            Callable[[Message, float], List[Tuple[float, Message]]]
        ] = None
        # Models declaring CHEAP_DELAY are pure lookups: memoizing them
        # per ordered pair would cost more (and, at 10k nodes, hold
        # millions of tuple keys) than calling straight through.
        cheap = bool(getattr(self.latency_model, "CHEAP_DELAY", False))
        self._cheap_delay = cheap
        # Per-ordered-pair delay memo; only for models declaring their
        # delays stable per pair but not cheap (e.g. first-call RNG draws).
        self._delay_cache: Optional[Dict[Tuple[NodeId, NodeId], float]] = (
            {}
            if getattr(self.latency_model, "PAIR_STABLE", False) and not cheap
            else None
        )
        # Envelope free list (see module docstring).
        self._pool: List[Message] = []
        # True while no fault of any kind is installed; send() then skips
        # the crashed/blocked/partition/hook/injector branch chain.
        self._fast_send = True

    # ----------------------------------------------------------- membership

    def _grow_dense(self, node_id: NodeId) -> None:
        """Extend the dense arrays to cover ``node_id`` (id already vetted)."""
        old = len(self._route_a)
        pad = node_id + 1 - old
        if pad > 0:
            self._route_a.extend([None] * pad)
            self._meter_a.extend([None] * pad)
            self._crashed_a.extend(b"\x00" * pad)
            # An id can be crashed before any registration grows the
            # arrays over it; mirror those flags into the new range.
            for member in self._crashed:
                if type(member) is int and old <= member <= node_id:
                    self._crashed_a[member] = 1

    def register(self, endpoint: Endpoint) -> None:
        """Attach an endpoint; its ``node_id`` must be unique."""
        node_id = endpoint.node_id
        if node_id in self.nodes:
            raise ValueError(f"node id {node_id} already registered")
        self.nodes[node_id] = endpoint
        meter = BandwidthMeter()
        self.meters[node_id] = meter
        releasable = not getattr(endpoint, "RETAINS_ENVELOPES", True)
        route = (endpoint, meter, releasable)
        self._routes[node_id] = route
        if type(node_id) is int and 0 <= node_id < DENSE_ID_LIMIT:
            self._grow_dense(node_id)
            self._route_a[node_id] = route
            self._meter_a[node_id] = meter

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (it stops receiving); meter is retained.

        Any fault state referring to the id is cleared as well, so a later
        :meth:`register` under the same id starts from a clean slate instead
        of silently inheriting old crashes, blocked links or partitions.
        """
        self.nodes.pop(node_id, None)
        self._routes.pop(node_id, None)
        self._crashed.discard(node_id)
        if type(node_id) is int and 0 <= node_id < len(self._route_a):
            self._route_a[node_id] = None
            self._meter_a[node_id] = None
            self._crashed_a[node_id] = 0
        self._blocked_links = {
            link for link in self._blocked_links if node_id not in link
        }
        if self._partition is not None:
            for group in self._partition:
                group.discard(node_id)
            self._rebuild_partition_dense()
        self._refresh_fast_path()

    # ------------------------------------------------------- fault injection

    def _refresh_fast_path(self) -> None:
        """Recompute the no-faults flag after any fault-state mutation."""
        self._fast_send = not (
            self._crashed
            or self._blocked_links
            or self._partition is not None
            or self._delivery_hooks
            or self._fault_injector is not None
        )

    def crash(self, node_id: NodeId) -> None:
        """Silently drop all traffic to and from ``node_id``."""
        self._crashed.add(node_id)
        if type(node_id) is int and 0 <= node_id < len(self._crashed_a):
            self._crashed_a[node_id] = 1
        self._fast_send = False

    def recover(self, node_id: NodeId) -> None:
        """Undo :meth:`crash`."""
        self._crashed.discard(node_id)
        if type(node_id) is int and 0 <= node_id < len(self._crashed_a):
            self._crashed_a[node_id] = 0
        self._refresh_fast_path()

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether a node is currently crashed (offline)."""
        return node_id in self._crashed

    def _is_crashed_fast(self, node_id: NodeId) -> bool:
        """Set-equivalent crash membership via the dense byte array."""
        arr = self._crashed_a
        if type(node_id) is int and 0 <= node_id < len(arr):
            return arr[node_id] != 0
        return node_id in self._crashed

    def block_link(self, sender: NodeId, recipient: NodeId) -> None:
        """Drop messages on one directed link."""
        self._blocked_links.add((sender, recipient))
        self._fast_send = False

    def unblock_link(self, sender: NodeId, recipient: NodeId) -> None:
        """Undo :meth:`block_link`."""
        self._blocked_links.discard((sender, recipient))
        self._refresh_fast_path()

    def _rebuild_partition_dense(self) -> None:
        """Re-derive ``_group_a`` from ``_partition`` (or disable it)."""
        groups = self._partition
        self._group_a = None
        if not groups:
            return
        size = len(self._route_a)
        for group in groups:
            for member in group:
                if not (type(member) is int and 0 <= member < DENSE_ID_LIMIT):
                    return  # sparse member: keep the set-based check
                if member >= size:
                    size = member + 1
        arr = [-1] * size
        for index, group in enumerate(groups):
            for member in group:
                arr[member] = index
        self._group_a = arr

    def partition(self, groups: List[Set[NodeId]]) -> None:
        """Install a partition: messages between different groups are dropped."""
        self._partition = groups
        self._rebuild_partition_dense()
        self._fast_send = False

    def heal_partition(self) -> None:
        """Remove any installed partition."""
        self._partition = None
        self._group_a = None
        self._refresh_fast_path()

    def add_delivery_hook(self, hook: Callable[[Message], bool]) -> None:
        """Register a predicate consulted per message; ``False`` drops it."""
        self._delivery_hooks.append(hook)
        self._fast_send = False

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
        self._refresh_fast_path()

    def _drop(self, reason: str, message: Optional[Message] = None) -> None:
        self.dropped_messages += 1
        self.drop_reasons[reason] += 1
        if _TRACE is not None:
            attrs = {"reason": reason}
            if message is not None:
                attrs["msg_type"] = message.msg_type
                attrs["sender"] = message.sender
                attrs["recipient"] = message.recipient
            _TRACE.event("net.drop", t=self.loop.now,
                         node_id=message.recipient if message else None,
                         **attrs)

    def drop_breakdown(self) -> Dict[str, int]:
        """Per-reason drop counts (copy); reasons never hit are absent."""
        return dict(self.drop_reasons)

    def _crosses_partition(self, sender: NodeId, recipient: NodeId) -> bool:
        if self._partition is None:
            return False
        arr = self._group_a
        if arr is not None and type(sender) is int and type(recipient) is int:
            size = len(arr)
            sender_group = arr[sender] if 0 <= sender < size else -1
            if sender_group < 0:
                return False
            recipient_group = arr[recipient] if 0 <= recipient < size else -1
            return recipient_group != sender_group
        for group in self._partition:
            if sender in group:
                return recipient not in group
        return False

    # --------------------------------------------------------------- sending

    def _pair_delay(self, sender: NodeId, recipient: NodeId) -> float:
        """Modelled one-way delay, memoized per ordered pair when stable."""
        cache = self._delay_cache
        if cache is None:
            return self.latency_model.delay(sender, recipient)
        key = (sender, recipient)
        delay = cache.get(key)
        if delay is None:
            delay = self.latency_model.delay(sender, recipient)
            cache[key] = delay
        return delay

    def _delays(self, sender: NodeId, recipients: Sequence[NodeId]) -> List[float]:
        """Delays for a whole fan-out; identical values to ``_pair_delay``."""
        if self._cheap_delay:
            return self.latency_model.delays_batch(sender, recipients)
        return [self._pair_delay(sender, recipient) for recipient in recipients]

    def _acquire(
        self,
        sender: NodeId,
        recipient: NodeId,
        msg_type: str,
        payload: Any,
        wire_bytes: int,
        is_overhead: bool,
    ) -> Message:
        """A pooled envelope: recycled when available, fresh otherwise.

        Recycling re-stamps ``msg_id`` from the same global counter a
        fresh construction would draw from, so id sequences are identical
        either way (the byte-identity tests rely on this).
        """
        pool = self._pool
        if pool:
            if wire_bytes < 0:
                raise ValueError(f"negative wire_bytes: {wire_bytes}")
            message = pool.pop()
            message.sender = sender
            message.recipient = recipient
            message.msg_type = msg_type
            message.payload = payload
            message.wire_bytes = wire_bytes
            message.is_overhead = is_overhead
            message.msg_id = next(_message_counter)
            return message
        message = Message(sender, recipient, msg_type, payload, wire_bytes,
                          is_overhead)
        message.pooled = True
        return message

    def _sender_meter(self, sender: NodeId) -> Optional[BandwidthMeter]:
        arr = self._meter_a
        if type(sender) is int and 0 <= sender < len(arr):
            return arr[sender]
        return self.meters.get(sender)

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
        if self._fast_send:
            # No faults installed anywhere: skip the whole branch chain
            # and draw the envelope from the pool.
            message = self._acquire(sender, recipient, msg_type, payload,
                                    wire_bytes, is_overhead)
            meter = self._sender_meter(sender)
            if meter is not None:
                meter.record_send(message)
            if _TRACE is not None:
                _TRACE.message_event("net.send", self.loop.now, msg_type,
                                     sender, recipient, wire_bytes)
            self.loop.schedule_later(
                self._pair_delay(sender, recipient), self._deliver, message
            )
            return
        message = Message(sender, recipient, msg_type, payload, wire_bytes,
                          is_overhead)
        meter = self._sender_meter(sender)
        if meter is not None:
            meter.record_send(message)
        if _TRACE is not None:
            _TRACE.message_event("net.send", self.loop.now, msg_type, sender,
                                 recipient, message.wire_bytes)
        if self._is_crashed_fast(sender) or self._is_crashed_fast(recipient):
            self._drop("crashed", message)
            return
        if (sender, recipient) in self._blocked_links:
            self._drop("blocked_link", message)
            return
        if self._crosses_partition(sender, recipient):
            self._drop("partition", message)
            return
        for hook in self._delivery_hooks:
            if not hook(message):
                self._drop("hook", message)
                return
        delay = self._pair_delay(sender, recipient)
        if self._fault_injector is not None:
            deliveries = self._fault_injector(message, delay)
            if not deliveries:
                self._drop("chaos", message)
                return
            for when, mutated in deliveries:
                self.loop.schedule_later(when, self._deliver, mutated)
            return
        self.loop.schedule_later(delay, self._deliver, message)

    def send_many(
        self,
        sender: NodeId,
        sends: Sequence[Tuple[NodeId, str, Any, int, bool]],
    ) -> None:
        """Send a fan-out of per-recipient messages as delay-grouped batches.

        ``sends`` is a sequence of ``(recipient, msg_type, payload,
        wire_bytes, is_overhead)`` tuples.  On the fault-free fast path
        with batching enabled, delays for the whole fan-out come from one
        :meth:`LatencyModel.delays_batch` call and messages sharing a
        delay collapse into a single batch heap entry; otherwise this
        degrades to per-message :meth:`send` calls.  Both paths meter,
        trace, allocate ids and deliver in ``sends`` order, so they are
        byte-identical under the same seed.
        """
        if not (self.batching_enabled and self._fast_send):
            for recipient, msg_type, payload, wire_bytes, is_overhead in sends:
                self.send(sender, recipient, msg_type, payload, wire_bytes,
                          is_overhead)
            return
        delays = self._delays(sender, [entry[0] for entry in sends])
        meter = self._sender_meter(sender)
        trace = _TRACE
        now = self.loop.now
        groups: Dict[float, List[tuple]] = {}
        for (recipient, msg_type, payload, wire_bytes, is_overhead), delay \
                in zip(sends, delays):
            message = self._acquire(sender, recipient, msg_type, payload,
                                    wire_bytes, is_overhead)
            if meter is not None:
                meter.record_send(message)
            if trace is not None:
                trace.message_event("net.send", now, msg_type, sender,
                                    recipient, wire_bytes)
            group = groups.get(delay)
            if group is None:
                groups[delay] = [(message,)]
            else:
                group.append((message,))
        self._schedule_groups(groups)

    def send_fanout(
        self,
        sender: NodeId,
        recipients: Sequence[NodeId],
        msg_type: str,
        payload: Any,
        wire_bytes: int,
        is_overhead: bool = True,
    ) -> None:
        """:meth:`send_many` for one shared payload to many recipients."""
        if not (self.batching_enabled and self._fast_send):
            for recipient in recipients:
                self.send(sender, recipient, msg_type, payload, wire_bytes,
                          is_overhead)
            return
        if wire_bytes < 0:
            raise ValueError(f"negative wire_bytes: {wire_bytes}")
        delays = self._delays(sender, recipients)
        trace = _TRACE
        now = self.loop.now
        pool = self._pool
        groups: Dict[float, List[tuple]] = {}
        for recipient, delay in zip(recipients, delays):
            if pool:  # _acquire, inlined: the call alone is ~4% of censor_storm
                message = pool.pop()
                message.sender = sender
                message.recipient = recipient
                message.msg_type = msg_type
                message.payload = payload
                message.wire_bytes = wire_bytes
                message.is_overhead = is_overhead
                message.msg_id = next(_message_counter)
            else:
                message = Message(sender, recipient, msg_type, payload,
                                  wire_bytes, is_overhead)
                message.pooled = True
            if trace is not None:
                trace.message_event("net.send", now, msg_type, sender,
                                    recipient, wire_bytes)
            group = groups.get(delay)
            if group is None:
                groups[delay] = [(message,)]
            else:
                group.append((message,))
        meter = self._sender_meter(sender)
        # Charged once per fan-out; an empty one must add no by_type key.
        if delays and meter is not None:
            meter.record_fanout(len(delays), msg_type, wire_bytes, is_overhead)
        self._schedule_groups(groups)

    def _schedule_groups(self, groups: Dict[float, List[tuple]]) -> None:
        """One heap entry per distinct delay, in first-occurrence order.

        First-occurrence order matters: it makes each group's sequence
        number fall exactly where its first message's would have under
        per-message scheduling, so ties at equal delivery times resolve
        identically to the unbatched path.
        """
        loop = self.loop
        deliver = self._deliver
        for delay, items in groups.items():
            if len(items) == 1:
                loop.schedule_later(delay, deliver, items[0][0])
            else:
                loop.schedule_batch_later(delay, deliver, items)

    def _deliver(self, message: Message) -> None:
        recipient = message.recipient
        if self._crashed and self._is_crashed_fast(recipient):
            self._drop("crashed", message)
            return
        arr = self._route_a
        if type(recipient) is int and 0 <= recipient < len(arr):
            route = arr[recipient]
        else:
            route = self._routes.get(recipient)
        if route is None:
            self._drop("no_endpoint", message)
            return
        endpoint, meter, releasable = route
        meter.record_recv(message)
        self.delivered_messages += 1
        if _TRACE is not None:
            _TRACE.message_event("net.deliver", self.loop.now,
                                 message.msg_type, message.sender, recipient,
                                 message.wire_bytes)
        endpoint.on_message(message)
        if releasable and message.pooled:
            pool = self._pool
            if len(pool) < self.POOL_MAX:
                message.payload = None  # drop the payload reference now
                pool.append(message)

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
