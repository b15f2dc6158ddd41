"""Message envelope used by every protocol in the simulator.

A message is a typed payload plus explicit wire-size accounting.  Payloads
are ordinary Python objects (the simulator never serializes them for
transport); ``wire_bytes`` states what the real implementation would put on
the wire, so bandwidth experiments measure protocol overhead rather than
Python object sizes.  Every protocol computes ``wire_bytes`` from the
serialized sizes of its data structures (sketches, clocks, signatures...).

One envelope is built per send, so the class is a hand-rolled
``__slots__`` struct (not a dataclass -- ``slots=True`` needs 3.10+), and
``msg_id`` comes from one process-wide counter.  The network hands the
object itself to ``on_message`` and keeps no reference: an endpoint may
hold on to it, but must not mutate it -- a chaos duplicate is the same
object delivered twice.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

# Fixed per-message envelope cost: UDP/IP-style header plus message type tag,
# matching how the paper's prototype (ipv8 over UDP) frames packets.
ENVELOPE_BYTES = 32

_message_counter = itertools.count()


class Message:
    """A typed, size-accounted message.

    ``msg_type`` routes to a handler on the receiving node; ``payload`` is
    protocol-specific; ``wire_bytes`` is the full on-wire cost including the
    envelope.  ``is_overhead`` distinguishes protocol overhead from raw
    transaction payload bytes: Fig. 9 "omit[s] the bandwidth overhead for
    sharing transactions, as it is the same for all protocols".
    """

    __slots__ = ("sender", "recipient", "msg_type", "payload", "wire_bytes",
                 "is_overhead", "msg_id")

    def __init__(
        self,
        sender: Any,
        recipient: Any,
        msg_type: str,
        payload: Any,
        wire_bytes: int,
        is_overhead: bool = True,
        msg_id: Optional[int] = None,
    ):
        if wire_bytes < 0:
            raise ValueError(f"negative wire_bytes: {wire_bytes}")
        self.sender = sender
        self.recipient = recipient
        self.msg_type = msg_type
        self.payload = payload
        self.wire_bytes = wire_bytes
        self.is_overhead = is_overhead
        self.msg_id = next(_message_counter) if msg_id is None else msg_id

    def __eq__(self, other: Any) -> bool:
        # Field-for-field equality, msg_id included, matching the old
        # dataclass semantics: a chaos-corrupted copy never equals its
        # original even when the corruption round-trips the payload.
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.recipient == other.recipient
            and self.msg_type == other.msg_type
            and self.payload == other.payload
            and self.wire_bytes == other.wire_bytes
            and self.is_overhead == other.is_overhead
            and self.msg_id == other.msg_id
        )

    __hash__ = None  # mutable envelope, same as the eq=True dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.msg_type} {self.sender}->{self.recipient},"
            f" {self.wire_bytes}B)"
        )
