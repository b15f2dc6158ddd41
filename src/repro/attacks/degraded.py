"""Degraded and protocol-abusing behaviours: slow nodes, spam, garbage.

These are the accuracy stress cases rather than manipulation attacks:

* :class:`SlowNode` -- a *correct* node whose responses are delayed close
  to (or beyond) the suspicion timeout.  Accountability's *temporal
  accuracy* demands it is never perpetually suspected and its *no false
  positives* property demands it is never exposed (section 3.2).
* :class:`SpamClientNode` -- a miner whose "clients" submit invalid
  transactions (bad signatures) and low-fee dust.  Stage-I/II
  prevalidation must keep invalid content out of commitments entirely, and
  the fee threshold keeps dust out of blocks without breaking inspection
  (the exclusion rules are deterministic, so all inspectors agree).
* :class:`GarbageNode` -- a Byzantine peer that floods its neighbours with
  malformed / type-confused ``lo/*`` payloads.  The hardened ingress
  (:mod:`repro.core.wire`) must contain every one of them: victims keep
  running, count the violations against the sender, and quarantine it
  with exponential backoff.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.node import LONode
from repro.mempool.transaction import Transaction, make_transaction
from repro.net.chaos import corrupt_payload
from repro.net.message import Message


class SlowNode(LONode):
    """A correct node that processes every message after an extra delay.

    ``extra_delay_s`` is applied on the receive path, which models slow
    hardware / an overloaded event loop rather than network latency.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.extra_delay_s = 0.8

    def on_message(self, message: Message) -> None:
        self.loop.call_later(
            self.extra_delay_s, super().on_message, message
        )


class SpamClientNode(LONode):
    """A miner fed by misbehaving clients.

    ``spam_invalid`` submits transactions with corrupted signatures (must
    be rejected at prevalidation and never committed); ``spam_dust``
    submits valid transactions below the fee threshold (committed --
    inclusion of all *valid* transactions -- but excluded from blocks).
    """

    def spam_invalid(self, count: int = 5) -> int:
        """Inject forged transactions; returns how many were accepted."""
        accepted = 0
        for _ in range(count):
            self._nonce += 1
            tx = make_transaction(
                self.keypair, self._nonce, fee=50, created_at=self.now
            )
            forged = Transaction(
                sender=tx.sender,
                nonce=tx.nonce,
                fee=tx.fee + 1,            # fee mismatch breaks the signature
                size_bytes=tx.size_bytes,
                created_at=tx.created_at,
                payload=tx.payload,
                signature=tx.signature,
            )
            if self.receive_client_transaction(forged):
                accepted += 1
        return accepted

    def spam_dust(self, count: int = 5, fee: int = 0) -> list:
        """Inject valid-but-dust transactions; returns their objects."""
        dust = []
        for _ in range(count):
            self._nonce += 1
            tx = make_transaction(
                self.keypair, self._nonce, fee=fee, created_at=self.now
            )
            self.receive_client_transaction(tx)
            dust.append(tx)
        return dust


class GarbageNode(LONode):
    """A Byzantine miner that interleaves garbage with normal traffic.

    Every ``garbage_period_s`` it sends one malformed ``lo/*`` message to
    each neighbour: either a corrupted mutation of a legitimate payload
    (its own commitment header, mangled) or outright typed garbage under a
    random protocol message type.  It otherwise behaves correctly, so the
    test question is purely whether victims survive and attribute.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.garbage_period_s = 0.5
        self.garbage_sent = 0
        self._garbage_rng = random.Random(f"garbage-{self.node_id}")

    def start(self) -> None:
        super().start()
        self.loop.call_later(self.garbage_period_s, self._garbage_tick)

    def _garbage_tick(self) -> None:
        self.loop.call_later(self.garbage_period_s, self._garbage_tick)
        rng = self._garbage_rng
        msg_types = sorted(self._HANDLERS)
        for peer in sorted(self.neighbors):
            msg_type = rng.choice(msg_types)
            if rng.random() < 0.5:
                # Attributable garbage: a validly signed header inside a
                # structurally broken envelope.
                payload = corrupt_payload(self.header(), rng)
            else:
                payload = corrupt_payload(self._nonce, rng)
            self._send(peer, msg_type, payload, 64)
            self.garbage_sent += 1
