"""Degraded and protocol-abusing behaviours: slow nodes, spam, garbage.

These are the accuracy stress cases rather than manipulation attacks:

* :class:`Slow` -- a *correct* node whose responses are delayed close
  to (or beyond) the suspicion timeout.  Accountability's *temporal
  accuracy* demands it is never perpetually suspected and its *no false
  positives* property demands it is never exposed (section 3.2).
* :func:`spam_invalid` / :func:`spam_dust` -- a miner whose "clients"
  submit invalid transactions (bad signatures) and low-fee dust.
  Stage-I/II prevalidation must keep invalid content out of commitments
  entirely, and the fee threshold keeps dust out of blocks without
  breaking inspection (the exclusion rules are deterministic, so all
  inspectors agree).
* :class:`Garbage` -- a Byzantine peer that floods its neighbours with
  malformed / type-confused ``lo/*`` payloads.  The hardened ingress
  (:mod:`repro.core.wire`) must contain every one of them: victims keep
  running, count the violations against the sender, and quarantine it
  with exponential backoff.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

from repro.attacks.adversary import Adversary
from repro.core.node import LONode
from repro.mempool.transaction import Transaction, make_transaction
from repro.net.chaos import corrupt_payload
from repro.net.message import Message


class Slow(Adversary):
    """A correct node that handles every message ``extra_delay_s`` late.

    The delay is applied on the receive path, which models slow hardware /
    an overloaded event loop rather than network latency.  It deviates
    from nothing, so its record stays empty.
    """

    def __init__(self, node: LONode, extra_delay_s: float = 0.8):
        super().__init__(node)
        self.extra_delay_s = extra_delay_s
        self._released = None

    def intercepts(self, message: Message) -> bool:
        if message is self._released:
            return False
        self.node.loop.call_later(self.extra_delay_s, self._release, message)
        return True

    def _release(self, message: Message) -> None:
        self._released = message
        try:
            self.node.on_message(message)
        finally:
            self._released = None


def spam_invalid(node: LONode, count: int = 5) -> int:
    """Feed ``node`` forged client transactions; returns how many it accepted.

    They must be rejected at prevalidation and never committed.
    """
    accepted = 0
    for _ in range(count):
        node._nonce += 1
        tx = make_transaction(
            node.keypair, node._nonce, fee=50, created_at=node.now
        )
        # A fee the signature does not cover.
        forged = dataclasses.replace(tx, fee=tx.fee + 1)
        if node.receive_client_transaction(forged):
            accepted += 1
    return accepted


def spam_dust(node: LONode, count: int = 5, fee: int = 0) -> List[Transaction]:
    """Feed ``node`` valid transactions below the fee threshold.

    They are committed (inclusion of all *valid* transactions) but
    excluded from blocks.  Returns the transactions.
    """
    dust = []
    for _ in range(count):
        node._nonce += 1
        tx = make_transaction(node.keypair, node._nonce, fee=fee,
                              created_at=node.now)
        node.receive_client_transaction(tx)
        dust.append(tx)
    return dust


class Garbage(Adversary):
    """A Byzantine miner that interleaves garbage with normal traffic.

    Every ``period_s`` it sends one malformed ``lo/*`` message to each
    neighbour: either a corrupted mutation of a legitimate payload (its
    own commitment header, mangled) or outright typed garbage under a
    random protocol message type.  It otherwise behaves correctly, so the
    test question is purely whether victims survive and attribute.
    """

    def __init__(self, node: LONode, period_s: float = 0.5):
        super().__init__(node)
        self.period_s = period_s
        self._rng = random.Random(f"garbage-{node.node_id}")
        node.loop.call_later(period_s, self._tick)

    def _tick(self) -> None:
        node = self.node
        node.loop.call_later(self.period_s, self._tick)
        rng = self._rng
        msg_types = sorted(node._HANDLERS)
        for peer in sorted(node.neighbors):
            msg_type = rng.choice(msg_types)
            if rng.random() < 0.5:
                # Attributable garbage: a validly signed header inside a
                # structurally broken envelope.
                payload = corrupt_payload(node.header(), rng)
            else:
                payload = corrupt_payload(node._nonce, rng)
            node._send(peer, msg_type, payload, 64)
            self.did("garbage", peer)
