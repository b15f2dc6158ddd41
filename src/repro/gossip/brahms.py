"""Brahms: Byzantine-resilient random membership sampling.

LO's system model assumes "a Byzantine-resilient uniform sampling
algorithm, such as those detailed in [Brahms, Basalt]" (section 3).  The
harness's :class:`~repro.gossip.sampler.PeerSampler` provides that
algorithm's *guarantees* directly; this module additionally provides the
algorithm itself -- a faithful single-process implementation of Brahms
(Bortnikov et al., Computer Networks 2009) -- so the assumption can be
exercised and attacked rather than merely granted.

Brahms in brief: each node keeps

* a **view** ``V`` of size ``l1``, refreshed every round by mixing
  ``alpha*l1`` pushed ids, ``beta*l1`` ids pulled from random view members,
  and ``gamma*l1`` ids from the sampler (history);
* a **sample list** ``S`` of ``l2`` :class:`MinWiseSampler` cells, each
  remembering the id with the smallest value of a private random hash over
  every id ever observed -- a uniform sample over the *union* of streams,
  immune to adversarial over-representation in any single round;
* a limited **push** budget, which (with the min-wise samplers) is what
  bounds the fraction of faulty ids that can infiltrate views.

Attack resistance hinges on the sample list: even if faulty nodes flood
pushes, a cell only adopts a faulty id if that id's private hash beats
every correct id ever seen -- probability ``f/(f+c)`` per cell,
independent of the flooding volume.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Optional, Set

from repro.net.message import ENVELOPE_BYTES, Message
from repro.net.network import Endpoint, Network
from repro.sim.loop import EventLoop


class MinWiseSampler:
    """One uniform-sample cell: keeps the min-hash id of the stream."""

    __slots__ = ("_salt", "_best_value", "sample")

    def __init__(self, salt: bytes):
        self._salt = salt
        self._best_value: Optional[bytes] = None
        self.sample: Optional[int] = None

    def offer(self, node_id: int) -> None:
        """Observe one id; keep it if its salted hash is the minimum."""
        value = hashlib.sha256(
            self._salt + node_id.to_bytes(8, "big", signed=False)
        ).digest()
        if self._best_value is None or value < self._best_value:
            self._best_value = value
            self.sample = node_id

    def invalidate(self) -> None:
        """Drop the current sample (e.g. the node was found dead)."""
        self._best_value = None
        self.sample = None


class BrahmsNode(Endpoint):
    """One Brahms participant on the simulated network.

    Parameters follow the paper's notation: view size ``l1``, sample-list
    size ``l2``, and the (alpha, beta, gamma) mixing weights.
    """

    def __init__(
        self,
        node_id: int,
        loop: EventLoop,
        network: Network,
        bootstrap: Iterable[int],
        rng: random.Random,
        l1: int = 16,
        l2: int = 16,
        alpha: float = 0.45,
        beta: float = 0.45,
        gamma: float = 0.10,
        round_interval_s: float = 1.0,
    ):
        if not 0.999 <= alpha + beta + gamma <= 1.001:
            raise ValueError("alpha + beta + gamma must be 1")
        self.node_id = node_id
        self.loop = loop
        self.network = network
        self.rng = rng
        self.l1 = l1
        self.l2 = l2
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.round_interval_s = round_interval_s
        self.view: List[int] = [p for p in bootstrap if p != node_id][:l1]
        self.samplers = [
            MinWiseSampler(
                hashlib.sha256(f"brahms-{node_id}-{i}-{rng.random()}".encode()).digest()
            )
            for i in range(l2)
        ]
        for peer in self.view:
            self._observe(peer)
        self._pushes_received: List[int] = []
        self._pulls_received: List[List[int]] = []
        self.rounds = 0
        self._running = False
        network.register(self)

    # ----------------------------------------------------------------- API

    def start(self) -> None:
        """Begin periodic rounds with a random phase."""
        if self._running:
            return
        self._running = True
        self.loop.call_later(
            self.rng.uniform(0, self.round_interval_s), self._round
        )

    def stop(self) -> None:
        self._running = False

    def sample(self, k: int, exclude: Optional[Set[int]] = None) -> List[int]:
        """Up to ``k`` distinct ids from the sample list."""
        pool = {
            cell.sample
            for cell in self.samplers
            if cell.sample is not None
            and cell.sample != self.node_id
            and (exclude is None or cell.sample not in exclude)
        }
        pool = sorted(pool)
        if len(pool) <= k:
            return pool
        return self.rng.sample(pool, k)

    def sample_ids(self) -> Set[int]:
        """The distinct ids currently held by the sample list."""
        return {
            cell.sample for cell in self.samplers if cell.sample is not None
        }

    # -------------------------------------------------------------- rounds

    def _observe(self, node_id: int) -> None:
        for cell in self.samplers:
            cell.offer(node_id)

    def _round(self) -> None:
        if not self._running:
            return
        self.rounds += 1
        pushes, pulls = self._pushes_received, self._pulls_received
        self._pushes_received, self._pulls_received = [], []

        # Defence: a push flood (more pushes than the slice can hold times
        # a safety factor) voids the round's view update -- Brahms's attack
        # detection rule.  Samplers still observe everything.
        for pushed in pushes:
            self._observe(pushed)
        for view in pulls:
            for peer in view:
                self._observe(peer)

        alpha_slots = int(round(self.alpha * self.l1))
        beta_slots = int(round(self.beta * self.l1))
        gamma_slots = self.l1 - alpha_slots - beta_slots
        flooded = len(pushes) > 2 * alpha_slots
        if not flooded and (pushes or pulls):
            new_view: List[int] = []
            push_pool = [p for p in pushes if p != self.node_id]
            self.rng.shuffle(push_pool)
            new_view.extend(push_pool[:alpha_slots])
            pull_pool = [
                p for view in pulls for p in view if p != self.node_id
            ]
            self.rng.shuffle(pull_pool)
            new_view.extend(pull_pool[:beta_slots])
            history = self.sample(gamma_slots)
            new_view.extend(history)
            if new_view:
                self.view = self._dedupe(new_view)[: self.l1]

        # Send this round's pushes and pulls.
        for target in self._pick(self.view, alpha_slots):
            self._send(target, "brahms/push", self.node_id, 8)
        for target in self._pick(self.view, beta_slots):
            self._send(target, "brahms/pull_req", self.node_id, 8)
        self.loop.call_later(self.round_interval_s, self._round)

    def _pick(self, pool: List[int], k: int) -> List[int]:
        pool = [p for p in pool if p != self.node_id]
        if len(pool) <= k:
            return list(pool)
        return self.rng.sample(pool, k)

    @staticmethod
    def _dedupe(ids: List[int]) -> List[int]:
        seen: Set[int] = set()
        out = []
        for i in ids:
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out

    # ------------------------------------------------------------ messages

    def _send(self, peer: int, msg_type: str, payload, body: int) -> None:
        self.network.send(
            self.node_id, peer, msg_type, payload,
            wire_bytes=body + ENVELOPE_BYTES,
        )

    def on_message(self, message: Message) -> None:
        if message.msg_type == "brahms/push":
            self._pushes_received.append(message.payload)
        elif message.msg_type == "brahms/pull_req":
            self._send(
                message.sender, "brahms/pull_resp", list(self.view),
                8 * len(self.view),
            )
        elif message.msg_type == "brahms/pull_resp":
            self._pulls_received.append(list(message.payload))


class ByzantinePusher(BrahmsNode):
    """A faulty Brahms participant that floods pushes of faulty ids.

    Models the membership-poisoning attacker Brahms defends against: every
    round it pushes (itself and its accomplices) to ``flood_factor`` times
    the normal budget of targets.
    """

    def __init__(self, *args, accomplices: Optional[Set[int]] = None,
                 flood_factor: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        self.accomplices = set(accomplices or set()) | {self.node_id}
        self.flood_factor = flood_factor

    def _round(self) -> None:
        if not self._running:
            return
        self.rounds += 1
        self._pushes_received = []
        self._pulls_received = []
        budget = self.flood_factor * max(1, int(self.alpha * self.l1))
        targets = self._pick(self.view, min(budget, len(self.view)))
        for target in targets:
            for accomplice in self.accomplices:
                self._send(target, "brahms/push", accomplice, 8)
        self.loop.call_later(self.round_interval_s, self._round)

    def on_message(self, message: Message) -> None:
        if message.msg_type == "brahms/pull_req":
            # Answer pulls with an all-faulty view.
            self._send(
                message.sender, "brahms/pull_resp",
                sorted(self.accomplices), 8 * len(self.accomplices),
            )
        # Ignore everything else.
