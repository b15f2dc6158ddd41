"""Periodic neighbour shuffling.

"Each peer periodically rotates its neighbors, and the peer discovery
process continues until it is provided with a sufficient number of
non-suspected and non-exposed peers" (section 5.1).  The shuffler swaps a
configurable number of a node's overlay neighbours for fresh samples each
period, respecting the out-degree budget, and drops suspected/exposed
neighbours first.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Set

from repro.gossip.sampler import PeerSampler
from repro.sim.loop import EventLoop


class NeighborShuffler:
    """Rotates one node's neighbour set against the sampler.

    :meth:`start` schedules the first round ``phase`` seconds in, with the
    phase drawn from ``rng`` at construction so nodes de-synchronise; each
    round then reschedules itself ``period`` ± 10% later, the jitter drawn
    from ``rng`` after the round's own draws.
    """

    def __init__(
        self,
        loop: EventLoop,
        node_id: int,
        neighbors: Set[int],
        sampler: PeerSampler,
        rng: random.Random,
        period: float = 10.0,
        swaps_per_round: int = 1,
        target_degree: int = 8,
        blocklist: Optional[Callable[[], Set[int]]] = None,
        on_change: Optional[Callable[[Set[int], Set[int]], None]] = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.loop = loop
        self.period = period
        self._phase = rng.uniform(0, period)
        self.node_id = node_id
        self.neighbors = neighbors
        self.sampler = sampler
        self.rng = rng
        self.swaps_per_round = swaps_per_round
        self.target_degree = target_degree
        self.blocklist = blocklist or (lambda: set())
        self.on_change = on_change
        self.total_swaps = 0

    def start(self) -> None:
        """Schedule the first round."""
        self.loop.call_later(self._phase, self._round)

    def _round(self) -> None:
        self.tick()
        jitter = self.period * 0.1
        self.loop.call_later(
            self.period + self.rng.uniform(-jitter, jitter), self._round
        )

    def tick(self) -> None:
        """One shuffle round: evict bad/random neighbours, refill to target."""
        blocked = self.blocklist()
        added: Set[int] = set()
        removed: Set[int] = set()
        # Evict blocked neighbours unconditionally.
        for peer in [p for p in self.neighbors if p in blocked]:
            self.neighbors.discard(peer)
            removed.add(peer)
        # Rotate a few healthy neighbours to keep the overlay mixing.
        rotatable = sorted(self.neighbors)
        for _ in range(min(self.swaps_per_round, len(rotatable))):
            peer = self.rng.choice(rotatable)
            rotatable.remove(peer)
            self.neighbors.discard(peer)
            removed.add(peer)
        # Refill from the sampler up to the degree target.
        needed = self.target_degree - len(self.neighbors)
        if needed > 0:
            fresh = self.sampler.sample(
                self.node_id, needed, exclude=blocked | self.neighbors | removed
            )
            for peer in fresh:
                self.neighbors.add(peer)
                added.add(peer)
        self.total_swaps += len(added)
        if self.on_change is not None and (added or removed):
            self.on_change(added, removed)
