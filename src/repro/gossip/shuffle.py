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
from typing import Any, Callable, Optional, Set

from repro.gossip.sampler import PeerSampler
from repro.sim.loop import EventLoop


class NeighborShuffler:
    """Rotates one node's neighbours against the sampler.

    ``owner`` is the object whose ``neighbors`` (a sorted tuple) this
    rewires: each round that changes them rebinds it to a new sorted
    tuple, so no one else's copy is ever mutated.

    :meth:`start` schedules the first round ``phase`` seconds in, with the
    phase drawn from ``rng`` at construction so nodes de-synchronise; each
    round then reschedules itself ``period`` ± 10% later, the jitter drawn
    from ``rng`` after the round's own draws.
    """

    def __init__(
        self,
        loop: EventLoop,
        node_id: int,
        owner: Any,
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
        self.owner = owner
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
        # Evict blocked neighbours unconditionally.
        removed = {p for p in self.owner.neighbors if p in blocked}
        # Rotate a few healthy neighbours to keep the overlay mixing.
        rotatable = [p for p in self.owner.neighbors if p not in blocked]
        for _ in range(min(self.swaps_per_round, len(rotatable))):
            peer = self.rng.choice(rotatable)
            rotatable.remove(peer)
            removed.add(peer)
        neighbors = set(rotatable)
        # Refill from the sampler up to the degree target.
        needed = self.target_degree - len(neighbors)
        if needed > 0:
            added.update(self.sampler.sample(
                self.node_id, needed, exclude=blocked | neighbors | removed
            ))
            neighbors |= added
        self.total_swaps += len(added)
        if added or removed:
            self.owner.neighbors = tuple(sorted(neighbors))
            if self.on_change is not None:
                self.on_change(added, removed)
