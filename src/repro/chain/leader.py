"""Random leader election with Poisson block arrivals.

"We model miner selection as a random process" (section 2.3); the Fig. 8
experiment "simulate[s] a block creation process at randomly selected
miners with an average block time of 12 s".  :class:`LeaderSchedule`
produces exactly that: exponentially distributed inter-block times and a
uniformly random leader per slot, both from seeded streams.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.sim.loop import EventLoop, Timer


class LeaderSchedule:
    """Drives block production: picks a leader every ~``mean_block_time`` s."""

    def __init__(
        self,
        loop: EventLoop,
        node_ids: List[int],
        mean_block_time: float,
        rng: random.Random,
        on_leader: Callable[[int], None],
        eligible: Optional[Callable[[int], bool]] = None,
        min_gap: Optional[float] = None,
    ):
        if mean_block_time <= 0:
            raise ValueError(f"mean_block_time must be > 0, got {mean_block_time}")
        if not node_ids:
            raise ValueError("node_ids must be non-empty")
        self.loop = loop
        self.node_ids = list(node_ids)
        self.mean_block_time = mean_block_time
        self.rng = rng
        self.on_leader = on_leader
        self.eligible = eligible
        # Consensus (stage IV) is out of scope and modelled as always
        # finalising one block per slot; back-to-back elections faster than
        # block propagation would instead create unresolved forks, so slots
        # are spaced by at least ``min_gap`` (default 1 s, above the
        # overlay's worst multi-hop flood time, but never more than half
        # the mean).  Inter-block times are min_gap + Exp(mean - min_gap),
        # preserving the requested mean exactly.
        if min_gap is None:
            min_gap = min(1.0, 0.5 * mean_block_time)
        if not 0 <= min_gap < mean_block_time:
            raise ValueError(
                f"min_gap {min_gap} must lie in [0, mean_block_time)"
            )
        self.min_gap = min_gap
        self.elections = 0
        self._event: Optional[Timer] = None
        self._stopped = True

    def start(self) -> None:
        """Begin the election process; idempotent while running."""
        if not self._stopped:
            return
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        """Halt elections; idempotent."""
        self._stopped = True
        if self._event is not None:
            self.loop.cancel(self._event)
            self._event = None

    def _schedule_next(self) -> None:
        remaining_mean = self.mean_block_time - self.min_gap
        delay = self.min_gap + self.rng.expovariate(1.0 / remaining_mean)
        self._event = self.loop.call_later(delay, self._elect)

    def _elect(self) -> None:
        if self._stopped:
            return
        leader = self._pick_leader()
        if leader is not None:
            self.elections += 1
            self.on_leader(leader)
        self._schedule_next()

    def _pick_leader(self) -> Optional[int]:
        candidates = self.node_ids
        if self.eligible is not None:
            candidates = [n for n in candidates if self.eligible(n)]
            if not candidates:
                return None
        return self.rng.choice(candidates)
