"""Time-series probes sampled during a simulation run.

:class:`ConvergenceProbe` periodically samples, for each tracked
transaction, the fraction of a node population that has committed it --
producing the convergence-over-time curves behind Fig. 7's narrative
("convergence on the transaction among nodes is achieved after ...").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # repro.sim.loop imports repro.obs
    from repro.sim.loop import EventLoop, Timer


class ConvergenceProbe:
    """Samples a coverage function for registered items at a fixed period."""

    def __init__(
        self,
        loop: "EventLoop",
        coverage_of: Callable[[int], float],
        period_s: float = 0.25,
    ):
        if period_s <= 0:
            raise ValueError(f"period must be > 0, got {period_s}")
        self.loop = loop
        self.coverage_of = coverage_of
        self.period_s = period_s
        self._items: Dict[int, float] = {}          # item -> registered at
        self.series: Dict[int, List[Tuple[float, float]]] = {}
        self._event: Optional["Timer"] = None
        self._running = False

    def track(self, item: int) -> None:
        """Start sampling an item's coverage."""
        self._items.setdefault(item, self.loop.now)
        self.series.setdefault(item, [])

    def start(self) -> None:
        """Begin periodic sampling; idempotent."""
        if self._running:
            return
        self._running = True
        self._event = self.loop.call_later(self.period_s, self._tick)

    def stop(self) -> None:
        """Stop sampling and cancel the pending tick."""
        self._running = False
        if self._event is not None:
            self.loop.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.loop.now
        for item in self._items:
            coverage = self.coverage_of(item)
            samples = self.series[item]
            if not samples or samples[-1][1] != coverage:
                samples.append((now, coverage))
            if coverage >= 1.0 and samples and samples[-1][1] >= 1.0:
                continue
        self._event = self.loop.call_later(self.period_s, self._tick)

    def time_to_coverage(self, item: int, threshold: float = 1.0) -> Optional[float]:
        """Seconds from registration until coverage first reached threshold."""
        registered = self._items.get(item)
        if registered is None:
            return None
        for when, coverage in self.series.get(item, ()):
            if coverage >= threshold:
                return when - registered
        return None

    def curve(self, item: int) -> List[Tuple[float, float]]:
        """(relative time, coverage) samples for an item."""
        registered = self._items.get(item)
        if registered is None:
            return []
        return [(t - registered, c) for t, c in self.series.get(item, ())]
